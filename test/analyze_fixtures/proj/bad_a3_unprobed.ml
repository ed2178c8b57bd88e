(* A registered scheduler with no probe wiring: the instance ships with
   no_probe, so the invariant monitors cannot observe it — and nothing in
   the test role references it, so lockstep coverage is missing too.
   [register] is compiled, never executed; reachability is what A3 checks. *)

module Sched = Wfs_core.Wireless_sched
module Packet = Wfs_traffic.Packet

type t = { q : Packet.t Queue.t }

let create () = { q = Queue.create () }

let instance t =
  {
    Sched.name = "FIXTURE-UNPROBED";
    enqueue = (fun ~slot:_ pkt -> Queue.push pkt t.q);
    select =
      (fun ~slot:_ ~predicted_good:_ ->
        match Queue.peek_opt t.q with
        | Some p -> Some p.Packet.flow
        | None -> None);
    head = (fun _ -> Queue.peek_opt t.q);
    complete = (fun ~flow:_ -> ignore (Queue.take_opt t.q));
    fail = (fun ~flow:_ -> ());
    drop_head = (fun ~flow:_ -> ignore (Queue.take_opt t.q));
    drop_expired = (fun ~flow:_ ~now:_ ~bound:_ -> []);
    queue_length = (fun _ -> Queue.length t.q);
    on_slot_end = (fun ~slot:_ -> ());
    probe = Sched.no_probe;
    handoff = None;
    quiescent = None;
    queues =
      Sched.fifo_queues ~queue:(fun _ -> t.q) ~on_backlogged:ignore
        ~on_emptied:ignore;
  }

let register () =
  Wfs_core.Registry.register
    {
      Wfs_core.Registry.name = "FIXTURE-UNPROBED";
      aliases = [];
      predictor = Wfs_channel.Predictor.Blind;
      make =
        (fun ?credit_limit:_ ?debit_limit:_ ?limits:_ _flows ->
          instance (create ()));
    }
