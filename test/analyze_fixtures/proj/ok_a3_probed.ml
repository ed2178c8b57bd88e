(* The well-covered scheduler: registered, wires a live probe field, and
   the fixture test role references it — every A3 audit is satisfied. *)

module Sched = Wfs_core.Wireless_sched
module Packet = Wfs_traffic.Packet

type t = { q : Packet.t Queue.t; mutable served : int }

let create () = { q = Queue.create (); served = 0 }

let instance t =
  {
    Sched.name = "FIXTURE-PROBED";
    enqueue = (fun ~slot:_ pkt -> Queue.push pkt t.q);
    select =
      (fun ~slot:_ ~predicted_good:_ ->
        match Queue.peek_opt t.q with
        | Some p -> Some p.Packet.flow
        | None -> None);
    head = (fun _ -> Queue.peek_opt t.q);
    complete =
      (fun ~flow:_ ->
        t.served <- t.served + 1;
        ignore (Queue.take_opt t.q));
    fail = (fun ~flow:_ -> ());
    drop_head = (fun ~flow:_ -> ignore (Queue.take_opt t.q));
    drop_expired = (fun ~flow:_ ~now:_ ~bound:_ -> []);
    queue_length = (fun _ -> Queue.length t.q);
    on_slot_end = (fun ~slot:_ -> ());
    probe =
      {
        Sched.no_probe with
        lag_sum = Some (fun () -> t.served);
        work_conserving = true;
      };
    handoff = None;
    quiescent = None;
    queues =
      Sched.fifo_queues ~queue:(fun _ -> t.q) ~on_backlogged:ignore
        ~on_emptied:ignore;
  }

let register () =
  Wfs_core.Registry.register
    {
      Wfs_core.Registry.name = "FIXTURE-PROBED";
      aliases = [];
      predictor = Wfs_channel.Predictor.Blind;
      make =
        (fun ?credit_limit:_ ?debit_limit:_ ?limits:_ _flows ->
          instance (create ()));
    }
