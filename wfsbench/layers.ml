(* Span accumulators and pass-through wrappers around each layer's public
   closures.  A wrapper reads the monotonic clock around the wrapped call,
   bumps the span owned by that one object (scheduler instance, source or
   channel), and returns exactly what the wrapped call returned, so a traced
   run follows the untraced sample path.  Accumulators are never shared
   between objects: a topology cell and everything it holds is advanced by
   one pool domain per epoch, so no counter is written from two domains. *)

module Sched = Wfs_core.Wireless_sched
module Registry = Wfs_core.Registry
module Arrival = Wfs_traffic.Arrival
module Packet = Wfs_traffic.Packet
module Channel = Wfs_channel.Channel

(* Bechamel's CLOCK_MONOTONIC stub: noalloc, nanoseconds. *)
let now () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9

type span = { mutable ns : int; mutable calls : int }

let span () = { ns = 0; calls = 0 }

let add sp t0 =
  sp.ns <- sp.ns + (now () - t0);
  sp.calls <- sp.calls + 1

(* {1 Scheduler instances} *)

type sched_acc = {
  make : span;
  select : span;
  enqueue : span;
  outcome : span;  (** head / complete / fail / drop_head inside a slot *)
  drop_expired : span;
  slot_end : span;
  backlog_empty : span;
  quiescent : span;  (** advance_quiescent *)
  drain : span;
      (** head / drop_head outside a slot and re-enqueues of carried
          packets: the topology barrier's dissolve/rebuild traffic *)
  carry : span;  (** handoff export + import *)
  mutable select_hits : int;
  mutable q_requested : int;
  mutable q_absorbed : int;
  mutable drained : int;
  mutable in_slot : bool;
  mutable last_end : int;  (** clock at the end of the last on_slot_end *)
}

let sched_acc () =
  {
    make = span ();
    select = span ();
    enqueue = span ();
    outcome = span ();
    drop_expired = span ();
    slot_end = span ();
    backlog_empty = span ();
    quiescent = span ();
    drain = span ();
    carry = span ();
    select_hits = 0;
    q_requested = 0;
    q_absorbed = 0;
    drained = 0;
    in_slot = false;
    last_end = 0;
  }

(* A slot is open from [select] to [on_slot_end]; the simulator only calls
   the outcome closures inside that interval, so a [head]/[drop_head]
   outside it is a barrier drain.  A packet enqueued at a later slot than
   it arrived in is a carried backlog being re-enqueued by a rebuild. *)
let wrap_sched acc (i : Sched.instance) : Sched.instance =
  let outcome_or_drain t0 =
    if acc.in_slot then add acc.outcome t0 else add acc.drain t0
  in
  {
    i with
    enqueue =
      (fun ~slot pkt ->
        let t0 = now () in
        i.enqueue ~slot pkt;
        add (if pkt.Packet.arrival < slot then acc.drain else acc.enqueue) t0);
    select =
      (fun ~slot ~predicted_good ->
        let t0 = now () in
        let r = i.select ~slot ~predicted_good in
        add acc.select t0;
        acc.in_slot <- true;
        (match r with Some _ -> acc.select_hits <- acc.select_hits + 1 | None -> ());
        r);
    head =
      (fun f ->
        let t0 = now () in
        let r = i.head f in
        outcome_or_drain t0;
        r);
    complete =
      (fun ~flow ->
        let t0 = now () in
        i.complete ~flow;
        add acc.outcome t0);
    fail =
      (fun ~flow ->
        let t0 = now () in
        i.fail ~flow;
        add acc.outcome t0);
    drop_head =
      (fun ~flow ->
        let t0 = now () in
        i.drop_head ~flow;
        if not acc.in_slot then acc.drained <- acc.drained + 1;
        outcome_or_drain t0);
    drop_expired =
      (fun ~flow ~now:n ~bound ->
        let t0 = now () in
        let r = i.drop_expired ~flow ~now:n ~bound in
        add acc.drop_expired t0;
        r);
    on_slot_end =
      (fun ~slot ->
        let t0 = now () in
        i.on_slot_end ~slot;
        let t1 = now () in
        acc.slot_end.ns <- acc.slot_end.ns + (t1 - t0);
        acc.slot_end.calls <- acc.slot_end.calls + 1;
        acc.in_slot <- false;
        acc.last_end <- t1);
    handoff =
      Option.map
        (fun (h : Sched.handoff) ->
          {
            Sched.export =
              (fun ~flow ->
                let t0 = now () in
                let c = h.export ~flow in
                add acc.carry t0;
                c);
            import =
              (fun ~flow c ->
                let t0 = now () in
                let c = h.import ~flow c in
                add acc.carry t0;
                c);
          })
        i.handoff;
    quiescent =
      Option.map
        (fun (q : Sched.quiescent) ->
          {
            Sched.backlog_empty =
              (fun () ->
                let t0 = now () in
                let r = q.backlog_empty () in
                add acc.backlog_empty t0;
                r);
            advance_quiescent =
              (fun ~now:n ~slots ->
                let t0 = now () in
                let r = q.advance_quiescent ~now:n ~slots in
                add acc.quiescent t0;
                acc.q_requested <- acc.q_requested + slots;
                acc.q_absorbed <- acc.q_absorbed + r;
                r);
          })
        i.quiescent;
  }

(* Construct an instance with [make], timing it as [sched.make], and wrap it. *)
let make_traced acc make =
  let t0 = now () in
  let i = make () in
  add acc.make t0;
  wrap_sched acc i

(* Topologies resolve their scheduler by name, so a traced topology runs a
   registered wrapper entry.  [on_make] receives each fresh instance's
   accumulator; the topology calls [make] from sequential code only (spec
   construction and epoch barriers).  Only this benchmark's own process
   registers these entries, and nothing in it enumerates the registry. *)
let on_make : (sched_acc -> unit) ref = ref ignore

let traced_entry (e : Registry.entry) =
  let name = "wfsbench-traced:" ^ e.name in
  if not (Registry.mem name) then
    Registry.register
      {
        e with
        name;
        aliases = [];
        make =
          (fun ?credit_limit ?debit_limit ?limits flows ->
            let acc = sched_acc () in
            !on_make acc;
            make_traced acc (fun () -> e.make ?credit_limit ?debit_limit ?limits flows));
      };
  name

(* {1 Sources and channels} *)

type source_acc = {
  arrivals : span;
  next_event : span;
  mutable packets : int;
}

let source_acc () = { arrivals = span (); next_event = span (); packets = 0 }

(* [Arrival.never] sources stay unwrapped so [is_never] still holds and the
   simulator keeps skipping them. *)
let wrap_source acc src =
  if Arrival.is_never src then src
  else
    Arrival.make ~label:(Arrival.label src) ~mean_rate:(Arrival.mean_rate src)
      ~next_event:(fun pending ~from ~upto ->
        let t0 = now () in
        let e = Arrival.next_event src ~from ~upto in
        if e >= 0 then begin
          pending := Arrival.pending_count src;
          acc.packets <- acc.packets + !pending
        end;
        add acc.next_event t0;
        e)
      (fun slot ->
        let t0 = now () in
        let c = Arrival.arrivals src ~slot in
        add acc.arrivals t0;
        acc.packets <- acc.packets + c;
        c)

type channel_acc = {
  advance : span;
  bulk : span;
  mutable bulk_slots : int;
}

let channel_acc () = { advance = span (); bulk = span (); bulk_slots = 0 }

(* [make_const] channels stay unwrapped so [is_static] still holds.  The
   wrapper's [bulk lo hi] catches the wrapped channel up through [hi] with
   its own [advance_run], which draws exactly what stepping [lo..hi] would;
   the wrapper then steps the last slot through [advance]. *)
let wrap_channel acc ch =
  if Channel.is_static ch then ch
  else
    Channel.make ~label:(Channel.label ch) ~initial:(Channel.previous_state ch)
      ~bulk:(fun lo hi ->
        let t0 = now () in
        let s = Channel.advance_run ch ~from:lo ~slot:hi in
        add acc.bulk t0;
        acc.bulk_slots <- acc.bulk_slots + (hi - lo + 1);
        s)
      (fun slot ->
        let t0 = now () in
        let s = Channel.advance ch ~slot in
        add acc.advance t0;
        s)
