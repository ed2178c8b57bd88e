(** Packets.

    The paper assumes small fixed-size packets, one per slot (Sections 4
    and 6); [size] is carried in bits for the variable-size wireline
    substrate (lib/wireline), where WFQ-family tags divide by it. *)

type t = {
  flow : int;
      (** owning flow id — the routing key a scheduler's [enqueue] reads
          to pick the queue.  Nothing reads it after [enqueue], so a packet
          handed over whole at a topology barrier
          ([Wfs_core.Wireless_sched.queues]) may keep a stale local id. *)
  seq : int;  (** per-flow sequence number, from 0 *)
  arrival : int;  (** arrival slot *)
  size : int;  (** bits; 1 in the slotted wireless model *)
  mutable attempts : int;  (** transmission attempts so far *)
}

val make : flow:int -> seq:int -> arrival:int -> ?size:int -> unit -> t
(** Fresh packet with [attempts = 0]; default [size] 1. *)

val delay : t -> departed:int -> int
(** Queueing delay in slots if delivered in slot [departed] (a packet
    delivered in its arrival slot has delay 0). *)

val age : t -> now:int -> int
(** Slots spent in the system so far. *)

val pp : Format.formatter -> t -> unit
