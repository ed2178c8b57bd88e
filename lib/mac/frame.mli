(** Slot and frame structures of the Section-6 MAC protocol.

    Time is divided into frames of logical slots.  A {e data} slot carries a
    control sub-slot of four mini-slots (three channel-good flags from the
    flows pre-announced for the next slots, plus the base station's final
    pick), a data sub-slot and an ack sub-slot.  A {e control} slot carries
    a notification sub-slot (contention mini-slots for newly backlogged
    uplink flows) and an advertisement sub-slot.  The control "flow"
    <0, downlink, 0> is scheduled like a unit-weight, always-backlogged,
    error-free data flow; when it wins a slot the MAC emits a control slot
    instead. *)

type direction = Uplink | Downlink

type flow_addr = {
  host : int;  (** mobile host id; the base station is not a host *)
  direction : direction;
  index : int;  (** per-host flow index *)
}

val control_addr : flow_addr
(** The distinguished control flow <0, downlink, 0>. *)

val addr_equal : flow_addr -> flow_addr -> bool
(** Field-wise equality on addresses (typed; no runtime structural compare). *)

val is_control : flow_addr -> bool
val pp_addr : Format.formatter -> flow_addr -> unit

type slot_kind =
  | Data_slot of { flow : int }  (** internal flow id scheduled to transmit *)
  | Control_slot

val notification_minislots : int
(** Mini-slots in a control slot's notification sub-slot (default 4,
    mirroring the data slot's control sub-slot). *)
