(** Per-flow wireless channel abstraction.

    A channel is the error process seen by one flow: in each slot it is
    either [Good] (a transmission would succeed) or [Bad] (a transmission
    would be corrupted).  The paper's key premise is that these states are
    location-dependent — each flow owns an independent channel — and bursty.

    A channel is advanced exactly once per slot by the simulator; the state
    for the current slot can then be read repeatedly ({!state}), and the
    previous slot's state remains available for one-step prediction
    ({!previous_state}). *)

type state = Good | Bad

val state_is_good : state -> bool

type t

val make :
  label:string -> ?initial:state -> ?bulk:(int -> int -> state) -> (int -> state) -> t
(** [make ~label step] wraps [step], called once per slot with the slot
    index to produce that slot's state.  [initial] (default [Good]) seeds
    {!previous_state} for slot 0's prediction.

    [bulk lo hi], when given, must be observationally equivalent to calling
    [step] on every slot of [lo..hi] in order and returning the last state
    — identical RNG draws in the identical order, just without a closure
    call per slot.  {!advance_run} uses it to replay unobserved spans; the
    qcheck stream-equivalence suite pins each implementation to its
    [step]. *)

val make_const : label:string -> state -> t
(** [make_const ~label st] is a channel that is statically known to stay in
    state [st] forever (its seed {!previous_state} is also [st]).  Such a
    channel reports {!is_static} [true]: once advanced at least once, every
    later {!advance} is a no-op observationally, so a simulator may advance
    it a single time and skip the per-slot call afterwards. *)

val is_static : t -> bool
(** [true] only for channels built with {!make_const}. *)

val advance : t -> slot:int -> state
(** Draw the state for [slot].  Must be called with strictly increasing
    slot indices, exactly once per slot. *)

val advance_run : t -> from:int -> slot:int -> state
(** Catch a channel up across a span it was not observed in: equivalent to
    calling {!advance} at [from, from+1, ..., slot] — the same draws in the
    same order (via the [bulk] hook when the process supplies one), with
    {!state} and {!previous_state} left as the last two slots' states.
    The event-compressed simulator calls this at the first observation
    after a quiescent window, and at the end of every advance window so no
    lazily-deferred draws outlive an epoch barrier.
    @raise Invalid_argument unless [last advanced < from <= slot]. *)

val state : t -> state
(** State of the most recently advanced slot.
    @raise Invalid_argument before the first {!advance}. *)

val previous_state : t -> state
(** State of the slot before the most recently advanced one (the seed state
    before slot 0) — the information a one-step predictor works from. *)

val label : t -> string
