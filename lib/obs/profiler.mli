(** Slot-phase self-profiler over a monotonic clock.

    {!hooks} produces the {!Wfs_core.Simulator.profiler_hooks} pair; the
    simulator calls them around each phase of each slot (arrivals,
    predict, drops, select, transmit, slot-end).  The hooks only read the
    clock and store into preallocated per-phase arrays — no allocation per
    call — but a clock read per phase is still real overhead, so
    profiling is strictly opt-in and never on in measurement runs.

    The clock is bechamel's [CLOCK_MONOTONIC] stub — durations only,
    never wall-clock time (lint R1); nothing derived from it enters a
    result table.  A profiler instance is single-domain: share one per
    worker, not one across workers. *)

type t

val create : unit -> t

val hooks : t -> Wfs_core.Simulator.profiler_hooks
(** Phase hooks bound to this accumulator.  Pass to
    [Simulator.config ~profiler] / [Mac_sim.config ~profiler]. *)

val phase_table : ?title:string -> slots:int -> t -> Wfs_util.Tablefmt.t
(** Per-phase calls / total ms / ns-per-call / ns-per-slot / max, plus an
    [all] summary row; [slots] is the simulated slot count the per-slot
    column divides by. *)
