(** Fairness measures for scheduler comparisons.

    The paper's fairness definition (equation 1) requires the {e normalised
    service} [W_i(t1,t2)/r_i] of continuously backlogged flows to be equal
    over any interval.  This module measures how far a packetized, errored
    schedule deviates from that ideal:

    - {!jain} — Jain's fairness index over per-flow normalised service
      (1 = perfectly fair, 1/n = maximally unfair);
    - {!max_normalized_gap} — the worst pairwise
      [|W_i/r_i − W_j/r_j|] over an interval, the quantity equation (1)
      sets to zero;
    - a tumbling-window collector ({!t}) that scores both per window of a
      live run, over exactly the flows equation (1) constrains: those
      backlogged at every observation of the window. *)

val jain : float array -> float
(** Jain's index [(Σx)² / (n·Σx²)] over non-negative values; 1.0 for an
    empty or all-zero array (vacuously fair). *)

val max_normalized_gap : weights:float array -> service:float array -> float
(** Worst pairwise normalised-service difference.  Arrays must have equal
    length ≥ 1. *)

(** {1 Tumbling eq.-(1) windows}

    A collector watches the run's {e cumulative} {!Metrics} accumulator
    and closes a window each time the observation position crosses a
    tumbling boundary.  A flow is in a window's {e scope} when its
    {!Metrics.backlog_remaining} was positive at every observation that
    fell in the window; [jain] and [gap] cover the scope only, and
    [flows] says how large it was.  Single-cell runs observe every slot
    ({!observer}); a topology observes at its epoch barriers, so there the
    scope is judged on the barrier observations alone, and when sampling
    is sparser than the window length [start_slot] / [end_slot] record
    the span actually covered. *)

type window = {
  index : int;
  start_slot : int;  (** inclusive *)
  end_slot : int;  (** exclusive *)
  flows : int;  (** flows backlogged at every observation of the window *)
  jain : float;  (** Jain index of the scope's weight-normalized service; 1 under 2 flows *)
  gap : float;  (** eq-(1) max normalized-service gap over the scope; 0 under 2 flows *)
  arrivals : int;
  delivered : int;
  dropped : int;
  backlog : int;  (** total queued packets at window end (not a delta) *)
  loss : float;  (** window drops / window arrivals; 0 when no arrivals *)
}

type t

val create : weights:float array -> window:int -> t
(** [weights] are the flows' rate weights (flow-id indexed; the
    normalization denominators).
    @raise Wfs_util.Error.Error (kind [Bad_config]) when [window < 1],
    the weight array is empty, or any weight is not positive. *)

val observe : t -> slot:int -> metrics:Metrics.t -> unit
(** Feed the cumulative accumulator at the end of [slot].  Slots must be
    nondecreasing across calls; gaps are fine (barrier sampling).
    Allocates only when it closes a window. *)

val flush : t -> slot:int -> metrics:Metrics.t -> unit
(** Observe [slot] and close the trailing partial window at end of run
    (no-op when nothing accumulated since the last boundary). *)

val windows : t -> window list

val observer : t -> int -> Metrics.t -> unit
(** Adapter with the {!Simulator.config} observer shape.  Attaching an
    observer degenerates the fast path; topology runs observe at
    barriers instead and stay compressed. *)

type summary = {
  sampled : int;  (** windows with at least two flows in scope *)
  mean_jain : float;  (** mean of their [jain] *)
  worst_gap : float;  (** largest of their [gap], in packets per unit weight *)
}

val summary : window list -> summary option
(** The run-level figure over the windows whose scope holds at least two
    flows; [None] when there are none (nothing for equation 1 to
    constrain). *)
