(** Non-preemptive single-link server driver for {!Fair_queue}.

    Feeds a time-ordered arrival trace to a scheduler and simulates a link
    of fixed capacity serving one packet at a time: whenever the link is
    free the scheduler chooses the next packet, which then occupies the link
    for [size / capacity].  Produces per-packet completion records used by
    tests (Lemma-1 style bounds) and benches. *)

type completion = {
  job : Job.t;
  start : float;  (** instant service began *)
  finish : float;  (** instant the last bit left the link *)
}

val run :
  capacity:float -> Fair_queue.t -> Job.t list -> completion list
(** [run ~capacity sched jobs] simulates until all jobs complete; [jobs]
    need not be sorted (they are sorted by arrival, ties by list order).
    Completions are returned in service order. *)

val delays_by_flow : completion list -> (int * float list) list
(** Per-flow lists of [finish − arrival] delays, in service order,
    flows sorted by id. *)

val throughput_by_flow :
  completion list -> until:float -> (int * float) list
(** Bits delivered per flow among completions with [finish <= until]. *)
