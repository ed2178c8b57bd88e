(** Packetized fair queueing: WFQ, WF²Q and WF²Q+ as one engine.

    The three disciplines share per-flow FIFOs and one selection rule;
    they differ only in where the virtual start/finish tags come from and
    whether an eligibility test gates selection.

    - {!Wfq} (PGPS — Demers, Keshav & Shenker 1989): tags are the GPS
      fluid tags stamped at arrival ({!Gps.arrive}); every head is
      eligible.  Parekh–Gallager (the paper's Lemma 1): a packet finishes
      no later than [L_max / C] after its fluid finish instant.
    - {!Wf2q} (Bennett & Zhang 1996): GPS tags as for WFQ, but a head is
      eligible only once its fluid service would have begun, [S <= v(t)].
      A flow is then never ahead of its fluid service by more than one
      packet.  WPS uses WF²Q ordering as its slot-spreading rule (Section
      7 of the wireless paper).
    - {!Wf2q_plus} (Bennett & Zhang 1997): no fluid simulation.  Tags are
      stamped at the head of line — [S = max(V, F_prev)] on arrival to an
      empty queue, [S = F_prev] on a head change, [F = S + L/r] — and the
      self-clocked virtual time advances per served packet and jumps to
      the earliest backlogged start: [V <- max(V + L/Σr, min S_i)].
      Eligibility [S <= V] as for WF²Q.

    Every discipline serves the eligible head with the smallest finish
    tag, falls back to the smallest start tag when no head is eligible
    (which exact arithmetic never needs; it keeps the server
    work-conserving under rounding), and breaks exact ties to the lowest
    flow id.  [dequeue] never raises on an empty engine: emptiness is an
    expected state, reported as [None]. *)

type discipline = Wfq | Wf2q | Wf2q_plus

type t

val create : discipline -> capacity:float -> Flow.t array -> t
(** Flows must have ids [0 .. n-1] in order.
    @raise Invalid_argument otherwise or on non-positive capacity. *)

val enqueue : t -> Job.t -> unit
(** Called in non-decreasing order of [Job.arrival].
    @raise Invalid_argument on an out-of-range flow id. *)

val dequeue : t -> time:float -> Job.t option
(** The next job to put on the wire at [time]; [None] iff none is queued. *)

val queued : t -> int
(** Jobs waiting (excludes the one in service). *)

val gps : t -> Gps.t
(** The fluid reference fed by {!Wfq} and {!Wf2q} arrivals, exposed so
    tests can compare packetized and fluid service on identical inputs.
    Idle under {!Wf2q_plus}. *)

val virtual_time : t -> float
(** {!Wf2q_plus}'s self-clocked virtual time (0 under the GPS-tagged
    disciplines, whose virtual time is {!gps}'s). *)
