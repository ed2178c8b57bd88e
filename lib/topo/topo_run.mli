(** Run topology specs end to end: the entry behind [wfs_sim --cells].

    {!run} builds each spec's {!Topology}, wires the optional per-run
    artifacts into it (the merged x-ray trace through a {!Cell.tap} into a
    {!Wfs_xray.Mux}, the causality log, barrier-sampled
    {!Wfs_xray.Windowed} fairness windows), drives it on the domain pool,
    and writes the artifacts.  With [resume] it follows the
    {!Topo_journal} protocol: a spec whose result is journaled is replayed
    without running — unless per-run artifacts are requested, which only
    a run can produce — and a spec that runs has every journaled barrier
    verified and every later one appended.  Output is byte-identical for
    every [jobs] value. *)

type t = {
  metrics : Wfs_core.Metrics.t;
  homes : int array;  (** final home cell per global flow id *)
  n_cells : int;
  handoffs : int;
  instruments : Wfs_obs.Instruments.t;  (** per-cell registries merged *)
  chaos : Wfs_obs.Instruments.t option;  (** with an active fault plan *)
  timeline : Wfs_chaos.Chaos.event list;  (** [[]] without a plan *)
}
(** Everything one finished topology run contributes to a rendered table
    — also the payload of its journal [#result] line. *)

val to_json : t -> Wfs_util.Json.t

val of_json : Wfs_util.Json.t -> t option
(** Inverse of {!to_json}: [of_json (to_json r)] re-encodes to the same
    compact JSON. *)

type artifacts = {
  trace_out : string option;  (** merged [wfs-xray-trace/1] JSONL *)
  trace_csv : string option;  (** the same timeline as CSV *)
  trace_stride : int;  (** sample every N-th slot *)
  causality : string option;  (** [wfs-causality/1] log *)
  windows : string option;  (** [wfs-windows/2] stream, barrier-sampled *)
  window_slots : int;  (** tumbling-window length *)
}
(** The per-run artifacts: each needs a run of its own, so none can come
    from a journaled result. *)

val no_artifacts : artifacts
(** Every path [None] (stride 1, 1000-slot windows). *)

val run :
  ?credit_limit:int ->
  ?debit_limit:int ->
  ?invariants:bool ->
  ?fast_path:bool ->
  ?artifacts:artifacts ->
  ?resume:string ->
  ?fault_timeline:string ->
  jobs:int ->
  Wfs_runner.Spec.t list ->
  (t, Wfs_util.Error.t) result list
(** Run every spec in order, one outcome per spec.  [credit_limit] and
    [debit_limit] (default 4), [invariants] and [fast_path] (default off)
    go to {!Topology.of_spec} and are the params a [resume] journal is
    stamped with and checked against.  A spec that fails with a typed
    error (worker-fault budget exceeded, invariant violation, a journaled
    barrier that diverges from the replay) loses only itself: its outcome
    is [Error], and any partial trace part files are removed.
    [fault_timeline] receives the [wfs-chaos/1-timeline] of every spec
    that succeeded, keyed by its spec string.
    @raise Invalid_argument when per-run artifacts are requested for
    other than exactly one spec, or a spec has no topology clause or an
    unknown scheduler
    @raise Wfs_util.Error.Error (kind [Bad_spec]) when the [resume]
    journal cannot be used (see {!Topo_journal.resume}), or a journaled
    result that would be replayed does not decode (who [Topo_run.run],
    ["unreadable topo-journal result"]). *)
