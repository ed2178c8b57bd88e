(** Epoch-granular checkpoint journal for multi-cell runs — the
    ["wfs-bench/1-topo-journal"] derived schema of {!Wfs_runner.Journal}
    (same entry codec and flushed appends, and the {!Wfs_util.Jsonl}
    framing with its torn-tail rule; only the header schema differs).

    A topology's full simulation state is closure-held (live scheduler
    instances, channel processes) and cannot be serialized, so resume is
    {e verified deterministic replay} rather than state restoration.  The
    journal records, per spec:

    - one {b snapshot} line per completed epoch barrier
      ([<spec> #epoch:<slot>] → {!Topology.snapshot}), and
    - one {b result} line when the spec's run completes
      ([<spec> #result] → whatever payload the driver needs to render).

    A resumed driver replays each completed spec's result verbatim; a
    spec that was killed mid-run is re-run from slot 0 — and so is a
    completed one when the caller asks for per-run artifacts that only a
    run produces (trace, causality log, windows stream), without a second
    result line.  On a re-run every barrier
    that already has a journaled snapshot is {e verified} against the
    replay (compact-JSON equality) — a mismatch means the journal was
    written under different settings or code and is refused rather than
    silently extended.  Barriers past the journal's tail are appended as
    the replay overtakes it, so a run killed and resumed at an arbitrary
    epoch converges on a journal byte-identical to an uninterrupted
    run's.

    Header [params] must capture every setting that changes the run
    (credit/debit overrides, invariants — {e not} [jobs], which is
    output-invariant by construction); {!resume} compares them before
    trusting a journal. *)

val schema : string
(** ["wfs-bench/1-topo-journal"] *)

type contents = {
  params : (string * Wfs_util.Json.t) list;  (** header minus [schema] *)
  snapshots : (string * (int * Wfs_util.Json.t) list) list;
      (** per spec (first-appearance order), barrier snapshots ascending
          by slot; duplicate (spec, slot) lines keep the last *)
  results : (string * Wfs_util.Json.t) list;
      (** completed specs, first-appearance order *)
}

val load : path:string -> (contents, Wfs_util.Error.t) result
(** {!Wfs_runner.Journal.load} under this schema, then key parsing:
    [Error] (kind [Bad_spec]) additionally on a structurally valid line
    whose key is not [<spec> #epoch:<n>] or [<spec> #result]. *)

val find_snapshot :
  contents -> spec:string -> slot:int -> Wfs_util.Json.t option

val find_result : contents -> spec:string -> Wfs_util.Json.t option

(** {1 The resume protocol}

    What a topology run does with its journal ([Topo_run] drives it):
    {!replayed} answers whether a spec can be replayed without running;
    otherwise the run calls {!barrier} at every epoch barrier and
    {!finish} when it completes. *)

type t
(** An open journal: the entries it held when it was opened, plus an
    append handle (flushed per line). *)

val resume : path:string -> params:(string * Wfs_util.Json.t) list -> t
(** {!Wfs_runner.Journal.resume} under {!schema}: create the journal when
    [path] is absent, otherwise load it (key parsing as {!load}), require
    its header [params], and reopen it for appending (a torn final line
    is cut off first).
    @raise Wfs_util.Error.Error (kind [Bad_spec]) on a load failure,
    an unrecognized key, or ["journal was written for different
    settings"]. *)

val close : t -> unit

val replayed : t -> spec:string -> Wfs_util.Json.t option
(** The spec's [#result] payload, when the journal held one at {!resume}. *)

val barrier : t -> spec:string -> slot:int -> Wfs_util.Json.t -> unit
(** One completed epoch barrier's snapshot.  When the journal held a
    snapshot for ([spec], [slot]) it is verified (compact-JSON equality)
    and nothing is written; otherwise the snapshot is appended.
    @raise Wfs_util.Error.Error (kind [Bad_spec], who
    [Topo_journal.barrier]) ["topo journal diverges from replay"], with
    [spec], [slot], [journal] and [replay] context. *)

val finish : t -> spec:string -> Wfs_util.Json.t -> unit
(** Append the spec's [#result] line — unless the journal already held
    one, so re-running a finished spec never writes a second. *)
