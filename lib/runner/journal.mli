(** Incremental checkpoint journal for sweeps — the [wfs-bench/1] schema's
    crash-recovery extension.

    A journal is a line-oriented file: one compact-JSON header line
    [{"schema":"wfs-bench/1-journal", ...params}] followed by one compact
    JSON object ([{"key":...,"value":...}]) per completed job, appended
    and flushed as each job finishes.  Keys are the sweep's dedup job keys
    (see {!Wfs_runner.Spec.to_string} and the bench's custom keys), so a
    killed sweep restarted with [--resume] skips exactly the jobs whose
    results survived.

    The framing is {!Wfs_util.Jsonl}'s: a torn final line (the one failure
    mode an interrupted append can cause) is dropped by {!load} and cut
    off by {!reopen}; corruption {e before} the last line is a typed
    [Bad_spec] error.

    Appends are mutex-serialized and flushed per line, so the writer can
    be shared by every worker domain of a {!Pool}. *)

val schema : string
(** ["wfs-bench/1-journal"] — the default schema.  Derived journal formats
    (e.g. {!Wfs_topo.Topo_journal}'s ["wfs-bench/1-topo-journal"] epoch
    snapshots) reuse this module's entry codec and flushed appends under
    their own schema string; a file is only ever readable under the
    schema it was written with. *)

type writer

val create :
  ?schema:string ->
  path:string ->
  params:(string * Wfs_util.Json.t) list ->
  unit ->
  writer
(** Truncate/create [path] and write the header line: the [schema] field
    (default {!schema}) plus [params] (the sweep settings the journal is
    only valid for — horizon, seed, ...). *)

val reopen : path:string -> writer
(** Open an existing journal for appending (header already present).  A
    torn final line — one {!load} drops — is cut off first, so the next
    entry starts on a line of its own. *)

val append : writer -> key:string -> value:Wfs_util.Json.t -> unit
(** Append one completed-job line and flush it. *)

val close : writer -> unit

type contents = {
  params : (string * Wfs_util.Json.t) list;  (** header minus [schema] *)
  entries : (string * Wfs_util.Json.t) list;
      (** completed jobs, file order, duplicates kept (last one wins for
          resumption — rerunning a job after a resume overwrites it) *)
}

val load :
  ?schema:string -> path:string -> unit -> (contents, Wfs_util.Error.t) result
(** Read a journal back under {!Wfs_util.Jsonl.load}, requiring its
    header schema to equal [schema] (default {!schema}).  A line is an
    entry when it has a string [key] and a [value]. *)

val resume :
  ?schema:string ->
  who:string ->
  path:string ->
  params:(string * Wfs_util.Json.t) list ->
  unit ->
  writer * contents
(** Open a journal for a resumable run.  When [path] does not exist it is
    {!create}d with [params] and the contents are empty.  Otherwise it is
    {!load}ed under [schema], its header params must equal [params] (key
    order ignored, values compared as compact JSON), and it is
    {!reopen}ed for appending; the loaded contents come back with the
    writer.
    @raise Wfs_util.Error.Error on a load failure, or (kind [Bad_spec],
    the caller's [who]) ["journal was written for different settings"]
    with [path], [journal] and [run] context when the params differ —
    resuming over it could resurrect results from another run. *)
