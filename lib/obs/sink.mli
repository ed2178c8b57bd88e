(** Bounded streaming writers for per-slot {!Trace} samples.

    Two formats over one interface: {!jsonl} writes the [wfs-trace/1]
    header line then one compact JSON line per sample; {!csv} writes a
    column-header row ([slot,selected,virtual_time,lag_sum] then
    [q{i},good{i},tag{i},credit{i}] per flow) and one comma row per
    sample, with optional quantities left as empty cells.  Memory use is
    O(1): each sample is formatted into a reused buffer and written out
    immediately, so traces of any horizon stream to disk.

    Both formats write numbers through {!Wfs_util.Json.add_int} and
    {!Wfs_util.Json.add_float}; the JSONL format is a
    {!Wfs_util.Jsonl.writer}, which formats each line with
    {!Wfs_util.Json.to_buffer} straight into its buffer, with no
    intermediate string.  Measured cost of an enabled per-slot probe
    into a JSONL sink (wfsbench [cell-observed --trace 1], 16 flows,
    4 000 samples, 2-core host, OCaml 5.1.1, dev profile): about 5 us
    per sample, sample construction included, and about 3 750 minor
    words per simulated slot for the whole traced run. *)

type t

val jsonl : path:string -> Trace.header -> t
(** Create/truncate [path] and write the header line. *)

val csv : path:string -> Trace.header -> t
(** Create/truncate [path] and write the CSV column header. *)

val write : t -> Trace.sample -> unit
(** Append one sample.
    @raise Wfs_util.Error.Error (kind [Bad_config]) on a closed sink or a
    sample whose flow count disagrees with the header. *)

val written : t -> int
(** Samples appended so far. *)

val close : t -> unit
(** Flush and close; idempotent. *)
