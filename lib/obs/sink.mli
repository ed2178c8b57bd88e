(** Bounded streaming writers for per-slot {!Trace} samples.

    Two formats over one interface: {!jsonl} writes the [wfs-trace/1]
    header line then one compact JSON line per sample; {!csv} writes a
    column-header row ([slot,selected,virtual_time,lag_sum] then
    [q{i},good{i},tag{i},credit{i}] per flow) and one comma row per
    sample, with optional quantities left as empty cells.  Memory use is
    O(1): each sample is formatted into a reused buffer and written out
    immediately, so traces of any horizon stream to disk.

    Both formats write numbers through {!Wfs_util.Json.add_int} and
    {!Wfs_util.Json.add_float}.  The JSONL format is a
    {!Wfs_util.Jsonl.writer}: {!Trace.add_sample} formats each sample
    straight into the writer's buffer ({!Wfs_util.Jsonl.append_with}),
    with no {!Wfs_util.Json.t} and no intermediate string.  Measured cost
    of an enabled per-slot probe into a JSONL sink (wfsbench
    [cell-observed --trace 1], seed 40, 16 flows, 4 000 samples per
    repeat, 2-core host, OCaml 5.1.1, dev profile): about 1.9 us per
    sample, sample construction included ([obs.probe_s] 0.0075 s per
    repeat), and about 760 minor words per simulated slot for the whole
    traced run, the reload of the trace included. *)

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
