(** Line-oriented JSON artifacts: the one framing every JSONL schema uses.

    A JSONL artifact is a header line [{"schema":S,...}] followed by one
    compact {!Json} object per line.  The [wfs-trace/1],
    [wfs-xray-trace/1], [wfs-causality/1], [wfs-windows/2],
    [wfs-chaos/1-timeline] streams and the [wfs-bench/1-journal] /
    [wfs-bench/1-topo-journal] checkpoint journals are all written by
    {!create} with {!append} (or {!append_with}, for a typed encoder) or
    by {!write}, and read by {!load}.  The schema modules own only their
    header fields and line codecs.

    {b Torn-tail rule.}  A writer appends whole lines, so the one failure
    an interrupted run (a kill mid-write, a full disk) can leave is a
    {e torn final line}.  {!load} therefore drops an undecodable final
    line and keeps every line before it.  An undecodable line {e followed
    by} another line was not produced by an interrupted writer: the file
    is refused, since silently dropping its tail could resurrect stale or
    foreign results.  A line that decodes but contradicts its header (a
    sample wider than the header's flow count, an entry naming a cell the
    header does not have) is refused wherever it sits.  {!reopen} applies
    the same rule before it appends, so a resumed file never glues a new
    line onto a torn fragment.

    {b Errors.}  Every refusal is kind [Bad_spec] with the calling
    loader's [who] and a [path] context.  The texts derive from the
    schema: [empty <schema> file (no header)], [unreadable header],
    [header is not a <schema> header] and [corrupt line before end of
    file] (with [line], plus [detail] when the line is not JSON at all);
    a missing or unreadable file carries the system's message. *)

(** {1 Headers} *)

val header : schema:string -> (string * Json.t) list -> Json.t
(** [{"schema":schema}] followed by the given fields, in their order. *)

val fields_of_header : schema:string -> Json.t -> (string * Json.t) list option
(** The header's fields minus [schema], in file order, when the value is
    an object whose [schema] field equals [schema]; [None] otherwise. *)

(** {1 Writing} *)

type writer
(** An output channel plus one reused line buffer: each line is
    formatted straight into the buffer, by {!Json.to_buffer} or a typed
    encoder ({!append_with}), and written with one output call. *)

val create : path:string -> schema:string -> (string * Json.t) list -> writer
(** Create or truncate [path] and write the {!header} line. *)

val create_bare : path:string -> writer
(** Create or truncate [path] with no header line: for a scratch file of
    lines that the writing program reads back itself (the x-ray mux's
    per-cell parts), never for an artifact {!load} reads. *)

val reopen : path:string -> keep:(Json.t -> bool) -> writer
(** Open an existing file for appending, first applying the torn-tail
    rule to its final line: unless that line is the header, or is JSON
    that [keep] accepts, the file is cut back to the end of the line
    before it.  A kept final line that lacks its newline gets one.  Pass
    the same acceptance test the line decoder given to {!load} applies,
    so the file afterwards holds exactly what {!load} returned. *)

val append : writer -> Json.t -> unit
(** Write one compact line.  Buffered: call {!flush} when the line must
    survive a kill. *)

val append_with : writer -> (Buffer.t -> 'a -> unit) -> 'a -> unit
(** [append_with w add x] writes the line [add] formats for [x] into the
    writer's cleared buffer: a typed encoder's path to the same framing,
    with no {!Json.t} in between.  [add] must write one compact JSON
    value and no newline. *)

val flush : writer -> unit
val close : writer -> unit

val close_noerr : writer -> unit
(** Flush and close, ignoring errors: for cleanup on a failure path. *)

val write :
  path:string ->
  schema:string ->
  (string * Json.t) list ->
  ('a -> Json.t) ->
  'a list ->
  unit
(** Create [path], write the header, one line per item, and close. *)

(** {1 Reading} *)

type 'a line =
  | Decoded of 'a
  | Undecodable  (** JSON, but not a line of this schema: dropped when
                     last, refused otherwise *)
  | Not_json of string
      (** not JSON at all, with {!Json.of_string}'s message: dropped when
          last, refused otherwise with the message as [detail] *)
  | Contradicts of string
      (** contradicts the header: always refused, with this text *)

val decoded : 'a option -> 'a line
(** [Some x] is [Decoded x], [None] is [Undecodable]. *)

val tree : ('h -> Json.t -> 'a line) -> 'h -> string -> 'a line
(** The line decoder of a schema that reads a parsed tree: [Not_json]
    when {!Json.of_string} refuses the line, otherwise the tree
    decoder's verdict. *)

val refused : string -> 'a line
(** The verdict on a line a typed decoder could not read: [Not_json]
    when {!Json.of_string} refuses it, [Undecodable] otherwise.  A typed
    decoder that returns this for every line it cannot read, and decodes
    only lines {!Json.of_string} accepts, classifies every line as
    {!tree} over the equivalent tree decoder would. *)

val load :
  who:string ->
  schema:string ->
  path:string ->
  header:((string * Json.t) list -> 'h option) ->
  line:('h -> string -> 'a line) ->
  ('h * 'a list, Error.t) result
(** Stream [path] line by line: check the header's schema, decode the
    other header fields with [header] ([None] means not a [schema]
    header), then hand each further line's text, without its newline, to
    [line] and apply the torn-tail rule above to its verdict.  Typed
    decoders read the text directly; tree decoders go through {!tree}.
    The decoded lines come back in file order. *)
