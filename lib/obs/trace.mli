(** The [wfs-trace/1] per-slot time-series format.

    A trace is line-oriented: one JSON header line carrying the schema tag,
    flow count, sampling stride and free-form run parameters, then one
    compact JSON object per {e sampled} slot.  Optional per-scheduler
    quantities (virtual time, finish tags, credit balances, the global lag
    sum) are encoded by field {e presence} — a scheduler that exposes no
    virtual time produces no [vt] key, and absence must not be read as
    zero.  The format streams: writers ({!Sink}) append a line per sample
    and never hold the series in memory.  The framing (header line,
    torn-tail rule) is {!Wfs_util.Jsonl}'s. *)

val schema : string
(** ["wfs-trace/1"] *)

type flow_sample = {
  queue : int;  (** queue depth at end of slot *)
  good : bool;  (** true channel state this slot *)
  tag : float option;  (** scheduler finish/service tag, if exposed *)
  credit : int option;  (** credit balance, if exposed *)
}

type sample = {
  slot : int;
  selected : int option;  (** flow transmitted, [None] on an idle slot *)
  virtual_time : float option;
  lag_sum : int option;  (** global lag sum, if exposed (CIF-Q) *)
  flows : flow_sample array;
}

type header = {
  n_flows : int;
  stride : int;  (** every [stride]-th slot is sampled *)
  params : (string * Wfs_util.Json.t) list;  (** free-form run metadata *)
}

val header :
  ?stride:int -> ?params:(string * Wfs_util.Json.t) list -> n_flows:int -> unit -> header
(** Defaults: stride 1, no params.
    @raise Wfs_util.Error.Error (kind [Bad_config]) when [n_flows < 1],
    [stride < 1], or a param reuses a reserved name ([schema] / [n_flows]
    / [stride]). *)

val header_fields : header -> (string * Wfs_util.Json.t) list
(** The header line's fields after [schema]: [n_flows], [stride], then
    the params. *)

val header_to_json : header -> Wfs_util.Json.t
val header_of_json : Wfs_util.Json.t -> header option
val header_to_string : header -> string
(** The header line (compact JSON, no trailing newline). *)

(** {1 Sample lines}

    A sample is written and read straight from its fields, with no
    {!Wfs_util.Json.t} in between, in the compact form
    [{"slot":..,"sel":..,"vt":..,"lag":..,"flows":[{"q":..,"g":0|1,"tag":..,"cr":..},..]}]
    where [sel], [vt], [lag], [tag] and [cr] appear only when present and
    a non-finite [vt] or [tag] is the string ["nan"], ["inf"] or ["-inf"].
    Reading then writing restores every float bit for bit. *)

val add_sample : Buffer.t -> sample -> unit
(** Append the sample's compact JSON object, without a newline. *)

val add_sample_members : Buffer.t -> sample -> unit
(** {!add_sample} without the braces: the members, comma-separated, for
    a line that carries more fields ([Wfs_xray.Mux] prepends [cell]). *)

val read_sample :
  ?other:(Wfs_util.Json.Cursor.t -> unit) -> Wfs_util.Json.Cursor.t -> sample
(** Read one sample object off the cursor.  Members may come in any order
    with any whitespace.  The first occurrence of a key counts and later
    ones are skipped.  A missing or mistyped [slot], [flows], [q] or [g],
    or a flow that is not an object, raises
    {!Wfs_util.Json.Cursor.Mismatch}; a mistyped optional field reads as
    absent, and an [Int] is read where a float is expected.  Each member
    whose key is not a sample key is handed to [other] (default: skip),
    which must consume its value. *)

val sample_of_line : string -> sample option
(** One line holding exactly one sample object, as {!read_sample} reads
    it; [None] otherwise. *)

val flow_equal : flow_sample -> flow_sample -> bool
val sample_equal : sample -> sample -> bool
(** Floats compare by total order, so [nan] round-trips as equal. *)

val header_equal : header -> header -> bool

type contents = { hdr : header; samples : sample list }

val load : path:string -> (contents, Wfs_util.Error.t) result
(** Parse a trace file under {!Wfs_util.Jsonl.load}'s torn-tail rule.  A
    sample whose flow count disagrees with the header contradicts it and
    is refused wherever it sits. *)
