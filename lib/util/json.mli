(** JSON tree, writer and reader: the codec of every artifact schema.

    Bench artifacts ([BENCH_*.json]), [wfs-trace/1] samples, x-ray
    windows, causality and mux streams, run and topology journals, chaos
    fault timelines and instrument artifacts are all written and read
    through this module.  Objects, arrays, strings (with escapes), ints,
    floats, bools, null.  The writer and reader round-trip each other
    exactly: floats are printed with the shortest decimal form that
    restores the same bits.  No external dependency.

    The writer appends to a caller-owned [Buffer.t] ({!to_buffer}), so a
    streaming sink formats each line into one reused buffer with no
    intermediate string; numbers are written digit by digit without the
    [Printf] interpreter.

    The reader is one lexer, {!Cursor}, with two clients: {!of_string},
    which builds a tree, and typed line decoders that read fields
    straight off a cursor with no tree (the [wfs-trace/1] samples and
    [wfs-xray-trace/1] entries, see [Wfs_obs.Trace] and [Wfs_xray.Mux]).
    Both accept the same grammar and fail with the same text.  A cursor
    allocates only for strings that contain escapes, for the float values
    it returns, and for a number token off its fast paths (see
    {!Cursor.int} and {!Cursor.float}), which costs one [String.sub] and
    OCaml's own conversion.  {!of_string} allocates the tree on top, and
    a [String.sub] per unescaped string. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** {1 Numbers}

    The one number writer, shared by {!to_buffer}, {!float_to_string},
    the typed trace sample encoder ([Wfs_obs.Trace]) and the trace CSV
    writers ([Wfs_obs.Sink], [Wfs_xray.Mux]). *)

val add_int : Buffer.t -> int -> unit
(** Append the decimal form of an int; the bytes of [string_of_int]. *)

val add_float : Buffer.t -> float -> unit
(** Append the shortest decimal that parses back to the same float: an
    integral value below [1e15] in magnitude as the integer and [".0"]
    ([-0.0] keeps its sign), anything else as [%.12g] when that restores
    the bits and [%.17g] otherwise.  The bytes are those of
    [Printf.sprintf] with those conversions; non-finite values print as
    [inf], [-inf] and [nan], which are not JSON (see {!of_float_ext}). *)

val add_float_ext : Buffer.t -> float -> unit
(** {!add_float} for a finite value, otherwise the JSON string ["nan"],
    ["inf"] or ["-inf"]: the bytes {!to_buffer} writes for
    {!of_float_ext}. *)

val float_to_string : float -> string
(** {!add_float} into a fresh string. *)

(** {1 Writing and reading} *)

val to_buffer : ?pretty:bool -> Buffer.t -> t -> unit
(** Append the document to the buffer.  [pretty] (default true) adds a
    newline and two-space indentation before every member and closing
    bracket of a non-empty container, and a space after each key's colon;
    [~pretty:false] writes one line with no whitespace. *)

val to_string : ?pretty:bool -> t -> string
(** {!to_buffer} into a fresh string. *)

val of_string : string -> (t, string) result
(** Parse a JSON document; [Error] carries a message with a character
    offset.  Accepts everything {!to_string} emits, with arbitrary
    whitespace between tokens.  It is more lenient than JSON in a few
    places: numbers follow OCaml's [int_of_string]/[float_of_string], so
    [+5], [007], [.5] and [1.] are read as numbers, and control bytes may
    appear unescaped inside strings.  It is stricter in others: a [\u]
    escape takes exactly four hex digits and must name an ASCII
    character, and a number that overflows to an infinite float is
    rejected. *)

(** {1 Pull reading}

    A cursor walks one document in place.  Typed reads raise
    {!Cursor.Mismatch} when the next value is well-formed but of another
    type; they then leave the cursor after that value, as if it had been
    skipped.  Malformed input raises an exception private to this module,
    which {!Cursor.parse} turns into [None]; {!of_string} is the client
    to ask for the error text. *)

module Cursor : sig
  type t

  exception Mismatch

  val parse : (t -> 'a) -> string -> 'a option
  (** [parse read s] runs [read] on a cursor at the start of [s] and then
      requires only whitespace to remain.  [None] when [read] raises
      {!Mismatch} or the input is malformed anywhere up to the point
      [read] stopped.  So [Some _] implies [of_string s] is [Ok _] when
      [read] consumes exactly one value. *)

  val obj_first : t -> string array -> int
  (** Enter an object ({!Mismatch} for any other value).  At its first
      member's value, the index in the array of that member's key, or
      [-1] for a key not in it; past the closing brace of [{}],
      {!obj_end}.  Keys are compared in place, and escaped keys by their
      decoded text.  The array's strings must hold no quote or backslash.
      Each member's key is first tried against the entry after the last
      one matched, so members in the array's order are found at once. *)

  val obj_more : t -> string array -> int
  (** After a member's value: as {!obj_first}, for the next member. *)

  val obj_end : int
  (** [-2]: the object has no more members. *)

  val key : t -> string array -> int
  (** The index in the array of the key of the member just entered, or
      [-1]: what {!obj_first} or {!obj_more} returned, against another
      array.  Valid until the member's value is read. *)

  val arr_first : t -> bool
  (** Enter an array ({!Mismatch} for any other value): [false] past the
      closing bracket of [[]], otherwise [true] at the first item. *)

  val arr_more : t -> bool
  (** After an item: [true] at the next item, [false] past the closing
      bracket. *)

  val skip : t -> unit
  (** Read and validate one value of any type, building nothing. *)

  val int : t -> int
  (** An [Int] value, as {!to_int}: a token with no [.], [e] or [E].  One
      of an optional [-] and digits worth less than [1e18] is read as it
      is scanned; any other goes to [int_of_string]. *)

  val float : t -> float
  (** A [Float] or [Int] value, as {!to_float}: an int token reads as its
      int, so [-0] is [0.0].  A float token of an optional [-] and digits
      with one [.], at least one digit, at most 15 significant digits, at
      most 22 after the point and no exponent is read as it is scanned
      and converted by one division of two exact floats (Clinger's fast
      path), which rounds as [float_of_string] does; any other goes to
      [float_of_string]. *)

  val float_ext : t -> float
  (** As {!float}, or the strings ["nan"], ["inf"], ["-inf"], as
      {!to_float_ext}. *)

  val optional : (t -> 'a) -> t -> 'a option
  (** [Some] of a typed scalar read, [None] on {!Mismatch}: the accessor
      semantics of an optional field ([Option.bind (member k v) to_int]). *)
end

(** {1 Accessors} *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing field or non-object. *)

val to_int : t -> int option
val to_float : t -> float option
(** Accepts [Int] too (JSON does not distinguish 3 from 3.0). *)

val to_str : t -> string option
val to_list : t -> t list option

(** {1 Non-finite-safe floats}

    JSON has no nan/inf literals; these helpers encode non-finite floats
    as the strings ["nan"] / ["inf"] / ["-inf"] so serializers of
    possibly-degenerate statistics (empty {!Wfs_util.Stats.Summary}
    min/max, unbounded slack) still round-trip exactly. *)

val of_float_ext : float -> t
val to_float_ext : t -> float option
(** Accepts [Int] too, like {!to_float}. *)
