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
    [Printf] interpreter.  Apart from the tree, the reader allocates only
    for strings that contain escapes and for number tokens other than an
    optional [-] and 1-18 digits. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** {1 Numbers}

    The one number writer, shared by {!to_buffer}, {!float_to_string}
    and the trace CSV writers ([Wfs_obs.Sink], [Wfs_xray.Mux]). *)

val add_int : Buffer.t -> int -> unit
(** Append the decimal form of an int; the bytes of [string_of_int]. *)

val add_float : Buffer.t -> float -> unit
(** Append the shortest decimal that parses back to the same float: an
    integral value below [1e15] in magnitude as the integer and [".0"]
    ([-0.0] keeps its sign), anything else as [%.12g] when that restores
    the bits and [%.17g] otherwise.  The bytes are those of
    [Printf.sprintf] with those conversions; non-finite values print as
    [inf], [-inf] and [nan], which are not JSON (see {!of_float_ext}). *)

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
