(** Plain-text table rendering for the benchmark harness.

    Produces aligned, pipe-separated tables mirroring the layout of the
    paper's result tables so measured and published rows can be eyeballed
    side by side. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a caption row and the given column headers. *)

val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells; longer rows
    are truncated. *)

val title : t -> string
val columns : t -> string list

val rows : t -> string list list
(** Added rows in insertion order, already padded/truncated to the header
    width — the shape serialized into the bench's JSON artifact. *)

val render : t -> string
val print : t -> unit

val cell_of_float : ?decimals:int -> float -> string
(** One formatted float cell: [decimals] (default 2) places, integers
    without a fractional part, [nan] as [-]. *)

val cell_of_samples : ?decimals:int -> float list -> string
(** One cell for a replicated measurement: {!cell_of_float} of the value
    for a single sample, ["mean±ci"] (95% Student-t half-width,
    {!Stats.Summary.ci95}) across several. *)
