(** The [wfs-windows/2] tumbling-window aggregation stream — the
    measurement bus the future [wfs_ric] controller subscribes to.

    The collector is {!Wfs_core.Fairness}'s eq.-(1) window collector,
    re-exported here next to the stream's file codec: each window records
    its Jain index and normalized-service gap over the flows backlogged
    at every observation of the window ([flows] of them), and its
    arrival / delivery / drop / backlog / loss deltas.  Single-cell runs
    feed it every slot through {!observer}; a topology feeds it at epoch
    barriers via [Wfs_topo.Topology.peek_metrics]. *)

val schema : string
(** ["wfs-windows/2"] *)

type window = Wfs_core.Fairness.window = {
  index : int;
  start_slot : int;
  end_slot : int;
  flows : int;
  jain : float;
  gap : float;
  arrivals : int;
  delivered : int;
  dropped : int;
  backlog : int;
  loss : float;
}

val window_to_json : window -> Wfs_util.Json.t
val window_of_json : Wfs_util.Json.t -> window option
val window_to_string : window -> string

val window_of_string : string -> window option
(** Bit-exact round-trip of {!window_to_string} (qcheck-verified). *)

val window_equal : window -> window -> bool
(** Floats compare by total order. *)

(** {1 In-run collector} (re-exported from {!Wfs_core.Fairness}) *)

type t = Wfs_core.Fairness.t

val create : weights:float array -> window:int -> t
val observe : t -> slot:int -> metrics:Wfs_core.Metrics.t -> unit
val flush : t -> slot:int -> metrics:Wfs_core.Metrics.t -> unit
val windows : t -> window list
val observer : t -> int -> Wfs_core.Metrics.t -> unit

(** {1 File round-trip} *)

type contents = { window : int; windows : window list }

val write : path:string -> window:int -> window list -> unit

val load : path:string -> (contents, Wfs_util.Error.t) result
(** {!Wfs_util.Jsonl.load}: torn final line dropped; mid-file corruption,
    a missing header, a wrong schema tag (a [wfs-windows/1] file
    included) or a [window] below 1 yield [Error]. *)
