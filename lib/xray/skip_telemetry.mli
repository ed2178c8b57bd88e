(** Rendering for {!Wfs_core.Skip_stats} collectors — the explanation of
    the eventcomp speedups in table form: how many quiescent windows the
    compressed engine absorbed in closed form, how long they were, and
    what fraction of simulated time never touched the per-slot loop. *)

val to_table : ?title:string -> Wfs_core.Skip_stats.t -> Wfs_util.Tablefmt.t
(** Two-column metric/value table: engine vs reference slots, absorbed /
    declined windows, window length percentiles, quiescence ratio, and
    whether the run stayed fully compressed. *)

val merge_all : Wfs_core.Skip_stats.t list -> Wfs_core.Skip_stats.t option
(** Left fold of {!Wfs_core.Skip_stats.merge}; [None] on an empty list.
    Merge in unit order so multi-run aggregates are jobs-invariant. *)
