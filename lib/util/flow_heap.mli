(** Min-heap over flow ids keyed by a float tag, with lazy invalidation.

    Built for scheduler selection: "the flow with the smallest tag among
    those a predicate accepts", where ties break toward the {e lowest flow
    id} — the paper's deterministic tie-break, and exactly the flow a naive
    ascending-id scan keeping the first strictly smaller tag returns.

    Tag changes push a fresh entry and invalidate the old one lazily via a
    per-flow version counter; stale entries are discarded as they surface
    and the store is compacted when they dominate, so space stays O(live)
    amortized and each operation costs O(log live) amortized.
    {!min_accept} is allocation-free (returns [-1] for "none"). *)

type t

val create : n:int -> t
(** A heap over the flow-id universe [0..n-1], initially empty. *)

val set : t -> flow:int -> tag:float -> unit
(** Insert [flow], or update its tag if already present. *)

val remove : t -> flow:int -> unit
(** Remove [flow]; no-op if absent. *)

val mem : t -> flow:int -> bool
val cardinal : t -> int

val min : t -> int
(** The member with the smallest (tag, id); [-1] when empty. *)

val min_accept : t -> accept:(int -> bool) -> int
(** The smallest (tag, id) member satisfying [accept]; [-1] if none.
    Costs O((rejected + stale) · log live).  [accept] must not mutate this
    heap. *)
