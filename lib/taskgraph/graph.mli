(** Directed acyclic task graphs.

    Nodes are dense integer identifiers [0 .. size-1]; an edge [(u, v)]
    means task [v] consumes data produced by task [u] and cannot start
    before [u] completes (Sec. III). The structure is mutable so that the
    scheduler can insert the ordering edges required when several tasks
    share a reconfigurable region or a processor (Sec. V-C/V-F); use
    [copy] to schedule without destroying the input graph. *)

type t

exception Cycle of int list
(** Raised by [topological_order] with (one of) the offending cycles,
    listed against the edge direction: each node has an edge to the one
    before it, and the first node to the last. *)

val create : int -> t
(** [create n] is an edgeless graph over [n] nodes. [n >= 0]. *)

val size : t -> int
val copy : t -> t

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts the edge [(u, v)]; duplicate insertions are
    ignored. Raises [Invalid_argument] on out-of-range nodes or self
    loops. Cycles are only detected by [topological_order]. *)

val has_edge : t -> int -> int -> bool
val succs : t -> int -> int list
(** Successors in insertion order. *)

val iter_succs : t -> int -> (int -> unit) -> unit
(** Apply a function to every successor without allocating the reversed
    list {!succs} builds. Iteration order is unspecified (currently
    newest insertion first). *)

val succs_rev : t -> int -> int list
(** The successor list in reverse insertion order, {e shared} with the
    graph (never mutate it). Allocation-free counterpart of {!succs} for
    hot read-only loops whose result does not depend on edge order. *)

val preds : t -> int -> int list

val preds_rev : t -> int -> int list
(** Dual of {!succs_rev}: the predecessor list in reverse insertion
    order, shared with the graph (never mutate it). *)

val edge_count : t -> int
val edges : t -> (int * int) list
(** All edges, ordered by source node. *)

val sources : t -> int list
(** Nodes without predecessors. *)

val sinks : t -> int list
(** Nodes without successors. *)

val topological_order : t -> int array
(** A topological order of all nodes. Raises {!Cycle} if the graph has a
    directed cycle. *)

val is_acyclic : t -> bool

val reachable : t -> int -> bool array
(** [reachable g u] marks every node reachable from [u] (including [u]). *)

val mark_reachable : t -> int -> bool array -> unit
(** [mark_reachable g u mark] sets [mark.(v)] for every [v] reachable
    from [u] (including [u]), skipping nodes already marked — so
    repeated calls on the same array accumulate a union of descendant
    sets without revisiting shared subgraphs. The array must have one
    slot per node. *)

val mark_coreachable : t -> int -> bool array -> unit
(** Dual of {!mark_reachable} along predecessor edges: accumulates the
    ancestors of [u] (including [u]). *)

type closure
(** Transitive closure of a DAG, packed as a bitset; answers
    reachability pairs in O(1) after one O(V*E/w) construction. *)

val closure : t -> closure
(** Snapshot of the graph's reachability relation. Raises {!Cycle} on
    cyclic graphs. The snapshot does not follow later edge insertions. *)

type closure_buf
(** Reusable backing store for {!closure_with} — the bitset plus the
    Kahn scratch arrays, grown on demand and recycled across calls so a
    restart loop can take one closure per iteration without touching
    the minor heap. *)

val make_closure_buf : unit -> closure_buf

val closure_with : closure_buf -> t -> closure
(** Like {!closure}, but (re)using [buf]'s storage. The returned
    closure {e aliases} the buffer: it is only valid until the next
    [closure_with] call on the same buffer. Answers are identical to
    {!closure}'s. *)

val in_closure : closure -> int -> int -> bool
(** [in_closure c u v] iff [v] was reachable from [u] (including
    [u = v]) when the closure was taken; agrees with
    [(reachable g u).(v)]. *)

val restore : from:t -> t -> unit
(** [restore ~from g] resets [g] to the exact edge set of [from]
    (a graph over the same node count, typically the pristine graph [g]
    was [copy]ed from) without reallocating [g]'s arrays. *)

val pp : Format.formatter -> t -> unit
