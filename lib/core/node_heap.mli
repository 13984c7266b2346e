(** Binary min-heap of graph nodes [0 .. capacity-1] on int keys, with
    O(1) membership: the work queue of the change-pruned longest-path
    settles ({!State.refresh_windows}, {!Timing.Solver.insert}). A node
    is in the heap at most once, and its key is fixed when it is pushed;
    pushing a member again is a no-op. Allocation-free once created. *)

type t

val create : int -> t
(** An empty heap for nodes [0 .. n-1]. *)

val ensure : t -> int -> unit
(** Make room for nodes [0 .. n-1]; a heap that grows is emptied. *)

val is_empty : t -> bool

val push : t -> int -> int -> unit
(** [push h x key] adds [x] with [key] unless [x] is already in [h]. *)

val pop : t -> int
(** Remove and return a node of minimum key. The heap must not be
    empty. *)

val clear : t -> unit
