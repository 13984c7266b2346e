(** Step 6 — software task mapping (Sec. V-F).

    Binds every software task to a processor core. Tasks are visited in
    chronological order ([T_MIN] ascending); each goes to the processor
    with the smallest induced delay λ_p (eq. 8 — implemented as
    [max(0, max_{t2 ∈ T_p} T_END_{t2} - T_MIN_t)]; the paper's [min] is a
    typo, see DESIGN.md), and an ordering edge from the processor's last
    task propagates any delay through the task graph (eq. 9 / step 4). *)

val run : ?incremental:bool -> State.t -> unit
(** Mutates [processor_of], the dependency graph and the windows.
    [incremental] (default [true]) resolves the already-ordered test for
    each (task, assigned) pair from incrementally maintained descendant
    and ancestor marks instead of two reachability DFS per pair — the
    decisions, inserted edges and resulting schedule are bit-identical
    (property-tested); [false] keeps the pairwise-DFS formulation,
    which the test-only reference pipeline uses. *)

val delay : State.t -> task:int -> last_end:int -> int
(** λ_p for a processor whose currently-last task ends at [last_end]. *)
