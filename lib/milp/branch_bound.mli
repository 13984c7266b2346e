(** Branch-and-bound MILP solver.

    Best-LP-bound-first search. Each node is solved with the
    bounded-variable revised simplex ({!Revised}), warm-started from the
    parent's basis (a child differs by one bound, so a few dual pivots
    suffice), and branching follows pseudo-costs seeded by strong
    branching at the root. The test suites keep a dense-tableau,
    most-fractional branch-and-bound as the oracle this solver is
    checked against.

    One search loop serves every [jobs]: per-worker best-first heaps on
    a domain pool with work stealing and a CAS-updated shared incumbent.
    [jobs = 1] is the one-worker case: it runs on the calling domain,
    spawns nothing and is deterministic run-to-run. With [jobs > 1] node
    counts are nondeterministic, but the returned objective agrees with
    the one-worker solve whenever the search completes.

    Exact when it terminates within the node budget; otherwise returns
    the incumbent with [proved_optimal = false] (the behaviour the IS-k
    baseline relies on for large chunks). An LP relaxation cut short by
    its iteration cap or the deadline ({!Lp.Limit}) marks the search
    exhausted — it is never treated as an infeasibility proof, so
    unsolved subtrees can no longer be silently pruned. *)

type solution = {
  objective : float;
  values : float array;
  proved_optimal : bool;
  nodes : int;  (** LP relaxations solved *)
}

type result =
  | Optimal of solution  (** [proved_optimal] is true *)
  | Feasible of solution  (** node budget hit with an incumbent *)
  | Infeasible
  | Unbounded
  | Node_limit  (** node budget hit before any integer solution *)

val solve : ?node_limit:int -> ?time_limit:float ->
  ?integrality_tolerance:float -> ?jobs:int -> Lp.t -> result
(** [node_limit] defaults to 1_000_000; [time_limit] (wall-clock seconds,
    default unlimited) turns the solver into an anytime procedure;
    [integrality_tolerance] to 1e-6; [jobs] (default 1) to the number of
    worker domains. Integer variables must have finite bounds. *)

val is_integral : ?tolerance:float -> Lp.t -> float array -> bool
(** Do the given values satisfy all the model's integrality markers? *)
