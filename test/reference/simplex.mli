(** The LP/MILP oracle: a dense two-phase primal simplex for the
    continuous relaxation of a {!Resched_milp.Lp.t} model, and a plain
    branch-and-bound over it.

    Dense tableau with Bland's anti-cycling rule; every finite upper
    bound becomes an extra row, and nothing is warm-started. Slow by
    design: the production engines ({!Resched_milp.Revised},
    {!Resched_milp.Branch_bound}) are checked against it. *)

type solution = Resched_milp.Lp.solution = {
  objective : float;
  values : float array;  (** one value per model variable, in index order *)
}

type result = Resched_milp.Lp.result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Limit  (** the iteration cap or the [deadline] cut the solve short *)

val solve : Resched_milp.Lp.t -> result
(** Solve the continuous relaxation (integrality markers are ignored). *)

val solve_with_bounds : ?deadline:float -> Resched_milp.Lp.t ->
  lb:float array -> ub:float array -> result
(** Like {!solve} but overriding every variable's bounds. Array lengths
    must equal [Lp.num_vars]. [deadline] is an absolute
    [Unix.gettimeofday] instant past which the solve gives up with
    [Limit]. *)

val branch_bound : ?node_limit:int -> ?time_limit:float ->
  ?integrality_tolerance:float -> Resched_milp.Lp.t ->
  Resched_milp.Branch_bound.result
(** Best-first branch-and-bound over {!solve_with_bounds}, branching on
    the most fractional integer variable (down child first on equal
    bounds). One node per LP solved; [node_limit] (default 1_000_000),
    [time_limit] (seconds) and [integrality_tolerance] (default 1e-6)
    as in {!Resched_milp.Branch_bound.solve}. *)
