(** Monolithic ILP formulation of the whole scheduling problem, after
    Redaelli et al. [8] (the paper's related work): implementation
    selection, mapping to processors or to sized reconfigurable region
    slots, task and reconfiguration timing with a single controller and
    reconfiguration prefetching — all in one mixed-integer program solved
    by {!Resched_milp.Branch_bound}.

    The paper dismisses this line of work because "the resulting
    complexity of the ILP formulation makes the approach not viable even
    for small problem instances"; the [viability] bench section
    reproduces exactly that observation. On 2-4 task instances the model
    proves optimality and must agree with {!Optimal} (tested); beyond a
    handful of tasks the branch-and-bound hits its node budget.

    Model summary (one binary per task-option, slots sized by the
    implementations routed to them):
    - y_{t,c}: task t uses option c (SW on processor p | HW impl i on
      slot s); Σ_c y = 1
    - res_{s,r} >= res_{i,r} y_{t,(i,s)}; Σ_s res_{s,r} <= maxRes_r
    - continuous start/reconfiguration-start times with big-M
      disjunctions driven by shared order binaries o_{t,t'}
    - per-slot "first task" indicators make the initial configuration
      free, matching the repository-wide semantics
    - minimize the makespan.

    Decisions are extracted from the MILP solution and re-timed with the
    repository's integer longest-path semantics, so the returned schedule
    always passes {!Resched_core.Validate} regardless of floating-point
    noise in the solve. *)

type result = {
  schedule : Resched_core.Schedule.t;
  ilp_objective : float;  (** the MILP's (continuous-time) makespan *)
  proved_optimal : bool;
  nodes : int;  (** branch-and-bound nodes *)
  vars : int;
  constraints : int;
}

val solve : ?node_limit:int -> ?time_limit:float -> ?max_slots:int ->
  ?jobs:int -> Resched_platform.Instance.t -> result option
(** [solve inst] builds and solves the ILP. [max_slots] (default
    [min 4 n]) bounds the number of reconfigurable region slots offered
    to the model; [node_limit] defaults to 100_000; [time_limit] (seconds)
    makes the solve anytime; [jobs] (default 1) parallelizes the
    branch-and-bound over a domain pool. [None] when the
    branch-and-bound found no integer solution within the budget. *)

val formulate : ?max_slots:int -> Resched_platform.Instance.t ->
  Resched_milp.Lp.t * (float array -> Resched_core.Schedule.t)
(** The model [solve] builds, and the decoder that turns an integer
    solution's values into the re-timed schedule [solve] returns. For
    reporting the formulation's size and for solving it with another
    MILP solver. *)
