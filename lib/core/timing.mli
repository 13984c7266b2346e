(** Timing resolution over the augmented graph.

    Steps 5-7 of the paper compute start/end times and propagate delays
    procedurally; here the committed decisions (implementations, region
    and processor ordering edges, reconfiguration sequence on the single
    controller) are compiled into one DAG whose longest path yields every
    start time at once. This is equivalent to the paper's propagation but
    is independently checkable and cannot leave a stale time behind. *)

type reconf_spec = {
  region_id : int;
  t_in : int;  (** task executed before the reconfiguration *)
  t_out : int;  (** task whose bitstream is loaded *)
  dur : int;  (** [reconf_s] of the hosting region *)
  critical : bool;  (** the outgoing task was critical at extraction *)
}

type resolved = {
  task_start : int array;
  task_end : int array;
  rec_start : int array;  (** indexed like the [reconfigs] argument *)
  rec_end : int array;
  makespan : int;
}

val reconf_specs : ?module_reuse:bool -> State.t -> reconf_spec array
(** One reconfiguration per consecutive task pair inside each region
    (Sec. V-G), in region order; pairs whose implementations share a
    [module_id] are skipped when [module_reuse] is set. Criticality is
    taken from the state's current windows. *)

val must_precede_closure :
  Resched_taskgraph.Graph.closure -> reconf_spec -> reconf_spec -> bool
(** Dependency-forced ordering between two reconfigurations: [a] must
    run before [b] when [a]'s outgoing task (transitively) precedes
    [b]'s ingoing task, or they share a region in that order. Answered
    in O(1) from a {!Resched_taskgraph.Graph.closure} of the state's
    augmented dependency graph (valid while no further edges are
    inserted). *)

(** Earliest-start times for the sequencing loop of step 7, kept
    current as the controller chain grows: the augmented graph and
    durations are compiled once per state ({!Solver.reload}), one full
    longest-path pass times the empty chain ({!Solver.start}), and each
    {!Solver.insert} re-times only what linking one reconfiguration into
    the chain moves. Since an insertion only adds a path that dominates
    the chain edge it replaces, times only rise, and the result is
    bit-identical to a full pass over the same sequence. *)
module Solver : sig
  type t

  val of_plan : graph:Resched_taskgraph.Graph.t -> durations:int array ->
    reconfigs:reconf_spec array -> t
  (** Compile an explicit precedence graph over the task nodes (one
      [durations] entry per node) plus the reconfiguration nodes
      described by [reconfigs], each wired after its ingoing and before
      its outgoing task. The solver snapshots the graph: it must not
      outlive further mutations of it. *)

  val resolve : ?release:int array -> t -> sequence:int list -> resolved
  (** Earliest-start times subject to the compiled precedences and the
      total [sequence] (indices into [reconfigs]) on the reconfiguration
      controller; reconfigurations not in [sequence] are only
      constrained by their region. Raises
      {!Resched_taskgraph.Graph.Cycle} if the sequence contradicts the
      dependencies. [release] (length task nodes + reconfiguration nodes, default all
      zero) gives a per-node earliest start: no activity begins before
      its release time, on top of every precedence constraint. The
      arrays of the result are owned by the solver and overwritten by
      the next [resolve], {!start} or {!insert}; callers must copy
      whatever they retain. *)

  val scratch : unit -> t
  (** An empty reusable solver: {!reload} it before resolving. One
      scratch solver per restart arena turns the per-iteration
      {!of_plan} compilation into an allocation-free refill once its
      buffers have grown to the instance's high-water mark. *)

  val reload : t -> State.t -> reconfigs:reconf_spec array -> unit
  (** Recompile the solver in place for the state's current augmented
      graph and durations (what {!of_plan} builds from them, minus the
      allocations). The solver's arrays may be longer than the compiled
      problem; all passes are bounded by the compiled sizes. Results
      are bit-identical to a freshly compiled solver's. *)

  val start : t -> unit
  (** Empty the controller chain and time it with one full pass: the
      base of a sequence of {!insert}s. Read the times with {!times}. *)

  val insert : t -> prev:int -> k:int -> next:int -> unit
  (** Link spec [k] (not yet in the chain) between its sequence
      neighbours [prev] and [next] ([-1] at either end of the chain;
      [next] must follow [prev]) and bring every time up to date by an
      increase-only relaxation from [k]: the times equal {!resolve}'s
      over the grown sequence. Raises {!Resched_taskgraph.Graph.Cycle}
      if the insertion contradicts the dependencies; the chain must then
      be restarted. Allocation-free. *)

  val times : t -> resolved
  (** The current times. The arrays are the solver's own and stay live:
      every later {!insert} updates them in place, and [makespan] is a
      snapshot taken at this call. *)
end
