(** A paper-literal, list-based rendering of PA steps 3-7 (Secs. V-C to
    V-G) and of the PA and PA-R restart loops (Sec. V-H, Sec. VI), kept
    as the oracle the production restart kernel ({!Resched_core.Pa}) is
    compared against.

    Every step works on a fresh {!Resched_core.State.t}, builds plain
    lists, sorts with [List.stable_sort], answers dependency queries
    with a fresh graph traversal, replaces the windows with a full
    {!Resched_taskgraph.Cpm.compute} pass after every mutation
    ({!Resched_core.State.load_windows}) and re-times the controller
    sequence from scratch. It is slow and allocation-heavy by design; for the
    same inputs it must produce bit-identical schedules. *)

open Resched_core

(** {1 The pipeline steps} *)

val regions_define : ?module_reuse:bool ->
  ordering:Regions_define.ordering -> State.t -> unit
(** Step 3 (Sec. V-C): critical hardware tasks by efficiency index,
    then the non-critical ones in [ordering], each reusing the
    cheapest-bitstream compatible region, opening a new one, or falling
    back to software. *)

val sw_balance : State.t -> unit
(** Step 4 (Sec. V-D): software tasks owning a hardware implementation,
    lowest window start first, move back to the first region that hosts
    their cheapest fitting implementation once they start after
    [totRecTime] (eq. 6). *)

val sw_map : State.t -> unit
(** Steps 5-6 (Secs. V-E, V-F): software tasks by window start, each on
    the processor that delays it least, ordered against that
    processor's tasks by a pairwise DFS. *)

val resolve : State.t -> reconfigs:Timing.reconf_spec array ->
  sequence:int list -> Timing.resolved
(** Earliest-start times from one CPM pass over a freshly built graph:
    the augmented dependency edges, each reconfiguration between its
    ingoing and outgoing task, and the controller chain over
    [sequence]. Raises [Graph.Cycle] if the sequence contradicts the
    dependencies. *)

val must_precede : State.t -> Timing.reconf_spec -> Timing.reconf_spec ->
  bool
(** Dependency-forced order between two reconfigurations, from a fresh
    traversal of the augmented graph. *)

val reconf_sched : ?module_reuse:bool -> State.t ->
  Timing.reconf_spec array * int list
(** Step 7 (Sec. V-G): the reconfiguration specs and the controller
    sequence (indices into the specs, execution order). *)

(** {1 Whole schedulers} *)

val schedule_once : ?config:Pa.config -> ?resource_scale:float ->
  Resched_platform.Instance.t -> Schedule.t
(** Steps 1-7 over a fresh state: what {!Pa.schedule_once} returns. *)

val run : ?config:Pa.config -> Resched_platform.Instance.t ->
  Schedule.t * int
(** PA's shrink-retry loop over {!schedule_once}, falling back to an
    all-software schedule: the schedule {!Pa.run} returns, and the
    number of attempts it made. *)

val run_random : ?config:Pa.config -> ?cache:Resched_floorplan.Fp_cache.t ->
  seed:int -> min_iterations:int -> Resched_platform.Instance.t ->
  Pa_random.outcome
(** Algorithm 1 for exactly [min_iterations] restarts over
    {!schedule_once}, with the same adaptive resource-scale lattice and
    floorplan-check policy as {!Pa_random.run} at [budget_seconds = 0.]:
    the same iterations, best schedule and improvement trace. [elapsed]
    stamps and [minor_words] measure this loop. *)

(** {1 Floorplan} *)

val candidates : Resched_fabric.Device.t -> Resched_fabric.Resource.t ->
  Resched_floorplan.Placement.rect list
(** The sliding-window enumeration on allocated resource vectors, sorted
    with a polymorphic comparator: what
    {!Resched_floorplan.Placement.grid_candidates} returns, as a list. *)

val prune_dominated : Resched_floorplan.Placement.rect list ->
  Resched_floorplan.Placement.rect list
(** The quadratic dominance prune: drops every candidate containing an
    earlier kept one. What
    {!Resched_floorplan.Placement.prune_dominated} returns. *)

val pack_v1 : node_limit:int -> Resched_fabric.Device.t ->
  Resched_fabric.Resource.t array -> Resched_floorplan.Packer.outcome
(** The list-based v1 packer: greedy first-fit passes, then backtracking
    that scans the placed rects for overlap, over {!candidates}. What
    [Packer.pack ~engine:Backtracking_v1] returns, placements and node
    accounting included. *)
