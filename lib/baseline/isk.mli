(** IS-k — the iterative scheduling baseline (Deiana et al. [6],
    Sec. II/VII of the reproduced paper).

    Tasks are committed in topological order, k at a time; each chunk is
    scheduled optimally with respect to the already-committed prefix
    ({!Chunk_dfs}). IS-1 and IS-5 are the configurations the paper
    evaluates. As in the paper, IS-k exploits module reuse (a feature PA
    deliberately lacks), and validates its region set with the
    floorplanner, virtually shrinking the FPGA on failure exactly like
    PA. *)

type config = {
  k : int;
  chunk_node_limit : int;  (** branch-and-bound budget per chunk *)
  module_reuse : bool;  (** default true: [6] supports module reuse *)
  floorplan_cache : Resched_floorplan.Fp_cache.t option;
      (** when set, the shrink-retry loop consults this shared cache
          instead of calling the backtracking floorplanner directly *)
  max_attempts : int;
  shrink_factor : float;
}

val config : k:int -> config
(** Defaults: 200_000 nodes per chunk, module reuse on, no floorplan
    cache, 8 attempts, shrink 0.9. *)

type stats = {
  chunks : int;
  nodes : int;  (** branch-and-bound nodes over all chunks and attempts *)
  every_chunk_optimal : bool;
  attempts : int;
  scheduling_seconds : float;
  floorplanning_seconds : float;
  cache_stats : Resched_floorplan.Fp_cache.stats option;
      (** this run's cache activity ({!Resched_floorplan.Fp_cache.diff}
          of the shared cache's counters around the run); [None] when no
          cache is configured or for {!schedule_once} *)
}

val schedule_once : ?config:config -> ?resource_scale:float ->
  Resched_platform.Instance.t -> Resched_core.Schedule.t * stats
(** One pass without the floorplan check. *)

val run : ?config:config -> Resched_platform.Instance.t ->
  Resched_core.Schedule.t * stats
(** Full IS-k with floorplan validation and the shrink-retry loop;
    falls back to the all-software schedule after [max_attempts]. *)
