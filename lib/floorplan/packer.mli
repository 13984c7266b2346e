(** Search for a non-overlapping assignment of one feasible placement to
    every reconfigurable region.

    Both engines search the {!Placement.grid_candidates} universe on one
    occupancy primitive: a bitset of column x clock-region tiles, 63
    columns per word, whose per-word masks are derived from a rect's
    coordinates. *)

type engine =
  | Backtracking_v1
      (** First-fit greedy passes (fewest candidates first, then biggest
          demand first), then naive backtracking over the raw candidate
          arrays. One node per candidate the exact search looks at, free
          or not; [Unknown] once the count passes the node limit. The
          list-based search it reproduces — same verdicts, placements
          and node counts — is the test-only reference's [pack_v1]. *)
  | Column_interval
      (** Column-interval packer: a cross-call memo of
          dominance-pruned candidate arrays, tile-demand lower bounds,
          symmetry breaking over identical demands, an infeasible-suffix
          memo and a deterministic restart portfolio over several region
          orders. Searches the same candidate universe as
          [Backtracking_v1] and falls back to it on budget exhaustion, so
          verdicts never contradict v1 and are never less decisive —
          only [Unknown]s can be refined to decisive answers. *)

type outcome =
  | Placed of Placement.rect array
      (** one placement per input region, in input order *)
  | Infeasible  (** exhaustively proven: no packing exists *)
  | Unknown  (** node budget exhausted before a conclusion *)

type stats = {
  mutable fallbacks : int;  (** [Column_interval] calls that ran the v1 fallback *)
  mutable exact_nodes : int;  (** nodes of the restart portfolio *)
  mutable fallback_nodes : int;  (** nodes of the v1 fallback searches *)
}
(** Effort counters, accumulated by [pack ~stats]. *)

val new_stats : unit -> stats

val capacity_bounds_ok :
  Resched_fabric.Device.t -> Resched_fabric.Resource.t array -> bool
(** Cheap necessary conditions for a packing to exist: per-kind
    column x row tile budgets and a total-area bound over each region's
    minimal rectangular footprint. [false] is a proof of infeasibility;
    [true] promises nothing. Used by [Column_interval] as an early exit
    and by {!Floorplanner.quick_capacity_check}. *)

val pack : ?engine:engine -> ?node_limit:int -> ?stats:stats ->
  Resched_fabric.Device.t -> Resched_fabric.Resource.t array -> outcome
(** [pack device needs] searches for placements of all regions
    (default engine [Column_interval]). [node_limit] (default 200_000)
    bounds search nodes. [stats], when given, accumulates the
    [Column_interval] effort counters ([Backtracking_v1] leaves it
    untouched). Raises [Invalid_argument] if any requirement is zero. *)
