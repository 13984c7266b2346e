(** Mutable working state shared by the scheduler's pipeline steps.

    Holds the current implementation choice per task, the *augmented*
    dependency graph (application edges plus the ordering edges inserted
    when tasks share a reconfigurable region or a processor), the set of
    reconfigurable regions built so far, and the CPM time windows, which
    must be refreshed after any change ({!refresh_windows}).

    A state can be recycled across the restart iterations of the
    randomized scheduler: {!reset} restores every mutable part to the
    just-created picture while reusing the existing arrays and graph
    storage (see {!Pa.Context}). *)

module Graph = Resched_taskgraph.Graph
module Cpm = Resched_taskgraph.Cpm

type region = {
  id : int;
  res : Resched_fabric.Resource.t;
  bits : float;  (** [bit_s] (eq. 1) *)
  reconf : int;  (** [reconf_s] in ticks (eq. 2) *)
  mutable tasks : int list;  (** assigned tasks, kept sorted by [t_min] *)
}

type scratch
(** Reusable workspaces for allocation-free pipeline steps: CPM buffers
    + durations for window refreshes, plus size-[n] int/float/bool
    arrays the steps borrow for sorting and marking. *)

val sc_tasks : scratch -> int array
(** Size-[n] int workspace. Contents are clobbered by any pipeline step
    that borrows it; never hold it across a step. *)

val sc_keys : scratch -> float array
(** Size-[n] unboxed float workspace (sort keys). Same borrowing rule
    as {!sc_tasks}. *)

val sc_flags : scratch -> bool array
(** Size-[n] bool workspace. Same borrowing rule as {!sc_tasks}. *)

val sc_mark : scratch -> bool array
(** Second size-[n] bool workspace (also the cycle-guard mark array —
    any {!assign_to_region} clobbers it). Same borrowing rule. *)

type t = {
  inst : Resched_platform.Instance.t;
  max_res : Resched_fabric.Resource.t;
      (** virtually reduced FPGA availability for this attempt *)
  cost : Cost.t;
  impl_of : int array;  (** current implementation index per task *)
  dep : Graph.t;  (** augmented dependency graph (owned copy) *)
  mutable regions_arr : region array;
      (** region slots; only the first [nregions] entries are live.
          Prefer {!iter_regions}/{!nth_region}/{!region_list}. *)
  mutable nregions : int;  (** regions created so far *)
  mutable used : Resched_fabric.Resource.t;
      (** running sum of all regions' requirements *)
  region_of : int array;  (** region id or -1 *)
  processor_of : int array;  (** processor id or -1 *)
  mutable cpm : Cpm.t;
      (** windows for the current durations/graph. {!refresh_windows}
          recycles one set of CPM arrays, so the record is only valid
          until the next refresh (copy what must survive). *)
  scratch : scratch;
}

val create : Resched_platform.Instance.t -> ?resource_scale:float ->
  ?cost:Cost.t -> ?base_cpm:Cpm.t -> impl_of:int array -> unit -> t
(** Fresh state with the given initial implementation selection; windows
    are computed immediately from the initial durations (no placeholder
    pass). [resource_scale] (default 1.0) virtually scales the device's
    [maxRes] (floorplan-retry rule, Sec. V-H). [cost] and [base_cpm]
    share already-computed iteration-invariant values (the cost weights
    for this [max_res], and the CPM of the unaugmented graph under the
    initial durations); when omitted they are computed here. A shared
    [base_cpm] is never mutated — window refreshes never write into its
    arrays. *)

val reset : t -> impl_of:int array -> base_cpm:Cpm.t -> unit
(** Restore the state to what [create] with the same arguments would
    build — initial implementations, pristine dependency graph, no
    regions, no processor assignments, base windows — reusing the
    existing arrays and adjacency storage instead of reallocating.
    [impl_of] and [base_cpm] must correspond to this state's
    [max_res]/[cost] (they come from the same {!Pa.Context} entry). *)

val impl : t -> int -> Resched_platform.Impl.t
(** The currently selected implementation of a task. *)

val duration : t -> int -> int

val is_hw : t -> int -> bool
(** Is the currently selected implementation a hardware one? *)

val hw_impls : t -> int -> (int * Resched_platform.Impl.t) list
(** [Instance.hw_impls] for this state's instance, answered from a list
    cached at creation (same contents, no allocation). *)

val refresh_windows : t -> unit
(** Recompute CPM windows for the current durations and augmented graph. *)

val t_min : t -> int -> int
val t_max : t -> int -> int

val regions : t -> region list
(** Regions in creation order (allocates one list per call). *)

val iter_regions : t -> (region -> unit) -> unit
(** Apply a function to every region in creation order without
    allocating the list {!regions} builds. *)

val nth_region : t -> int -> region
(** Region by creation index, O(1). Raises [Invalid_argument] when out
    of range. *)

val scratch_of : t -> scratch
(** This state's scratch workspaces. *)

val region_count : t -> int

val used_resources : t -> Resched_fabric.Resource.t
(** Sum of the resource requirements of all regions created so far;
    maintained incrementally, O(1). *)

val fits_on_fpga : t -> Resched_fabric.Resource.t -> bool
(** Would a new region with the given requirement still fit [max_res]
    next to the existing regions? O(1) against the running total. *)

val new_region : t -> Resched_fabric.Resource.t -> region
(** Create a region sized for the given requirement (eqs. 1-2 fix its
    bitstream and reconfiguration time). Does not check capacity. O(1)
    append. *)

val assign_to_region : t -> task:int -> region -> unit
(** Place the task on the region: records the placement, inserts the
    region-ordering edges dictated by the current windows, keeps the
    region's task list sorted by [t_min], and refreshes the windows.
    Raises [Invalid_argument] if the insertion would create a dependency
    cycle (callers must have checked window compatibility). *)

val switch_to_sw : t -> task:int -> unit
(** Select the task's fastest software implementation and refresh the
    windows. *)

val switch_to_hw : t -> task:int -> impl_idx:int -> region -> unit
(** Software-balancing move (Sec. V-D): adopt the given hardware
    implementation and place the task on [region]. *)

val region_list : t -> region array
(** Regions in creation order. *)

val find_region : t -> int -> region
(** Region by id; raises [Not_found]. *)
