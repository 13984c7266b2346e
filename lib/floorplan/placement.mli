(** Feasible placements of reconfigurable regions on the device fabric.

    Following the feasible-placement-detection idea of Rabozzi et al. [3],
    a placement of a region is an axis-aligned rectangle of whole
    column x clock-region tiles whose enclosed resources cover the
    region's requirements. Only *minimal-width* rectangles are enumerated
    (for a fixed row span and left column, the smallest right column that
    fits): any wider rectangle only wastes resources, and a packing using
    wider rectangles can be normalized to one using minimal ones. *)

type rect = { c0 : int; c1 : int; r0 : int; r1 : int }
(** Inclusive column span [c0..c1] and clock-region span [r0..r1]. *)

val width : rect -> int
val height : rect -> int
val overlap : rect -> rect -> bool
val contains : outer:rect -> rect -> bool
val resources : Resched_fabric.Device.t -> rect -> Resched_fabric.Resource.t
val pp : Format.formatter -> rect -> unit

type grid
(** Per-column-type prefix sums over a device's fabric: any rectangle's
    resource vector and area become O(1) lookups instead of a column
    scan. Built once per device by the packer. *)

val grid : Resched_fabric.Device.t -> grid

val grid_units : grid -> Resched_fabric.Resource.kind -> rect -> int
(** O(1), allocation-free; equals [Resource.get (resources device rect)
    kind] on the grid's device. *)

val grid_candidates : grid -> Resched_fabric.Resource.t -> rect array
(** All minimal placements for a region requiring the given resources,
    sorted by enclosed area (total resource units) ascending, i.e.
    snuggest first, ties by [(r0, c0, r1, c1)]; only the first
    {!candidate_count_cap} are kept. Empty when the region cannot fit
    anywhere (even on an empty device). Within one row span the windows
    have strictly increasing [c0] and non-decreasing [c1]. Raises
    [Invalid_argument] on the zero requirement. *)

val candidate_count_cap : int
(** Safety cap on the number of candidates returned per region (the
    snuggest ones are kept). *)

val prune_dominated : rows:int -> rect array -> rect array
(** [prune_dominated ~rows cands] drops every candidate that contains
    an earlier one, keeping the survivors in order. [cands] must be a
    {!grid_candidates} array (or any order-preserving subset of one) on
    a device with [rows] clock regions: the prune relies on the
    per-row-span monotonicity stated there, which is what lets it test
    containment with one binary search per row sub-span instead of a
    scan of every earlier candidate. *)
