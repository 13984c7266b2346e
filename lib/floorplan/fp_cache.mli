(** The floorplan verdict memo: memoized {!Floorplanner.check}.

    PA step 8, every improving PA-R candidate, the list scheduler, the
    IS-k baselines and every {!Resched_core.Delta} re-query ask the
    floorplanner whether a region set fits, and candidates drawn from
    different random orderings frequently produce the same multiset of
    region demands. The cache keys a {!Floorplanner.check} verdict on
    the device, the engine/node-limit configuration and the
    {e canonically sorted} needs array (ties broken by index), so any
    permutation of an already-checked region set is an exact hit:
    cached placements are permuted back to the query's region order
    before being returned.

    {b Verdict-transparent by construction.} The only thing stored is
    the engine's report on the sorted needs of an exact key, [Unknown]
    included. Every verdict handed out is therefore the engine's answer
    for that exact (device, engine, node-limit, sorted needs) key,
    whatever was inserted before: a warm and a cold cache, or caches fed
    the same queries in different orders, hand out the same verdicts.
    (Verdicts are computed on the sorted needs; where the node budget
    bites they can differ from a cache-less check on the caller's
    order.) The batch engine's and the daemon's bit-identity guarantees
    under arbitrary interleavings rest on this.

    {b Two-level read path.} Each domain owns a private, bounded L1 memo
    (domain-local storage, no locks or shared cache lines at all) in
    front of the shared L2. L1 entries are flushed lazily whenever the
    cache's {e invalidation epoch} moves ({!clear},
    {!invalidate_device}), so a stale verdict never outlives an
    invalidation. The shared L2 is sharded into stripes whose read path
    is an {e optimistic versioned read} ({!Resched_util.Seqlock}) over an
    immutable snapshot — parallel workers take a stripe mutex only to
    insert, never to look up. Counters are [Atomic.t] everywhere, so
    {!stats} and {!stripe_stats} never block a worker. *)

type t

type stats = {
  l1_hits : int;
      (** hits served by a domain-local L1 memo (no shared state
          touched) *)
  hits : int;  (** exact-key hits in the shared L2 *)
  sub_hits : int;
      (** always [0]. Kept only so the frozen benchmark
          ([perfbench/]) compiles; deleted with the next benchmark
          revision. *)
  misses : int;  (** full misses: a fresh check ran *)
  inserts : int;  (** misses whose fresh verdict was stored *)
}

val zero_stats : stats

val diff : stats -> stats -> stats
(** [diff after before] is the component-wise difference — the activity
    between two snapshots of the same cache. *)

val lookups : stats -> int
(** [l1_hits + hits + misses]. *)

val hit_rate : stats -> float
(** Combined (L1 + L2) hit rate over {!lookups};
    [0.] when there were none. *)

val create : ?stripes:int -> ?l1_capacity:int -> ?subsumption:bool ->
  unit -> t
(** An empty cache with zeroed counters, sharded into [stripes]
    (default 16, clamped to >= 1) L2 stripes. [l1_capacity] (default
    4096) bounds each domain's L1 memo — when full it is dropped
    wholesale, which only costs future hits; [0] disables the L1
    entirely (every read goes to the shared L2 — used by tests that
    probe L2 behaviour directly).

    [subsumption] accepts only [false] (the default); [true] raises
    [Invalid_argument]. The label is kept only so the frozen benchmark
    ([perfbench/]) compiles, and is deleted with the next benchmark
    revision. *)

val stats : t -> stats
(** L2 counters summed over all stripes, plus the L1 counters of every
    domain that has touched this cache. Lock-free: a racing lookup may
    or may not be included, but each lookup lands in exactly one
    counter, so totals never double-count. *)

val stripe_stats : t -> stats array
(** Per-stripe L2 counters; sums to {!stats} minus its [l1_hits] (L1
    hits are domain-local and belong to no stripe, so every row reports
    [l1_hits = 0]). A heavily skewed distribution indicates key-hash
    contention between parallel workers. *)

val stripe_read_retries : t -> int array
(** Per-stripe optimistic-read retries ({!Resched_util.Seqlock.retries})
    — the residual read/write contention on the L2 exact table. All
    zeros means no lookup ever collided with an insert. *)

val epoch : t -> int
(** Current invalidation epoch; moves on {!clear} and
    {!invalidate_device}. Domain-local L1 memos compare their stamp
    against this and flush when behind. *)

val clear : t -> unit
(** Drop every entry, reset the counters and
    advance the epoch so every domain's L1 flushes on its next use. *)

val invalidate_device : t -> Resched_fabric.Device.t -> unit
(** Drop the L2 entries for one device (e.g. after re-targeting an
    instance); other devices' entries and the counters are kept. Also
    advances the epoch, so every domain's L1 flushes wholesale (the L1
    is not indexed by device; dropping it entirely is the conservative,
    correct choice). *)

val check : t -> ?engine:Floorplanner.engine -> ?node_limit:int ->
  Resched_fabric.Device.t -> Resched_fabric.Resource.t array ->
  Floorplanner.report
(** Drop-in replacement for {!Floorplanner.check}. Lookup order: the
    calling domain's L1 memo, then the L2 stripe (optimistic versioned
    read), then a fresh check on the sorted needs whose verdict, of any
    kind, is stored in the L2; every L2 answer is also copied into the
    caller's L1. Feasible placements are always reported in the caller's
    region order and satisfy {!Floorplanner.validate} against the
    queried [needs]. Verdicts are only reused for the same [engine] and
    [node_limit] configuration. *)
