(* Tests for the floorplanning substrate: feasible-placement enumeration,
   the packer, the MILP engine and their agreement. *)

module Rng = Resched_util.Rng
module Resource = Resched_fabric.Resource
module Device = Resched_fabric.Device
module Placement = Resched_floorplan.Placement
module Packer = Resched_floorplan.Packer
module Milp_model = Resched_floorplan.Milp_model
module Floorplanner = Resched_floorplan.Floorplanner
module Fp_cache = Resched_floorplan.Fp_cache
module Reference = Resched_reference.Reference

let v ~clb ~bram ~dsp = Resource.make ~clb ~bram ~dsp

let test_rect_geometry () =
  let a = { Placement.c0 = 0; c1 = 3; r0 = 0; r1 = 1 } in
  let b = { Placement.c0 = 4; c1 = 6; r0 = 0; r1 = 1 } in
  let c = { Placement.c0 = 2; c1 = 5; r0 = 1; r1 = 2 } in
  Alcotest.(check int) "width" 4 (Placement.width a);
  Alcotest.(check int) "height" 2 (Placement.height a);
  Alcotest.(check bool) "disjoint columns" false (Placement.overlap a b);
  Alcotest.(check bool) "overlapping" true (Placement.overlap a c);
  Alcotest.(check bool) "overlap symmetric" true (Placement.overlap c a);
  Alcotest.(check bool) "contains" true
    (Placement.contains ~outer:{ Placement.c0 = 0; c1 = 9; r0 = 0; r1 = 2 } a)

let test_candidates_cover_requirement () =
  let d = Device.xc7z020 in
  let need = v ~clb:700 ~bram:5 ~dsp:10 in
  let cands = Placement.grid_candidates (Placement.grid d) need in
  Alcotest.(check bool) "some candidates" true (cands <> [||]);
  Array.iter
    (fun rect ->
      let have = Placement.resources d rect in
      Alcotest.(check bool) "covers" true (Resource.fits need ~within:have))
    cands

let test_candidates_minimal_width () =
  let d = Device.minifab in
  let need = v ~clb:60 ~bram:0 ~dsp:0 in
  let cands = Placement.grid_candidates (Placement.grid d) need in
  Array.iter
    (fun (rect : Placement.rect) ->
      if rect.Placement.c0 < rect.Placement.c1 then begin
        (* Dropping the leftmost column must break feasibility. *)
        let narrower = { rect with Placement.c0 = rect.Placement.c0 + 1 } in
        let have = Placement.resources d narrower in
        Alcotest.(check bool) "minimal" false (Resource.fits need ~within:have)
      end)
    cands

let test_candidates_impossible () =
  let d = Device.minifab in
  (* Minifab has 1 BRAM column x 2 rows x 10 BRAM = 20 BRAM total. *)
  Alcotest.(check int) "no candidate" 0
    (Array.length
       (Placement.grid_candidates (Placement.grid d) (v ~clb:0 ~bram:21 ~dsp:0)))

let test_pack_single () =
  let d = Device.minifab in
  match Packer.pack d [| v ~clb:100 ~bram:2 ~dsp:1 |] with
  | Packer.Placed [| rect |] ->
    let have = Placement.resources d rect in
    Alcotest.(check bool) "covers" true
      (Resource.fits (v ~clb:100 ~bram:2 ~dsp:1) ~within:have)
  | _ -> Alcotest.fail "expected placement"

let test_pack_disjoint () =
  let d = Device.minifab in
  let needs = [| v ~clb:100 ~bram:0 ~dsp:0; v ~clb:100 ~bram:0 ~dsp:0 |] in
  match Packer.pack d needs with
  | Packer.Placed p ->
    Alcotest.(check bool) "disjoint" false (Placement.overlap p.(0) p.(1))
  | _ -> Alcotest.fail "expected placement"

let test_pack_capacity_infeasible () =
  let d = Device.minifab in
  (* minifab: 6 CLB columns x 2 rows x 50 = 600 CLB; three 250-CLB
     regions exceed capacity. *)
  let needs = [| v ~clb:250 ~bram:0 ~dsp:0; v ~clb:250 ~bram:0 ~dsp:0;
                 v ~clb:250 ~bram:0 ~dsp:0 |] in
  match Packer.pack d needs with
  | Packer.Infeasible -> ()
  | Packer.Placed _ -> Alcotest.fail "impossible packing accepted"
  | Packer.Unknown -> Alcotest.fail "should be provably infeasible"

let test_pack_geometric_infeasible () =
  let d = Device.minifab in
  (* Two regions each needing both the single BRAM column (full height
     would be needed... take BRAM 11 > one row's 10): each must span both
     rows of the unique BRAM column -> they must overlap. *)
  let needs = [| v ~clb:0 ~bram:11 ~dsp:0; v ~clb:0 ~bram:11 ~dsp:0 |] in
  match Packer.pack d needs with
  | Packer.Infeasible -> ()
  | Packer.Placed _ -> Alcotest.fail "impossible packing accepted"
  | Packer.Unknown -> Alcotest.fail "should be provably infeasible"

let test_pack_empty () =
  match Packer.pack Device.minifab [||] with
  | Packer.Placed [||] -> ()
  | _ -> Alcotest.fail "empty set is trivially placed"

let test_milp_engine_agrees_feasible () =
  let d = Device.minifab in
  let needs = [| v ~clb:100 ~bram:2 ~dsp:0; v ~clb:150 ~bram:0 ~dsp:5 |] in
  (match Milp_model.pack d needs with
  | Milp_model.Placed p ->
    Alcotest.(check bool) "disjoint" false (Placement.overlap p.(0) p.(1))
  | _ -> Alcotest.fail "MILP should place");
  match Packer.pack d needs with
  | Packer.Placed _ -> ()
  | _ -> Alcotest.fail "packer should place"

let test_milp_engine_agrees_infeasible () =
  let d = Device.minifab in
  let needs = [| v ~clb:0 ~bram:11 ~dsp:0; v ~clb:0 ~bram:11 ~dsp:0 |] in
  match Milp_model.pack d needs with
  | Milp_model.Infeasible -> ()
  | Milp_model.Placed _ -> Alcotest.fail "impossible packing accepted"
  | Milp_model.Unknown -> Alcotest.fail "should be provably infeasible"

let test_floorplanner_check_and_validate () =
  let d = Device.xc7z020 in
  let needs = Array.init 6 (fun i -> v ~clb:(400 + (100 * i)) ~bram:2 ~dsp:4) in
  let report = Floorplanner.check d needs in
  match report.Floorplanner.verdict with
  | Floorplanner.Feasible placements ->
    (match Floorplanner.validate d ~needs placements with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "claimed floorplan invalid: %s" msg)
  | _ -> Alcotest.fail "expected feasible"

let test_validate_rejects_bad_plans () =
  let d = Device.minifab in
  let needs = [| v ~clb:100 ~bram:0 ~dsp:0; v ~clb:100 ~bram:0 ~dsp:0 |] in
  let r = { Placement.c0 = 0; c1 = 2; r0 = 0; r1 = 0 } in
  (match Floorplanner.validate d ~needs [| r; r |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overlap accepted");
  (match Floorplanner.validate d ~needs [| r |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "count mismatch accepted");
  let tiny = { Placement.c0 = 0; c1 = 0; r0 = 0; r1 = 0 } in
  match
    Floorplanner.validate d ~needs
      [| tiny; { Placement.c0 = 4; c1 = 7; r0 = 0; r1 = 1 } |]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "under-provisioned accepted"

let test_quick_capacity_check () =
  let d = Device.minifab in
  Alcotest.(check bool) "fits" true
    (Floorplanner.quick_capacity_check d [| v ~clb:500 ~bram:10 ~dsp:10 |]);
  Alcotest.(check bool) "too big" false
    (Floorplanner.quick_capacity_check d [| v ~clb:700 ~bram:0 ~dsp:0 |]);
  (* Per-column-type row-slot condition: four bram:5 regions pass the
     device-total check (20 <= 20) but each needs its own BRAM
     column-row slot and minifab has only 1 column x 2 rows. *)
  Alcotest.(check bool) "row slots exhausted" false
    (Floorplanner.quick_capacity_check d
       (Array.make 4 (v ~clb:0 ~bram:5 ~dsp:0)));
  Alcotest.(check bool) "row slots sufficient" true
    (Floorplanner.quick_capacity_check d
       (Array.make 2 (v ~clb:0 ~bram:5 ~dsp:0)))

(* v2-specific dominance / symmetry edge cases. *)

let test_pack_v2_equal_needs () =
  let d = Device.minifab in
  (* Identical demands share one candidate array and ordered anchors;
     the packing must still exist and be disjoint. *)
  let needs = Array.make 4 (v ~clb:100 ~bram:0 ~dsp:0) in
  match Packer.pack ~engine:Packer.Column_interval d needs with
  | Packer.Placed p ->
    Alcotest.(check (result unit string))
      "validates" (Ok ())
      (Floorplanner.validate d ~needs p)
  | _ -> Alcotest.fail "equal needs should pack"

let test_pack_v2_zero_slack () =
  let d = Device.minifab in
  (* Six 100-CLB regions consume exactly minifab's 600 CLBs: feasible
     with zero slack. A seventh unit anywhere tips it over, and the
     capacity lower bound must prove that without search. *)
  let exact = Array.make 6 (v ~clb:100 ~bram:0 ~dsp:0) in
  (match Packer.pack ~engine:Packer.Column_interval d exact with
  | Packer.Placed p ->
    Alcotest.(check (result unit string))
      "validates" (Ok ())
      (Floorplanner.validate d ~needs:exact p)
  | _ -> Alcotest.fail "zero-slack packing should exist");
  let over = Array.append exact [| v ~clb:1 ~bram:0 ~dsp:0 |] in
  match Packer.pack ~engine:Packer.Column_interval d over with
  | Packer.Infeasible -> ()
  | _ -> Alcotest.fail "601 CLBs on a 600-CLB device must be infeasible"

let test_capacity_bounds_ok () =
  let d = Device.minifab in
  Alcotest.(check bool) "sound on feasible" true
    (Packer.capacity_bounds_ok d [| v ~clb:100 ~bram:2 ~dsp:5 |]);
  (* 4 x bram:5 passes device totals but not the per-kind row-slot
     budget (4 slots needed, 1 column x 2 rows available). *)
  Alcotest.(check bool) "row-slot bound" false
    (Packer.capacity_bounds_ok d (Array.make 4 (v ~clb:0 ~bram:5 ~dsp:0)))

(* Verdict kind, and the canonical (sorted) needs order the cache keys
   and checks on. *)
let kind = function
  | Floorplanner.Feasible _ -> `Feasible
  | Floorplanner.Infeasible -> `Infeasible
  | Floorplanner.Unknown -> `Unknown

let sorted needs =
  let s = Array.copy needs in
  Array.sort Resource.compare s;
  s

let test_cache_counters_and_permutation () =
  let d = Device.minifab in
  let cache = Fp_cache.create () in
  let a = v ~clb:60 ~bram:2 ~dsp:0 and b = v ~clb:220 ~bram:0 ~dsp:4 in
  let first = Fp_cache.check cache d [| a; b |] in
  (* The reversed needs are the same multiset: must hit, and the returned
     placements must cover the *reversed* order. *)
  let second = Fp_cache.check cache d [| b; a |] in
  let st = Fp_cache.stats cache in
  Alcotest.(check int) "one miss" 1 st.Fp_cache.misses;
  (* The repeat lands in the calling domain's L1 memo — the shared L2 is
     never touched again. *)
  Alcotest.(check int) "one L1 hit" 1 st.Fp_cache.l1_hits;
  Alcotest.(check int) "no L2 hit" 0 st.Fp_cache.hits;
  Alcotest.(check int) "one insert" 1 st.Fp_cache.inserts;
  (match (first.Floorplanner.verdict, second.Floorplanner.verdict) with
  | Floorplanner.Feasible p1, Floorplanner.Feasible p2 ->
    Alcotest.(check (result unit string))
      "original order validates" (Ok ())
      (Floorplanner.validate d ~needs:[| a; b |] p1);
    Alcotest.(check (result unit string))
      "permuted order validates" (Ok ())
      (Floorplanner.validate d ~needs:[| b; a |] p2)
  | _ -> Alcotest.fail "small region set must be feasible on minifab");
  (* Empty need sets bypass the cache entirely. *)
  (match (Fp_cache.check cache d [||]).Floorplanner.verdict with
  | Floorplanner.Feasible [||] -> ()
  | _ -> Alcotest.fail "empty needs trivially feasible");
  Alcotest.(check int) "empty needs not counted" 2
    (Fp_cache.lookups (Fp_cache.stats cache))

let test_cache_invalidate_device () =
  let cache = Fp_cache.create () in
  let needs = [| v ~clb:60 ~bram:0 ~dsp:0 |] in
  ignore (Fp_cache.check cache Device.minifab needs);
  ignore (Fp_cache.check cache Device.xc7z010 needs);
  Fp_cache.invalidate_device cache Device.minifab;
  (* minifab misses again; xc7z010 still hits. *)
  ignore (Fp_cache.check cache Device.minifab needs);
  ignore (Fp_cache.check cache Device.xc7z010 needs);
  let st = Fp_cache.stats cache in
  Alcotest.(check int) "three misses" 3 st.Fp_cache.misses;
  Alcotest.(check int) "one hit" 1 st.Fp_cache.hits;
  Fp_cache.clear cache;
  let st = Fp_cache.stats cache in
  Alcotest.(check int) "clear resets counters" 0
    (st.Fp_cache.hits + st.Fp_cache.misses + st.Fp_cache.inserts)

(* With a zero node budget the greedy pre-pass fails on this set and the
   search returns Unknown on minifab (found by enumeration; re-verified
   below). *)
let vague = [| v ~clb:215 ~bram:10 ~dsp:5; v ~clb:285 ~bram:1 ~dsp:0 |]

let test_cache_unknown_replayed () =
  let d = Device.minifab in
  (* L1 disabled so the repeat is served by the shared L2. The
     non-verdict is stored like any other: a permutation of the same
     needs replays it rather than re-checking or refining it. *)
  let cache = Fp_cache.create ~l1_capacity:0 () in
  let verdict needs =
    (Fp_cache.check cache ~node_limit:0 d needs).Floorplanner.verdict
  in
  (match verdict vague with
  | Floorplanner.Unknown -> ()
  | _ -> Alcotest.fail "expected Unknown under a zero node budget");
  (match verdict [| vague.(1); vague.(0) |] with
  | Floorplanner.Unknown -> ()
  | _ -> Alcotest.fail "the stored Unknown must be replayed");
  let st = Fp_cache.stats cache in
  Alcotest.(check int) "one miss" 1 st.Fp_cache.misses;
  Alcotest.(check int) "one insert" 1 st.Fp_cache.inserts;
  Alcotest.(check int) "one L2 hit" 1 st.Fp_cache.hits

let test_cache_stripe_stats_sum () =
  let d = Device.minifab in
  let cache = Fp_cache.create ~stripes:4 () in
  for i = 1 to 8 do
    ignore (Fp_cache.check cache d [| v ~clb:(40 + (10 * i)) ~bram:0 ~dsp:0 |])
  done;
  ignore (Fp_cache.check cache d [| v ~clb:50 ~bram:0 ~dsp:0 |]);
  let sum =
    Array.fold_left
      (fun (h, m, i) (st : Fp_cache.stats) ->
        (h + st.Fp_cache.hits, m + st.Fp_cache.misses, i + st.Fp_cache.inserts))
      (0, 0, 0)
      (Fp_cache.stripe_stats cache)
  in
  let st = Fp_cache.stats cache in
  Alcotest.(check (triple int int int))
    "stripes sum to totals"
    (st.Fp_cache.hits, st.Fp_cache.misses, st.Fp_cache.inserts)
    sum

let test_cache_l1_epoch_flush () =
  let d = Device.minifab in
  let needs = [| v ~clb:60 ~bram:0 ~dsp:0 |] in
  let cache = Fp_cache.create () in
  ignore (Fp_cache.check cache d needs);
  ignore (Fp_cache.check cache d needs);
  let st = Fp_cache.stats cache in
  Alcotest.(check int) "warm L1 serves the repeat" 1 st.Fp_cache.l1_hits;
  let e0 = Fp_cache.epoch cache in
  (* Invalidating an unrelated device must still advance the epoch: the
     L1 is not indexed by device, so it is flushed wholesale. *)
  Fp_cache.invalidate_device cache Device.xc7z010;
  Alcotest.(check bool) "epoch advanced" true (Fp_cache.epoch cache > e0);
  ignore (Fp_cache.check cache d needs);
  let st = Fp_cache.stats cache in
  Alcotest.(check int) "flushed L1 does not answer" 1 st.Fp_cache.l1_hits;
  Alcotest.(check int) "the surviving L2 entry does" 1 st.Fp_cache.hits;
  (* The L2 answer re-fills the caller's L1. *)
  ignore (Fp_cache.check cache d needs);
  let st = Fp_cache.stats cache in
  Alcotest.(check int) "L1 re-filled after the flush" 2 st.Fp_cache.l1_hits;
  Alcotest.(check int) "no extra L2 traffic" 1 st.Fp_cache.hits

(* Multi-domain stress: several workers hammer one shared cache (with a
   writer interleaving device invalidations) and every verdict must
   agree with the uncached sequential oracle on the sorted needs —
   [Floorplanner.check] is a pure function of (device, needs) and the
   cache only memoizes it, so no interleaving may change an answer. Afterwards the cache is quiescent, so the lock-free counters
   must account for every lookup exactly once and the per-stripe rows
   must sum to the totals. *)
let prop_cache_concurrent_matches_oracle =
  let devices = [| Device.minifab; Device.xc7z010 |] in
  let pool =
    [|
      [| v ~clb:60 ~bram:0 ~dsp:0 |];
      [| v ~clb:100 ~bram:2 ~dsp:1 |];
      [| v ~clb:100 ~bram:0 ~dsp:0; v ~clb:100 ~bram:0 ~dsp:0 |];
      [| v ~clb:250 ~bram:0 ~dsp:0; v ~clb:250 ~bram:0 ~dsp:0;
         v ~clb:250 ~bram:0 ~dsp:0 |];
      [| v ~clb:50 ~bram:1 ~dsp:0; v ~clb:80 ~bram:0 ~dsp:1 |];
      [| v ~clb:0 ~bram:21 ~dsp:0 |];
      [| v ~clb:30 ~bram:0 ~dsp:0; v ~clb:30 ~bram:0 ~dsp:0;
         v ~clb:30 ~bram:0 ~dsp:0; v ~clb:30 ~bram:0 ~dsp:0 |];
      [| v ~clb:600 ~bram:0 ~dsp:0 |];
    |]
  in
  QCheck.Test.make ~count:4
    ~name:"concurrent fp_cache agrees with the sequential oracle"
    QCheck.(
      list_of_size
        Gen.(int_range 12 48)
        (pair
           (int_bound (Array.length devices - 1))
           (int_bound (Array.length pool - 1))))
    (fun ops ->
      let ops = Array.of_list ops in
      let oracle =
        Array.map
          (fun (di, ni) ->
            kind
              (Floorplanner.check devices.(di) (sorted pool.(ni)))
                .Floorplanner.verdict)
          ops
      in
      let cache = Fp_cache.create ~stripes:4 () in
      let jobs = 4 in
      let failures = Atomic.make 0 in
      ignore
        (Resched_util.Domain_pool.run ~jobs (fun w ->
             Array.iteri
               (fun i (di, ni) ->
                 if w = 0 && i mod 11 = 10 then
                   Fp_cache.invalidate_device cache devices.(0);
                 let r = Fp_cache.check cache devices.(di) pool.(ni) in
                 let ok =
                   kind r.Floorplanner.verdict = oracle.(i)
                   &&
                   match r.Floorplanner.verdict with
                   | Floorplanner.Feasible rects ->
                     Floorplanner.validate devices.(di) ~needs:pool.(ni) rects
                     = Ok ()
                   | _ -> true
                 in
                 if not ok then Atomic.incr failures)
               ops));
      let st = Fp_cache.stats cache in
      let rows = Fp_cache.stripe_stats cache in
      let sum f = Array.fold_left (fun acc r -> acc + f r) 0 rows in
      Atomic.get failures = 0
      && Fp_cache.lookups st = jobs * Array.length ops
      && sum (fun r -> r.Fp_cache.hits) = st.Fp_cache.hits
      && sum (fun r -> r.Fp_cache.misses) = st.Fp_cache.misses
      && sum (fun r -> r.Fp_cache.inserts) = st.Fp_cache.inserts
      && Array.for_all (fun r -> r.Fp_cache.l1_hits = 0) rows)

(* Property: whenever the packer places, the MILP engine never proves
   infeasibility, and vice versa: MILP placement implies the packer does
   not prove infeasibility. Verdicts are cross-validated. *)
let prop_engines_consistent =
  QCheck.Test.make ~count:40 ~name:"packer/MILP engines consistent"
    QCheck.(pair int (int_range 1 4))
    (fun (seed, count) ->
      let rng = Rng.create seed in
      let d = Device.minifab in
      let needs =
        Array.init count (fun _ ->
            v
              ~clb:(50 + Rng.int rng 200)
              ~bram:(Rng.int rng 8)
              ~dsp:(Rng.int rng 12))
      in
      let p = Packer.pack d needs in
      let m = Milp_model.pack d needs in
      let valid placements =
        Floorplanner.validate d ~needs placements = Ok ()
      in
      (match p with Packer.Placed pl -> valid pl | _ -> true)
      && (match m with Milp_model.Placed pl -> valid pl | _ -> true)
      &&
      match (p, m) with
      | Packer.Placed _, Milp_model.Infeasible -> false
      | Packer.Infeasible, Milp_model.Placed _ -> false
      | _ -> true)

(* The prefix-sum candidate enumeration is a drop-in replacement for the
   reference sliding-window scan on resource vectors: same rects, same
   snuggest-first order. *)
let prop_grid_candidates_identical =
  QCheck.Test.make ~count:200 ~name:"grid candidates = v1 candidates"
    QCheck.(triple int (int_range 0 2) (int_range 0 2))
    (fun (seed, dev_idx, _) ->
      let rng = Rng.create seed in
      let d = [| Device.minifab; Device.xc7z010; Device.xc7z020 |].(dev_idx) in
      let need =
        v
          ~clb:(1 + Rng.int rng 1200)
          ~bram:(Rng.int rng 20) ~dsp:(Rng.int rng 30)
      in
      Array.to_list (Placement.grid_candidates (Placement.grid d) need)
      = Reference.candidates d need)

(* The column-interval packer against the v1 oracle: never a
   contradiction, never less decisive, and placements always validate.
   (v2 may *refine* a v1 [Unknown] to a decisive verdict — its pruning
   reaches deeper into the same search space within the node budget.) *)
let prop_packer_v2_agrees_v1 =
  QCheck.Test.make ~count:100 ~name:"packer v2 vs v1 oracle"
    QCheck.(pair int (int_range 1 5))
    (fun (seed, count) ->
      let rng = Rng.create seed in
      let d = Device.minifab in
      let needs =
        Array.init count (fun _ ->
            v
              ~clb:(50 + Rng.int rng 250)
              ~bram:(Rng.int rng 11)
              ~dsp:(Rng.int rng 21))
      in
      let v1 = Packer.pack ~engine:Packer.Backtracking_v1 d needs in
      let v2 = Packer.pack ~engine:Packer.Column_interval d needs in
      (match v2 with
      | Packer.Placed pl -> Floorplanner.validate d ~needs pl = Ok ()
      | _ -> true)
      &&
      match (v1, v2) with
      | Packer.Placed _, Packer.Infeasible
      | Packer.Infeasible, Packer.Placed _ ->
        false (* contradiction *)
      | (Packer.Placed _ | Packer.Infeasible), Packer.Unknown ->
        false (* v2 lost decisiveness *)
      | _ -> true)

(* Fabrics for the bitset-search properties: the presets (one to three
   occupancy words per row) and a random striped fabric of up to 153
   columns, so column spans cross word boundaries. *)
let random_fabric rng =
  let ncols = 4 + Rng.int rng 150 in
  let columns =
    Array.init ncols (fun _ ->
        match Rng.int rng 10 with
        | 0 -> Resource.Bram
        | 1 -> Resource.Dsp
        | _ -> Resource.Clb)
  in
  Device.make ~name:"random-striped" ~columns ~rows:(1 + Rng.int rng 6)
    ~model:Resched_fabric.Bitstream.seven_series

let fabric rng = function
  | 0 -> Device.minifab
  | 1 -> Device.xc7z010
  | 2 -> Device.xc7z020
  | 3 -> Device.xc7z045
  | _ -> random_fabric rng

(* [count] regions whose demands fill [40%, 100%] of the fabric on
   average: enough tight sets that the greedy passes fail and the exact
   search runs into small node limits. *)
let random_needs rng (d : Device.t) count =
  let fill = 40 + Rng.int rng 61 in
  let draw total = Rng.int rng (1 + (2 * total * fill / (100 * count))) in
  let t = d.Device.total in
  Array.init count (fun _ ->
      v
        ~clb:(1 + draw t.Resource.clb)
        ~bram:(if Rng.bool rng then draw t.Resource.bram else 0)
        ~dsp:(if Rng.bool rng then draw t.Resource.dsp else 0))

let node_limits = [ 0; 1; 7; 100; 200_000 ]

(* The bitset v1 search against the list-based reference: the same
   verdict constructor and the same placement array at every node
   limit, across the [Unknown] boundary. *)
let prop_bitset_v1_matches_reference =
  QCheck.Test.make ~count:40 ~name:"bitset v1 = reference list v1"
    QCheck.(triple int (int_range 0 4) (int_range 1 6))
    (fun (seed, fab, count) ->
      let rng = Rng.create seed in
      let d = fabric rng fab in
      let needs = random_needs rng d count in
      List.for_all
        (fun node_limit ->
          Packer.pack ~engine:Packer.Backtracking_v1 ~node_limit d needs
          = Reference.pack_v1 ~node_limit d needs)
        node_limits)

(* A homogeneous CLB fabric: many same-shape windows of equal area, so
   the 512-candidate cap cuts through a tie group. *)
let ties_fabric =
  Device.make ~name:"clb-ties" ~columns:(Array.make 60 Resource.Clb) ~rows:8
    ~model:Resched_fabric.Bitstream.seven_series

(* The per-sub-span binary-search prune against the quadratic one. *)
let prop_fast_prune_matches_reference =
  QCheck.Test.make ~count:200 ~name:"fast dominance prune = quadratic prune"
    QCheck.(pair int (int_range 0 5))
    (fun (seed, fab) ->
      let rng = Rng.create seed in
      let d = if fab = 5 then ties_fabric else fabric rng fab in
      let need = (random_needs rng d (1 + Rng.int rng 6)).(0) in
      let cands = Placement.grid_candidates (Placement.grid d) need in
      Array.to_list (Placement.prune_dominated ~rows:d.Device.rows cands)
      = Reference.prune_dominated (Array.to_list cands))

(* Node accounting at the budget edge: a set whose first packing is
   found at node [n] packs at [~node_limit:n] and is [Unknown] at
   [n - 1], under the bitset search and the list reference alike. *)
let test_v1_node_boundary () =
  let d = Device.minifab in
  let rec first_packing limit =
    if limit > 10_000 then Alcotest.fail "no packing within 10k nodes"
    else
      match Reference.pack_v1 ~node_limit:limit d vague with
      | Packer.Placed _ -> limit
      | Packer.Unknown -> first_packing (limit + 1)
      | Packer.Infeasible -> Alcotest.fail "set must be feasible"
  in
  let n = first_packing 0 in
  Alcotest.(check bool) "needs the exact search" true (n > 0);
  let bitset limit =
    Packer.pack ~engine:Packer.Backtracking_v1 ~node_limit:limit d vague
  in
  (match (bitset n, Reference.pack_v1 ~node_limit:n d vague) with
  | Packer.Placed a, Packer.Placed b ->
    Alcotest.(check bool) "same placements" true (a = b)
  | _ -> Alcotest.fail "both engines must place at the first-packing node");
  match (bitset (n - 1), Reference.pack_v1 ~node_limit:(n - 1) d vague) with
  | Packer.Unknown, Packer.Unknown -> ()
  | _ -> Alcotest.fail "both engines must be Unknown one node short"

(* Verdict transparency over sequences of related queries (scaled,
   truncated, permuted and repeated variants of a base set, under node
   budgets small enough to yield [Unknown], plus a known [Unknown]
   set): every cached verdict is the
   engine's verdict on the sorted needs, feasible placements validate in
   the caller's order, and a second cache fed the same queries in
   reverse hands out the same verdicts — nothing depends on what was
   inserted before. *)
let prop_cache_verdict_transparent =
  QCheck.Test.make ~count:60 ~name:"cache verdict-transparent"
    QCheck.(pair int (int_range 1 3))
    (fun (seed, count) ->
      let rng = Rng.create seed in
      let d = Device.minifab in
      let base =
        Array.init count (fun _ ->
            v
              ~clb:(100 + Rng.int rng 200)
              ~bram:(Rng.int rng 6)
              ~dsp:(Rng.int rng 6))
      in
      let limits = [| None; Some 0; Some 5 |] in
      let query needs =
        ( limits.(Rng.int rng (Array.length limits)),
          Array.map
            (fun r -> Resource.max_components r (v ~clb:1 ~bram:0 ~dsp:0))
            needs )
      in
      let first = query base in
      let queries =
        first
        :: List.map query
             [
               Array.map (fun r -> Resource.scale r 0.9) base;
               Array.map (fun r -> Resource.scale r 0.81) base;
               Array.sub base 0 (Stdlib.max 1 (count - 1));
               Array.map (fun r -> Resource.scale r 1.1) base;
               Array.of_list (List.rev (Array.to_list base));
             ]
        @ [ first; (Some 0, vague); (Some 0, [| vague.(1); vague.(0) |]) ]
      in
      let run queries =
        let cache = Fp_cache.create () in
        List.map
          (fun (node_limit, needs) ->
            (Fp_cache.check cache ?node_limit d needs).Floorplanner.verdict)
          queries
      in
      let forward = run queries in
      let backward = List.rev (run (List.rev queries)) in
      forward = backward
      && List.for_all2
           (fun (node_limit, needs) cached ->
             let direct =
               (Floorplanner.check ?node_limit d (sorted needs))
                 .Floorplanner.verdict
             in
             kind cached = kind direct
             &&
             match cached with
             | Floorplanner.Feasible pl ->
               Floorplanner.validate d ~needs pl = Ok ()
             | _ -> true)
           queries forward)

let () =
  Alcotest.run "floorplan"
    [
      ( "placement",
        [
          Alcotest.test_case "rect geometry" `Quick test_rect_geometry;
          Alcotest.test_case "candidates cover" `Quick
            test_candidates_cover_requirement;
          Alcotest.test_case "candidates minimal" `Quick
            test_candidates_minimal_width;
          Alcotest.test_case "impossible requirement" `Quick
            test_candidates_impossible;
        ] );
      ( "packer",
        [
          Alcotest.test_case "single region" `Quick test_pack_single;
          Alcotest.test_case "disjoint regions" `Quick test_pack_disjoint;
          Alcotest.test_case "capacity infeasible" `Quick
            test_pack_capacity_infeasible;
          Alcotest.test_case "geometric infeasible" `Quick
            test_pack_geometric_infeasible;
          Alcotest.test_case "empty" `Quick test_pack_empty;
          Alcotest.test_case "v2 equal needs" `Quick test_pack_v2_equal_needs;
          Alcotest.test_case "v2 zero slack" `Quick test_pack_v2_zero_slack;
          Alcotest.test_case "capacity bounds" `Quick test_capacity_bounds_ok;
          Alcotest.test_case "v1 node-limit boundary" `Quick
            test_v1_node_boundary;
        ] );
      ( "milp-engine",
        [
          Alcotest.test_case "feasible agreement" `Quick
            test_milp_engine_agrees_feasible;
          Alcotest.test_case "infeasible agreement" `Quick
            test_milp_engine_agrees_infeasible;
        ] );
      ( "floorplanner",
        [
          Alcotest.test_case "check + validate" `Quick
            test_floorplanner_check_and_validate;
          Alcotest.test_case "validate rejects bad plans" `Quick
            test_validate_rejects_bad_plans;
          Alcotest.test_case "quick capacity check" `Quick
            test_quick_capacity_check;
        ] );
      ( "fp-cache",
        [
          Alcotest.test_case "counters and permutation" `Quick
            test_cache_counters_and_permutation;
          Alcotest.test_case "invalidate by device" `Quick
            test_cache_invalidate_device;
          Alcotest.test_case "unknown stored and replayed" `Quick
            test_cache_unknown_replayed;
          Alcotest.test_case "stripe stats sum" `Quick
            test_cache_stripe_stats_sum;
          Alcotest.test_case "L1 epoch flush" `Quick test_cache_l1_epoch_flush;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_cache_concurrent_matches_oracle;
          QCheck_alcotest.to_alcotest prop_engines_consistent;
          QCheck_alcotest.to_alcotest prop_grid_candidates_identical;
          QCheck_alcotest.to_alcotest prop_packer_v2_agrees_v1;
          QCheck_alcotest.to_alcotest prop_bitset_v1_matches_reference;
          QCheck_alcotest.to_alcotest prop_fast_prune_matches_reference;
          QCheck_alcotest.to_alcotest prop_cache_verdict_transparent;
        ] );
    ]
