(* A/B comparison and release guards over recorded run directories.

   [compare_runs] reads the section logs of two runs and reports, per
   section, the per-group deltas (iterations, makespans), any makespan
   regression of B against A, and any verdict divergence (a correctness
   flag that A recorded true and B recorded false). The comparison never
   re-executes anything — two committed or CI-archived run directories
   are enough to reproduce it.

   [check] is the single-run release gate that replaces the hand-coded
   CI threshold scripts: every guard is derived from the recorded
   logs — engines identical, verdicts agreed, makespans never worse,
   SW-capable fault policies fully recovering — plus the
   honest-parallelism guards (recorded cores and effective width at
   least what the caller demands, jobs=1 bit-identical, scaling speedup
   at least a floor on the large groups). *)

module Json = Resched_util.Json

let get path j = Json.path path j

let get_bool path j = Option.bind (get path j) Json.get_bool
let get_int path j = Option.bind (get path j) Json.get_int
let get_float path j = Option.bind (get path j) Json.get_float

(* ------------------------------------------------------------------ *)
(* Guard plumbing: each guard pushes a verdict line; [finish] prints    *)
(* them and computes the exit code.                                     *)

type verdicts = {
  mutable failures : string list;
  mutable notes : string list;
}

let new_verdicts () = { failures = []; notes = [] }

let fail v fmt =
  Printf.ksprintf (fun s -> v.failures <- s :: v.failures) fmt

let note v fmt = Printf.ksprintf (fun s -> v.notes <- s :: v.notes) fmt

let finish ~label v =
  List.iter (fun n -> Printf.printf "  %s\n" n) (List.rev v.notes);
  match v.failures with
  | [] ->
    Printf.printf "%s: OK\n" label;
    0
  | fs ->
    List.iter (fun f -> Printf.printf "  FAIL %s\n" f) (List.rev fs);
    Printf.printf "%s: %d guard(s) failed\n" label (List.length fs);
    1

(* ------------------------------------------------------------------ *)
(* Single-run guards (the [check] subcommand)                          *)

let each_group j ~list_field f =
  match Option.bind (Json.member list_field j) Json.to_list with
  | None -> ()
  | Some gs -> List.iter f gs

let check_iteration ?max_minor_words_per_iter v j =
  (match max_minor_words_per_iter with
  | None -> ()
  | Some cap -> (
    match get_float [ "alloc"; "max_minor_words_per_iter" ] j with
    | Some w when w > cap ->
      fail v
        "iteration: worst SoA kernel allocation %.0f minor words/iter above \
         the %.0f cap (allocation regression)"
        w cap
    | Some w ->
      note v "iteration: worst SoA kernel allocation %.0f minor words/iter \
              (cap %.0f)" w cap
    | None ->
      fail v
        "iteration: no alloc.max_minor_words_per_iter recorded but a cap \
         was required"));
  (match get_float [ "alloc"; "min_alloc_ratio" ] j with
  | Some r -> note v "iteration: reference/SoA allocation reduction >= x%.1f" r
  | None -> ());
  each_group j ~list_field:"groups" (fun g ->
      let tasks = Option.value ~default:(-1) (get_int [ "tasks" ] g) in
      (match (get_int [ "makespan_new" ] g, get_int [ "makespan_old" ] g) with
      | Some n, Some o when n > o ->
        fail v "iteration: %d-task group makespan %d > %d (regression)" tasks n
          o
      | _ -> ());
      if get_bool [ "identical" ] g = Some false then
        fail v
          "iteration: %d-task group arena kernel differs from the \
           reference pipeline"
          tasks);
  if get_bool [ "all_identical" ] j <> Some true then
    fail v "iteration: all_identical is not true";
  if get_bool [ "never_worse" ] j <> Some true then
    fail v "iteration: never_worse is not true"

let check_milp v j =
  if get_bool [ "lp_kernel"; "all_agree" ] j <> Some true then
    fail v "milp: LP kernel verdicts differ between tableau and revised";
  each_group j ~list_field:"bnb" (fun g ->
      let tasks = Option.value ~default:(-1) (get_int [ "tasks" ] g) in
      if get_bool [ "objectives_agree" ] g = Some false then
        fail v "milp: %d-task ILP proved-optimal objectives differ" tasks;
      if get_bool [ "never_worse" ] g = Some false then
        fail v "milp: %d-task ILP revised makespan worse than tableau" tasks);
  if get_bool [ "engines_agree" ] j <> Some true then
    fail v "milp: engines_agree is not true";
  if get_bool [ "never_worse" ] j <> Some true then
    fail v "milp: never_worse is not true";
  match get_float [ "bnb_totals"; "nodes_per_s_speedup" ] j with
  | Some s -> note v "milp: revised nodes/sec speedup at jobs=1: x%.2f" s
  | None -> ()

let check_floorplan v j =
  each_group j ~list_field:"groups" (fun g ->
      let tasks = Option.value ~default:(-1) (get_int [ "tasks" ] g) in
      if get_bool [ "identical" ] g = Some false then
        fail v
          "floorplan: %d-task group packer v2 contradicts (or is less \
           decisive than) v1"
          tasks;
      match (get_int [ "makespan_v2" ] g, get_int [ "makespan_v1" ] g) with
      | Some b, Some a when b > a ->
        fail v "floorplan: %d-task group PA-R makespan %d (v2) > %d (v1)"
          tasks b a
      | _ -> ());
  if get_bool [ "all_identical" ] j <> Some true then
    fail v "floorplan: all_identical is not true";
  if get_bool [ "makespans_never_worse" ] j <> Some true then
    fail v "floorplan: makespans_never_worse is not true";
  (match get_float [ "speedup_large_groups" ] j with
  | Some s -> note v "floorplan: oracle checks/s speedup (large groups): x%.2f" s
  | None -> ());
  match get_float [ "cache"; "combined_hit_rate" ] j with
  | Some r -> note v "floorplan: oracle-replay cache combined hit rate %.3f" r
  | None -> ()

let check_faults v j =
  each_group j ~list_field:"campaigns" (fun c ->
      let tasks = Option.value ~default:(-1) (get_int [ "tasks" ] c) in
      let policy =
        Option.value ~default:"?"
          (Option.bind (Json.member "policy" c) Json.get_string)
      in
      if get_bool [ "all_valid" ] c = Some false then
        fail v "faults: %d-task %s produced an invalid repaired schedule"
          tasks policy;
      match (policy, get_float [ "survival_rate" ] c) with
      | ("sw-fallback" | "resched-tail"), Some r when r < 1.0 ->
        fail v
          "faults: %d-task %s survival %.3f < 1.0; SW-capable policies must \
           recover every fault on suite instances"
          tasks policy r
      | _ -> ());
  if get_bool [ "sw_policies_full_recovery" ] j <> Some true then
    fail v "faults: sw_policies_full_recovery is not true";
  if get_bool [ "all_valid" ] j <> Some true then
    fail v "faults: all_valid is not true"

let check_parallel v ~min_cores ~min_speedup j =
  let cores = Option.value ~default:0 (get_int [ "cores" ] j) in
  let requested = Option.value ~default:0 (get_int [ "jobs_requested" ] j) in
  let effective = Option.value ~default:0 (get_int [ "jobs_effective" ] j) in
  note v "parallel: cores=%d, jobs requested=%d effective=%d%s" cores
    requested effective
    (if get_bool [ "downgraded" ] j = Some true then " (DOWNGRADED)" else "");
  (match min_cores with
  | Some m when cores < m ->
    fail v
      "parallel: recorded cores=%d < required %d — this run cannot back a \
       parallel-scaling claim"
      cores m
  | Some m when effective < Stdlib.min m requested ->
    fail v "parallel: jobs_effective=%d below required width %d" effective
      (Stdlib.min m requested)
  | _ -> ());
  if get_bool [ "jobs1_bit_identical" ] j <> Some true then
    fail v "parallel: jobs=1 is not bit-identical to the sequential engine";
  if get_bool [ "never_worse" ] j <> Some true then
    fail v "parallel: widest width is worse than jobs=1 on some group";
  match (min_speedup, get_float [ "speedup_large_groups" ] j) with
  | None, _ -> ()
  | Some floor, Some s ->
    if s < floor then
      fail v
        "parallel: large-group iteration speedup x%.2f below required x%.2f"
        s floor
    else note v "parallel: large-group iteration speedup x%.2f (>= x%.2f)" s
        floor
  | Some floor, None ->
    if get_bool [ "parallel_measurable" ] j = Some false then
      fail v
        "parallel: speedup not measurable (single-core run) but a x%.2f \
         floor was required"
        floor
    else fail v "parallel: no speedup_large_groups recorded"

(* The batch engine's correctness contract is unconditional: every
   instance's outcome must be bit-identical to its sequential run,
   whatever the interleaving. The throughput speedup is informational
   only — a CI smoke run on 2 cores with a couple of instances cannot
   back a fleet-throughput claim, so no floor is enforced here (the
   recorded full runs carry it). *)
let check_batch v j =
  each_group j ~list_field:"instances" (fun g ->
      let tasks = Option.value ~default:(-1) (get_int [ "tasks" ] g) in
      let idx = Option.value ~default:(-1) (get_int [ "idx" ] g) in
      if get_bool [ "identical" ] g = Some false then
        fail v
          "batch: instance (%d tasks, #%d) diverged from its sequential \
           one-at-a-time run"
          tasks idx);
  if get_bool [ "all_identical" ] j <> Some true then
    fail v "batch: all_identical is not true";
  match (get_float [ "speedup" ] j, get_int [ "jobs" ] j) with
  | Some s, Some jobs ->
    note v "batch: x%.2f instances/s vs one-at-a-time at jobs=%d" s jobs
  | _ -> ()

(* The move kernel's contract mirrors the iteration section's: zero
   divergence from the from-scratch oracle (bit-identity is the whole
   point of keeping the boxed pipeline around), the LNS driver never
   worse than PA-R at equal wall budget, and optionally a floor on the
   move-evaluation speedup against the full re-evaluation pipeline. *)
let check_moves ?min_move_speedup v j =
  each_group j ~list_field:"groups" (fun g ->
      let tasks = Option.value ~default:(-1) (get_int [ "tasks" ] g) in
      (match get_int [ "divergences" ] g with
      | Some d when d > 0 ->
        fail v "moves: %d-task group has %d incremental/oracle divergence(s)"
          tasks d
      | _ -> ());
      if get_bool [ "lns_not_worse" ] g = Some false then
        fail v
          "moves: %d-task group LNS makespan worse than PA-R at equal budget"
          tasks);
  if get_bool [ "all_agree" ] j <> Some true then
    fail v "moves: all_agree is not true";
  if get_bool [ "lns_never_worse" ] j <> Some true then
    fail v "moves: lns_never_worse is not true";
  (match get_int [ "divergences" ] j with
  | Some 0 -> ()
  | Some d -> fail v "moves: %d divergence(s) recorded" d
  | None -> fail v "moves: no divergence count recorded");
  match (min_move_speedup, get_float [ "min_speedup" ] j) with
  | None, Some s ->
    note v "moves: min move-evaluation speedup x%.2f vs the full pipeline" s
  | None, None -> ()
  | Some floor, Some s ->
    if s < floor then
      fail v "moves: min move-evaluation speedup x%.2f below required x%.2f" s
        floor
    else
      note v "moves: min move-evaluation speedup x%.2f (>= x%.2f)" s floor
  | Some floor, None ->
    fail v "moves: no min_speedup recorded but a x%.2f floor was required"
      floor

(* The serve section's robustness contract: under every offered load
   the admission-queue bound held, no response arrived after its
   deadline plus the recorded slack, every schedule that left the
   server validated, and the sequential identity pass matched the
   offline solver bit-for-bit. Shed counts and tail latencies are
   informational — overload is supposed to shed, loudly. *)
let check_serve v j =
  each_group j ~list_field:"loads" (fun g ->
      let load = Option.value ~default:(-1) (get_int [ "load" ] g) in
      (match get_int [ "overruns" ] g with
      | Some o when o > 0 ->
        fail v "serve: %d deadline overrun(s) at load %dx" o load
      | _ -> ());
      (match get_int [ "invalid_schedules" ] g with
      | Some i when i > 0 ->
        fail v "serve: %d invalid schedule(s) served at load %dx" i load
      | _ -> ());
      if get_bool [ "queue_bound_ok" ] g = Some false then
        fail v "serve: admission-queue bound exceeded at load %dx" load;
      match
        ( get_int [ "shed"; "queue_full" ] g,
          get_float [ "p99_ms" ] g )
      with
      | Some shed, Some p99 ->
        note v "serve: load %dx shed %d (queue_full), p99 %.1f ms" load shed
          p99
      | _ -> ());
  if get_bool [ "zero_overruns" ] j <> Some true then
    fail v "serve: zero_overruns is not true";
  if get_bool [ "zero_invalid" ] j <> Some true then
    fail v "serve: zero_invalid is not true";
  if get_bool [ "queue_bound_ok" ] j <> Some true then
    fail v "serve: queue_bound_ok is not true";
  if get_bool [ "identity_ok" ] j <> Some true then
    fail v "serve: served responses diverged from the offline solver"

(* The serve_concurrency section's contract (ISSUE 10): dispatch is
   fair across simultaneous clients (max/min goodput <= 2 at 4
   clients), a flooding connection never head-of-line-blocks a sparse
   one, transport responses stay bit-identical to the offline solver,
   no client saw an error, and — on hosts with at least 2 serving
   workers — 4 concurrent clients clear the recorded throughput floor
   over 1 client. *)
let check_serve_concurrency v j =
  each_group j ~list_field:"levels" (fun g ->
      let clients = Option.value ~default:(-1) (get_int [ "clients" ] g) in
      (match get_int [ "errors" ] g with
      | Some e when e > 0 ->
        fail v "serve_concurrency: %d client error(s) at %d client(s)" e
          clients
      | _ -> ());
      match
        (get_float [ "throughput_rps" ] g, get_float [ "fairness_ratio" ] g)
      with
      | Some tput, Some fair ->
        note v "serve_concurrency: %d client(s) %.1f req/s, fairness %.2f"
          clients tput fair
      | _ -> ());
  if get_bool [ "fairness_ok" ] j <> Some true then
    fail v "serve_concurrency: per-client goodput ratio exceeded 2 at 4 \
            clients";
  if get_bool [ "no_holb" ] j <> Some true then
    fail v "serve_concurrency: sparse client was head-of-line-blocked (%d \
            dispatches)"
      (Option.value ~default:(-1) (get_int [ "holb_dispatches" ] j));
  if get_bool [ "identity_ok" ] j <> Some true then
    fail v "serve_concurrency: transport responses diverged from the \
            offline solver";
  match
    ( get_bool [ "concurrency_measurable" ] j,
      get_bool [ "throughput_ok" ] j,
      get_float [ "speedup_4c_over_1c" ] j,
      get_float [ "throughput_floor" ] j )
  with
  | Some true, ok, Some s, Some floor ->
    if ok <> Some true then
      fail v
        "serve_concurrency: 4-client speedup x%.2f below the x%.2f floor" s
        floor
    else
      note v "serve_concurrency: 4-client speedup x%.2f (floor x%.2f)" s
        floor
  | Some false, _, _, _ ->
    note v
      "serve_concurrency: single-worker host, throughput gate waived \
       (fairness/HOLB/identity still enforced)"
  | _ -> fail v "serve_concurrency: missing measurability or speedup fields"

(* Sections [check] knows how to audit, with their guard functions.
   Missing sections are skipped with a note (a partial run can still be
   checked) unless [require_all] is set. *)
let checkable_sections ~min_cores ~min_speedup ~max_minor_words_per_iter
    ~min_move_speedup =
  [
    ("parallel", check_parallel ~min_cores ~min_speedup);
    ("iteration", check_iteration ?max_minor_words_per_iter);
    ("batch", check_batch);
    ("serve", check_serve);
    ("serve_concurrency", check_serve_concurrency);
    ("milp", check_milp);
    ("floorplan", check_floorplan);
    ("faults", check_faults);
    ("moves", check_moves ?min_move_speedup);
  ]

let check ?run ?min_cores ?min_speedup ?max_minor_words_per_iter
    ?min_move_speedup ?(require_all = false) () =
  let r = Run_store.find run in
  (match (run, r) with
  | Some arg, None ->
    Printf.printf "check: run %s not found (using legacy BENCH_*.json only)\n"
      arg
  | _, Some r -> Printf.printf "check: auditing %s\n" r.Run_store.dir
  | None, None -> Printf.printf "check: auditing legacy BENCH_*.json\n");
  let v = new_verdicts () in
  List.iter
    (fun (section, guard) ->
      match Run_store.load_section r section with
      | Ok j -> guard v j
      | Error e ->
        if require_all then fail v "%s: %s" section e
        else note v "%s: skipped (%s)" section e)
    (checkable_sections ~min_cores ~min_speedup ~max_minor_words_per_iter
       ~min_move_speedup);
  finish ~label:"check" v

(* ------------------------------------------------------------------ *)
(* Two-run comparison (the [ab] subcommand)                            *)

(* Index a parallel log's widest measurement by tasks. *)
let widest_rows j =
  match Option.bind (Json.member "measurements" j) Json.to_list with
  | None -> []
  | Some ms ->
    let widest =
      List.fold_left
        (fun best m ->
          match (best, get_int [ "jobs_effective" ] m) with
          | None, Some _ -> Some m
          | Some b, Some e
            when e > Option.value ~default:0 (get_int [ "jobs_effective" ] b)
            -> Some m
          | _ -> best)
        None ms
    in
    (match Option.bind widest (fun m -> Option.bind (Json.member "rows" m) Json.to_list) with
    | None -> []
    | Some rows ->
      List.filter_map
        (fun r ->
          match
            ( get_int [ "tasks" ] r,
              get_int [ "iterations" ] r,
              get_int [ "makespan" ] r )
          with
          | Some t, Some it, Some ms -> Some (t, (it, ms))
          | _ -> None)
        rows)

(* Correctness flags whose true->false transition between A and B is a
   divergence. *)
let verdict_flags =
  [
    ("parallel", [ "jobs1_bit_identical" ]);
    ("parallel", [ "never_worse" ]);
    ("iteration", [ "all_identical" ]);
    ("iteration", [ "never_worse" ]);
    ("batch", [ "all_identical" ]);
    ("serve", [ "zero_overruns" ]);
    ("serve", [ "zero_invalid" ]);
    ("serve", [ "queue_bound_ok" ]);
    ("serve", [ "identity_ok" ]);
    ("serve_concurrency", [ "fairness_ok" ]);
    ("serve_concurrency", [ "no_holb" ]);
    ("serve_concurrency", [ "identity_ok" ]);
    ("serve_concurrency", [ "throughput_ok" ]);
    ("milp", [ "engines_agree" ]);
    ("milp", [ "never_worse" ]);
    ("milp", [ "lp_kernel"; "all_agree" ]);
    ("floorplan", [ "all_identical" ]);
    ("floorplan", [ "makespans_never_worse" ]);
    ("faults", [ "sw_policies_full_recovery" ]);
    ("faults", [ "all_valid" ]);
    ("moves", [ "all_agree" ]);
    ("moves", [ "lns_never_worse" ]);
  ]

let compare_runs (a : Run_store.run) (b : Run_store.run) =
  let load r section = Run_store.load_section (Some r) section in
  let v = new_verdicts () in
  (* Coverage audit first: a comparison that silently matches zero
     sections reads as "no regressions" when it actually compared
     nothing. Partial overlap is explicitly noted; empty overlap is a
     failure. *)
  let sa = Run_store.sections_present a
  and sb = Run_store.sections_present b in
  let only_a = List.filter (fun s -> not (List.mem s sb)) sa
  and only_b = List.filter (fun s -> not (List.mem s sa)) sb in
  let shared = List.filter (fun s -> List.mem s sb) sa in
  if only_a <> [] then
    note v "WARNING: section(s) only in %s: %s" a.Run_store.id
      (String.concat ", " only_a);
  if only_b <> [] then
    note v "WARNING: section(s) only in %s: %s" b.Run_store.id
      (String.concat ", " only_b);
  if shared = [] && (sa <> [] || sb <> []) then
    fail v
      "runs share no section logs (%s: %s | %s: %s) — nothing was compared"
      a.Run_store.id
      (if sa = [] then "none" else String.concat ", " sa)
      b.Run_store.id
      (if sb = [] then "none" else String.concat ", " sb);
  let group_deltas = ref [] in
  (match (load a "parallel", load b "parallel") with
  | Ok ja, Ok jb ->
    let ra = widest_rows ja and rb = widest_rows jb in
    List.iter
      (fun (tasks, (it_b, ms_b)) ->
        match List.assoc_opt tasks ra with
        | None -> ()
        | Some (it_a, ms_a) ->
          group_deltas :=
            Json.Obj
              [
                ("tasks", Json.Int tasks);
                ("iterations_a", Json.Int it_a);
                ("iterations_b", Json.Int it_b);
                ( "iteration_ratio",
                  Json.float
                    (float_of_int it_b /. float_of_int (Stdlib.max 1 it_a)) );
                ("makespan_a", Json.Int ms_a);
                ("makespan_b", Json.Int ms_b);
                ("makespan_delta", Json.Int (ms_b - ms_a));
              ]
            :: !group_deltas;
          note v
            "parallel %3d tasks: iters %d -> %d (x%.2f), makespan %d -> %d \
             (%+d)"
            tasks it_a it_b
            (float_of_int it_b /. float_of_int (Stdlib.max 1 it_a))
            ms_a ms_b (ms_b - ms_a);
          if ms_b > ms_a then
            fail v
              "parallel: %d-task group makespan regressed %d -> %d (B worse \
               than A)"
              tasks ms_a ms_b)
      rb
  | Error e, _ -> note v "parallel: skipped for %s (%s)" a.Run_store.id e
  | _, Error e -> note v "parallel: skipped for %s (%s)" b.Run_store.id e);
  let divergences = ref [] in
  List.iter
    (fun (section, path) ->
      match (load a section, load b section) with
      | Ok ja, Ok jb -> (
        match (get_bool path ja, get_bool path jb) with
        | Some true, Some false ->
          let name = section ^ "." ^ String.concat "." path in
          divergences := name :: !divergences;
          fail v "verdict divergence: %s was true in %s, false in %s" name
            a.Run_store.id b.Run_store.id
        | _ -> ())
      | _ -> ())
    verdict_flags;
  (* S1: per-section GC counters from the two manifests — allocation
     drift on the orchestrating domain, informational (never a
     failure: absolute rates shift with groups/iteration knobs). *)
  let gc_deltas = ref [] in
  (match (Run_store.load_manifest a, Run_store.load_manifest b) with
  | Ok ma, Ok mb -> (
    match
      ( Option.bind (Json.member "sections_gc" ma) (function
          | Json.Obj kvs -> Some kvs
          | _ -> None),
        Option.bind (Json.member "sections_gc" mb) (function
          | Json.Obj kvs -> Some kvs
          | _ -> None) )
    with
    | Some ga, Some gb ->
      List.iter
        (fun (section, jb') ->
          match List.assoc_opt section ga with
          | None -> ()
          | Some ja' -> (
            match
              ( get_float [ "minor_words" ] ja',
                get_float [ "minor_words" ] jb' )
            with
            | Some wa, Some wb ->
              let majors label j =
                Option.value ~default:0 (get_int [ label ] j)
              in
              gc_deltas :=
                Json.Obj
                  [
                    ("section", Json.String section);
                    ("minor_words_a", Json.float wa);
                    ("minor_words_b", Json.float wb);
                    ( "minor_words_ratio",
                      Json.float (wb /. Float.max wa 1.) );
                    ( "major_collections_a",
                      Json.Int (majors "major_collections" ja') );
                    ( "major_collections_b",
                      Json.Int (majors "major_collections" jb') );
                  ]
                :: !gc_deltas;
              note v
                "gc %-10s minor words %.2e -> %.2e (x%.2f), major \
                 collections %d -> %d"
                section wa wb
                (wb /. Float.max wa 1.)
                (majors "major_collections" ja')
                (majors "major_collections" jb')
            | _ -> ()))
        gb
    | _ -> ())
  | _ -> ());
  let report =
    Json.Obj
      [
        ("schema", Json.String "resched-bench-ab/1");
        ("run_a", Json.String a.Run_store.id);
        ("run_b", Json.String b.Run_store.id);
        ( "sections_only_a",
          Json.List (List.map (fun s -> Json.String s) only_a) );
        ( "sections_only_b",
          Json.List (List.map (fun s -> Json.String s) only_b) );
        ("groups", Json.List (List.rev !group_deltas));
        ("sections_gc", Json.List (List.rev !gc_deltas));
        ( "divergences",
          Json.List (List.map (fun d -> Json.String d) (List.rev !divergences))
        );
        ("regressions", Json.Int (List.length v.failures));
        ("ok", Json.Bool (v.failures = []));
      ]
  in
  (report, v)

let ab ?run_a ?run_b ?out () =
  let resolve label arg =
    match Run_store.find arg with
    | Some r -> r
    | None ->
      failwith
        (Printf.sprintf "ab: run %s not found" (Option.value ~default:label arg))
  in
  let a, b =
    match (run_a, run_b) with
    | Some a, Some b -> (resolve "A" (Some a), resolve "B" (Some b))
    | _ -> (
      (* Default: the two most recent runs, older as A. *)
      match List.rev (Run_store.list_runs ()) with
      | b :: a :: _ -> (a, b)
      | _ -> failwith "ab: need two recorded runs (or pass two run ids)")
  in
  Printf.printf "ab: A=%s  B=%s\n" a.Run_store.dir b.Run_store.dir;
  let report, v = compare_runs a b in
  (match out with
  | Some path ->
    Json.write_file path report;
    Printf.printf "  [json] %s\n" path
  | None -> ());
  finish ~label:"ab" v
