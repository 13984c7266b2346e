(* Unit tests for the core scheduler's support modules: the validator's
   violation detection (by corrupting known-good schedules), the timing
   resolver, reconfiguration sequencing, the working state, Gantt
   rendering and metrics. *)

module Rng = Resched_util.Rng
module Resource = Resched_fabric.Resource
module Graph = Resched_taskgraph.Graph
module Impl = Resched_platform.Impl
module Arch = Resched_platform.Arch
module Instance = Resched_platform.Instance
module Suite = Resched_platform.Suite
module Pa = Resched_core.Pa
module Schedule = Resched_core.Schedule
module Validate = Resched_core.Validate
module State = Resched_core.State
module Timing = Resched_core.Timing
module Gantt = Resched_core.Gantt
module Metrics = Resched_core.Metrics
module Impl_select = Resched_core.Impl_select
module Sw_map = Resched_core.Sw_map
module Reconf_sched = Resched_core.Reconf_sched
module Reference = Resched_reference.Reference
module Cpm = Resched_taskgraph.Cpm
module Regions_define = Resched_core.Regions_define
module Sw_balance = Resched_core.Sw_balance

let good_schedule () =
  let rng = Rng.create 2 in
  let inst = Suite.instance rng ~tasks:15 in
  let sched, _ = Pa.run inst in
  (match Validate.check sched with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "fixture schedule must be valid");
  sched

let has_code code = List.exists (fun (v : Validate.violation) -> v.code = code)

let expect_violation code sched =
  match Validate.check sched with
  | Ok () -> Alcotest.failf "expected violation %s, got Ok" code
  | Error vs ->
    if not (has_code code vs) then
      Alcotest.failf "expected violation %s, got [%s]" code
        (String.concat "; "
           (List.map (fun (v : Validate.violation) -> v.code) vs))

let test_validate_detects_dep_violation () =
  let sched = good_schedule () in
  (* Pull some dependent task before its predecessor ends. *)
  let u, v =
    match Graph.edges sched.Schedule.instance.Instance.graph with
    | (u, v) :: _ -> (u, v)
    | [] -> Alcotest.fail "fixture has no edge"
  in
  ignore u;
  let slots = Array.copy sched.Schedule.slots in
  let s = slots.(v) in
  slots.(v) <-
    { s with Schedule.start_ = 0; end_ = s.Schedule.end_ - s.Schedule.start_ };
  expect_violation "DEP" { sched with Schedule.slots = slots }

let test_validate_detects_bad_makespan () =
  let sched = good_schedule () in
  expect_violation "SPAN" { sched with Schedule.makespan = 1 }

let test_validate_detects_slot_length_mismatch () =
  let sched = good_schedule () in
  let slots = Array.copy sched.Schedule.slots in
  let s = slots.(0) in
  slots.(0) <- { s with Schedule.end_ = s.Schedule.end_ + 1 };
  expect_violation "TIME" { sched with Schedule.slots = slots }

let test_validate_detects_missing_reconfiguration () =
  (* Find a schedule with at least one reconfiguration and drop it. *)
  let rec find seed =
    if seed > 40 then Alcotest.fail "no fixture with reconfigurations"
    else begin
      let rng = Rng.create seed in
      let inst = Suite.instance rng ~tasks:20 in
      let sched, _ = Pa.run inst in
      if sched.Schedule.reconfigurations <> [] && Validate.check sched = Ok ()
      then sched
      else find (seed + 1)
    end
  in
  let sched = find 1 in
  expect_violation "RECONF" { sched with Schedule.reconfigurations = [] }

let test_validate_detects_controller_overlap () =
  let rec find seed =
    if seed > 60 then Alcotest.fail "no fixture with two reconfigurations"
    else begin
      let rng = Rng.create seed in
      let inst = Suite.instance rng ~tasks:25 in
      let sched, _ = Pa.run inst in
      if List.length sched.Schedule.reconfigurations >= 2
         && Validate.check sched = Ok ()
      then sched
      else find (seed + 1)
    end
  in
  let sched = find 1 in
  (* Shift every reconfiguration to start at the same instant; keep each
     inside its region window by construction? Simply clone the first
     reconfiguration's slot onto the second: controller overlap. *)
  let rcs =
    match sched.Schedule.reconfigurations with
    | a :: b :: tl ->
      { b with Schedule.r_start = a.Schedule.r_start;
        r_end = a.Schedule.r_start + (b.Schedule.r_end - b.Schedule.r_start) }
      :: a :: tl
    | l -> l
  in
  expect_violation "CTRL" { sched with Schedule.reconfigurations = rcs }

let test_validate_detects_overcapacity () =
  let sched = good_schedule () in
  if Array.length sched.Schedule.regions = 0 then
    Alcotest.fail "fixture has no region"
  else begin
    let regions = Array.copy sched.Schedule.regions in
    let r = regions.(0) in
    regions.(0) <-
      { r with Schedule.res = Resource.make ~clb:1_000_000 ~bram:0 ~dsp:0 };
    expect_violation "CAP" { sched with Schedule.regions = regions }
  end

let test_validate_detects_bad_floorplan () =
  let sched = good_schedule () in
  match sched.Schedule.floorplan with
  | Some placements when Array.length placements >= 2 ->
    let p = Array.copy placements in
    p.(1) <- p.(0);
    expect_violation "PLAN" { sched with Schedule.floorplan = Some p }
  | _ -> Alcotest.fail "fixture has fewer than 2 placed regions"

let test_validate_detects_kind_mismatch () =
  let sched = good_schedule () in
  (* Find a HW task and claim it runs on a processor. *)
  let slots = Array.copy sched.Schedule.slots in
  let idx = ref (-1) in
  Array.iteri
    (fun i (s : Schedule.task_slot) ->
      match s.Schedule.placement with
      | Schedule.On_region _ when !idx = -1 -> idx := i
      | _ -> ())
    slots;
  if !idx = -1 then Alcotest.fail "fixture has no HW task"
  else begin
    let s = slots.(!idx) in
    slots.(!idx) <- { s with Schedule.placement = Schedule.On_processor 0 };
    expect_violation "KIND" { sched with Schedule.slots = slots }
  end

(* ---- timing resolver ---- *)

let two_region_state () =
  let graph = Graph.create 4 in
  Graph.add_edge graph 0 1;
  let res = Resource.make ~clb:100 ~bram:0 ~dsp:0 in
  let impls =
    Array.init 4 (fun i ->
        [| Impl.sw ~time:10_000; Impl.hw ~time:(100 + (10 * i)) ~res () |])
  in
  let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let state = State.create inst ~impl_of:[| 1; 1; 1; 1 |] () in
  state

let test_timing_resolve_respects_sequence () =
  let state = two_region_state () in
  let r0 = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  let r1 = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  State.assign_to_region state ~task:0 r0;
  State.assign_to_region state ~task:1 r0;
  State.assign_to_region state ~task:2 r1;
  State.assign_to_region state ~task:3 r1;
  let specs = Timing.reconf_specs state in
  Alcotest.(check int) "two reconfigurations" 2 (Array.length specs);
  let resolved01 = Reference.resolve state ~reconfigs:specs ~sequence:[ 0; 1 ] in
  let resolved10 = Reference.resolve state ~reconfigs:specs ~sequence:[ 1; 0 ] in
  (* In both orders the controller is exclusive. *)
  List.iter
    (fun (r : Timing.resolved) ->
      let s0, e0 = (r.Timing.rec_start.(0), r.Timing.rec_end.(0)) in
      let s1, e1 = (r.Timing.rec_start.(1), r.Timing.rec_end.(1)) in
      Alcotest.(check bool) "no controller overlap" true (e0 <= s1 || e1 <= s0))
    [ resolved01; resolved10 ]

let solver_of_state state ~reconfigs =
  Timing.Solver.of_plan ~graph:state.State.dep
    ~durations:(Array.init (Instance.size state.State.inst) (State.duration state))
    ~reconfigs

let check_resolved name (a : Timing.resolved) (b : Timing.resolved) =
  Alcotest.(check (array int))
    (name ^ ": task_start")
    a.Timing.task_start b.Timing.task_start;
  Alcotest.(check (array int))
    (name ^ ": task_end")
    a.Timing.task_end b.Timing.task_end;
  Alcotest.(check (array int))
    (name ^ ": rec_start")
    a.Timing.rec_start b.Timing.rec_start;
  Alcotest.(check (array int))
    (name ^ ": rec_end")
    a.Timing.rec_end b.Timing.rec_end;
  Alcotest.(check int) (name ^ ": makespan") a.Timing.makespan b.Timing.makespan

let test_solver_matches_from_scratch_resolve () =
  let state = two_region_state () in
  let r0 = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  let r1 = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  State.assign_to_region state ~task:0 r0;
  State.assign_to_region state ~task:1 r0;
  State.assign_to_region state ~task:2 r1;
  State.assign_to_region state ~task:3 r1;
  let specs = Timing.reconf_specs state in
  let solver = solver_of_state state ~reconfigs:specs in
  (* The solver's scratch arrays are rewound by every resolve: replaying
     a sequence after another one must reproduce the from-scratch answer
     bit for bit. *)
  List.iter
    (fun sequence ->
      let name =
        String.concat "," (List.map string_of_int sequence) |> ( ^ ) "seq "
      in
      check_resolved name
        (Reference.resolve state ~reconfigs:specs ~sequence)
        (Timing.Solver.resolve solver ~sequence))
    [ [ 0; 1 ]; [ 1; 0 ]; [ 0; 1 ] ]

let test_solver_matches_resolve_on_pipeline_state () =
  (* A state shaped by the real pipeline (region + processor ordering
     edges, software switches) instead of a hand-built fixture: step 7's
     arena plan must hold the reference's sequence and from-scratch
     times, and a list-driven solver must agree with both. *)
  let rng = Rng.create 50 in
  let inst = Suite.instance rng ~tasks:25 in
  let impl_of = Impl_select.run inst ~max_res:(Arch.max_res inst.Instance.arch) in
  let state = State.create inst ~impl_of () in
  Resched_core.Regions_define.run
    ~ordering:Resched_core.Regions_define.By_efficiency state;
  Resched_core.Sw_balance.run state;
  Sw_map.run state;
  let specs, sequence = Reference.reconf_sched state in
  let reference = Reference.resolve state ~reconfigs:specs ~sequence in
  let plan = Reconf_sched.run_hot (Reconf_sched.make_arena ()) state in
  Alcotest.(check (list int)) "arena sequence = reference sequence" sequence
    (List.init plan.Reconf_sched.p_len (fun i -> plan.Reconf_sched.p_seq.(i)));
  check_resolved "arena plan" reference plan.Reconf_sched.p_times;
  let solver = solver_of_state state ~reconfigs:specs in
  check_resolved "pipeline sequence" reference
    (Timing.Solver.resolve solver ~sequence)

(* Linking a reconfiguration ahead of one it must follow closes a cycle
   through the dependencies: [insert] must raise [Graph.Cycle] instead
   of raising the times around the cycle forever. *)
let test_solver_insert_cycle_raises () =
  let state = two_region_state () in
  State.add_edge state 1 2;
  State.add_edge state 2 3;
  State.refresh_windows state;
  let r0 = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  let r1 = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  List.iter (fun task -> State.assign_to_region state ~task r0) [ 0; 1 ];
  List.iter (fun task -> State.assign_to_region state ~task r1) [ 2; 3 ];
  let specs = Timing.reconf_specs state in
  Alcotest.(check int) "two reconfigurations" 2 (Array.length specs);
  Alcotest.(check bool) "the first must precede the second" true
    (Reference.must_precede state specs.(0) specs.(1));
  let solver = Timing.Solver.scratch () in
  Timing.Solver.reload solver state ~reconfigs:specs;
  Timing.Solver.start solver;
  Timing.Solver.insert solver ~prev:(-1) ~k:1 ~next:(-1);
  match Timing.Solver.insert solver ~prev:1 ~k:0 ~next:(-1) with
  | () -> Alcotest.fail "expected Graph.Cycle"
  | exception Graph.Cycle stuck ->
    Alcotest.(check bool) "stuck nodes reported" true (stuck <> [])

let test_timing_reuse_skips_pairs () =
  let graph = Graph.create 2 in
  Graph.add_edge graph 0 1;
  let res = Resource.make ~clb:80 ~bram:0 ~dsp:0 in
  let impls =
    Array.init 2 (fun _ ->
        [| Impl.sw ~time:9_000; Impl.hw ~module_id:3 ~time:100 ~res () |])
  in
  let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let state = State.create inst ~impl_of:[| 1; 1 |] () in
  let r = State.new_region state res in
  State.assign_to_region state ~task:0 r;
  State.assign_to_region state ~task:1 r;
  Alcotest.(check int) "reconfiguration without reuse" 1
    (Array.length (Timing.reconf_specs state));
  Alcotest.(check int) "no reconfiguration with reuse" 0
    (Array.length (Timing.reconf_specs ~module_reuse:true state))

(* ---- state ---- *)

let test_state_switch_to_sw () =
  let state = two_region_state () in
  Alcotest.(check bool) "starts hw" true (State.is_hw state 0);
  State.switch_to_sw state ~task:0;
  Alcotest.(check bool) "now sw" false (State.is_hw state 0);
  Alcotest.(check int) "duration updated" 10_000 (State.duration state 0)

let test_state_region_accounting () =
  let state = two_region_state () in
  let r0 = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  Alcotest.(check bool) "fits second region" true
    (State.fits_on_fpga state (Resource.make ~clb:100 ~bram:0 ~dsp:0));
  Alcotest.(check bool) "does not fit oversized" false
    (State.fits_on_fpga state (Resource.make ~clb:10_000 ~bram:0 ~dsp:0));
  State.assign_to_region state ~task:2 r0;
  Alcotest.(check (list int)) "hosted" [ 2 ] r0.State.tasks;
  (* reconf time for 100 CLB at default ICAP: 73 ticks. *)
  Alcotest.(check int) "region reconf" 73 r0.State.reconf

let test_state_region_edges_ordered () =
  let state = two_region_state () in
  let r0 = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  (* Tasks 2 and 3 are independent; assigning both to one region must
     insert an ordering edge. *)
  State.assign_to_region state ~task:2 r0;
  State.assign_to_region state ~task:3 r0;
  let dep = state.State.dep in
  Alcotest.(check bool) "ordering edge exists" true
    (Graph.has_edge dep 2 3 || Graph.has_edge dep 3 2)

(* ---- impl_select / sw_map ---- *)

let test_impl_select_falls_back_to_sw () =
  (* HW implementation slower than SW: SW must be selected. *)
  let graph = Graph.create 1 in
  let impls =
    [|
      [| Impl.sw ~time:50;
         Impl.hw ~time:500 ~res:(Resource.make ~clb:10 ~bram:0 ~dsp:0) () |];
    |]
  in
  let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let impl_of = Impl_select.run inst ~max_res:(Arch.max_res Arch.mini) in
  Alcotest.(check int) "sw selected" 0 impl_of.(0)

let test_sw_map_balances_processors () =
  (* Four independent SW tasks on two processors: each processor gets
     two, and the makespan is two task lengths, not four. *)
  let graph = Graph.create 4 in
  let impls = Array.init 4 (fun _ -> [| Impl.sw ~time:100 |]) in
  let inst = Instance.make ~arch:Arch.zedboard ~graph ~impls () in
  let sched, _ = Pa.run inst in
  Validate.check_exn sched;
  Alcotest.(check int) "two rounds" 200 (Schedule.makespan sched)

let test_sw_map_incremental_matches_oracle () =
  (* The marking-based pair sequencing must insert exactly the edges the
     pairwise-DFS oracle inserts, hence produce the same assignment and
     windows. *)
  let rng = Rng.create 61 in
  for _ = 1 to 5 do
    let inst = Suite.instance rng ~tasks:(10 + Rng.int rng 30) in
    let impl_of =
      Impl_select.run inst ~max_res:(Arch.max_res inst.Instance.arch)
    in
    let build incremental =
      let state = State.create inst ~impl_of () in
      Resched_core.Regions_define.run
        ~ordering:Resched_core.Regions_define.By_efficiency state;
      Resched_core.Sw_balance.run state;
      Sw_map.run ~incremental state;
      state
    in
    let a = build true and b = build false in
    Alcotest.(check (array int))
      "processor assignment" b.State.processor_of a.State.processor_of;
    Alcotest.(check (list (pair int int)))
      "augmented edges" (Graph.edges b.State.dep) (Graph.edges a.State.dep);
    let n = Instance.size inst in
    Alcotest.(check (array int)) "t_min"
      (Array.init n (State.t_min b))
      (Array.init n (State.t_min a))
  done

let test_sw_map_delay_formula () =
  let state = two_region_state () in
  Alcotest.(check int) "no delay when free early" 0
    (Sw_map.delay state ~task:2 ~last_end:0);
  Alcotest.(check int) "delay equals busy overlap" 50
    (Sw_map.delay state ~task:2 ~last_end:(State.t_min state 2 + 50))

(* ---- gantt / metrics / schedule ---- *)

let test_gantt_renders_all_lanes () =
  let sched = good_schedule () in
  let s = Gantt.render ~width:60 sched in
  let lines = String.split_on_char '\n' s in
  (* 1 header + cpus + regions (+ icap when reconfigurations exist). *)
  let expected =
    1 + 2
    + Array.length sched.Schedule.regions
    + (if sched.Schedule.reconfigurations <> [] then 1 else 0)
  in
  Alcotest.(check int) "lane count" expected
    (List.length (List.filter (fun l -> l <> "") lines))

let test_metrics_bounds () =
  let sched = good_schedule () in
  let m = Metrics.compute sched in
  Alcotest.(check bool) "utilizations in [0,1]" true
    (m.Metrics.fpga_utilization >= 0.
    && m.Metrics.fpga_utilization <= 1.
    && m.Metrics.processor_utilization >= 0.
    && m.Metrics.processor_utilization <= 1.);
  Alcotest.(check bool) "overhead in [0,1]" true
    (m.Metrics.reconfiguration_overhead >= 0.
    && m.Metrics.reconfiguration_overhead <= 1.);
  Alcotest.(check int) "task partition" 15 (m.Metrics.hw_tasks + m.Metrics.sw_tasks)

let test_schedule_accessors () =
  let sched = good_schedule () in
  Alcotest.(check int) "task counts partition" 15
    (Schedule.hw_task_count sched + Schedule.sw_task_count sched);
  Array.iteri
    (fun ridx (r : Schedule.region) ->
      Alcotest.(check (list int)) "tasks already ordered" r.Schedule.tasks
        (Schedule.region_tasks_in_order sched ridx))
    sched.Schedule.regions

let test_pa_deterministic () =
  let rng1 = Rng.create 123 and rng2 = Rng.create 123 in
  let i1 = Suite.instance rng1 ~tasks:18 in
  let i2 = Suite.instance rng2 ~tasks:18 in
  let s1, _ = Pa.run i1 and s2, _ = Pa.run i2 in
  Alcotest.(check int) "same makespan" (Schedule.makespan s1)
    (Schedule.makespan s2);
  Alcotest.(check int) "same region count"
    (Array.length s1.Schedule.regions)
    (Array.length s2.Schedule.regions)

(* ---- schedule serialization ---- *)

module Schedule_io = Resched_core.Schedule_io

let test_schedule_io_roundtrip () =
  let sched = good_schedule () in
  let text = Schedule_io.to_string sched in
  match Schedule_io.of_string text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok sched' ->
    (* The reloaded schedule must be semantically identical: it validates
       and reserializes to the same text. *)
    (match Validate.check sched' with
    | Ok () -> ()
    | Error vs ->
      Alcotest.failf "reloaded schedule invalid: %s"
        (String.concat "; "
           (List.map (fun (v : Validate.violation) -> v.message) vs)));
    Alcotest.(check string) "stable round-trip" text
      (Schedule_io.to_string sched');
    Alcotest.(check int) "same makespan" (Schedule.makespan sched)
      (Schedule.makespan sched')

let test_schedule_io_save_load () =
  let sched = good_schedule () in
  let path = Filename.temp_file "resched" ".sched" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Schedule_io.save path sched;
      match Schedule_io.load path with
      | Ok sched' ->
        Alcotest.(check int) "same makespan" (Schedule.makespan sched)
          (Schedule.makespan sched')
      | Error msg -> Alcotest.failf "load failed: %s" msg)

let test_schedule_io_rejects_garbage () =
  (match Schedule_io.of_string "not a schedule" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  let sched = good_schedule () in
  let text = Schedule_io.to_string sched in
  (* Drop the slot lines: the parser must notice the missing tasks. *)
  let broken =
    String.split_on_char '\n' text
    |> List.filter (fun l -> not (String.length l >= 4 && String.sub l 0 4 = "slot"))
    |> String.concat "\n"
  in
  match Schedule_io.of_string broken with
  | Ok _ -> Alcotest.fail "schedule without slots accepted"
  | Error _ -> ()

(* ---- communication overhead extension ---- *)

module Comm = Resched_core.Comm

let test_comm_inflates_times () =
  let graph = Graph.create 3 in
  Graph.add_edge graph 0 2;
  Graph.add_edge graph 1 2;
  let res = Resource.make ~clb:50 ~bram:0 ~dsp:0 in
  let impls =
    [|
      [| Impl.sw ~time:100 |];
      [| Impl.sw ~time:100 |];
      [| Impl.sw ~time:100; Impl.hw ~time:40 ~res () |];
    |]
  in
  let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let inflated =
    Comm.inflate ~hw_factor:1.0 ~sw_factor:0.5
      ~cost:(Comm.uniform_cost 10) inst
  in
  (* Task 2 receives 2 edges x 10 ticks: HW +20, SW +10 (factor 0.5). *)
  Alcotest.(check int) "hw inflated" 60
    (Instance.impl inflated ~task:2 ~idx:1).Impl.time;
  Alcotest.(check int) "sw inflated" 110
    (Instance.impl inflated ~task:2 ~idx:0).Impl.time;
  (* Sources have no incoming communication. *)
  Alcotest.(check int) "source untouched" 100
    (Instance.impl inflated ~task:0 ~idx:0).Impl.time

let test_comm_schedules_validate () =
  let rng = Rng.create 6 in
  let inst = Suite.instance rng ~tasks:20 in
  let inflated = Comm.inflate ~cost:(Comm.uniform_cost 50) inst in
  let sched, _ = Pa.run inflated in
  Validate.check_exn sched;
  let base, _ = Pa.run inst in
  (* Communication can only lengthen the critical path lower bound. *)
  let lb s = (Metrics.compute s).Metrics.critical_path_lower_bound in
  Alcotest.(check bool) "lower bound grows" true (lb sched >= lb base)

let test_comm_rejects_negative () =
  let rng = Rng.create 6 in
  let inst = Suite.instance rng ~tasks:5 in
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Comm.inflate: negative cost") (fun () ->
      ignore (Comm.inflate ~cost:(fun ~src:_ ~dst:_ -> -1) inst))

(* Property: the validator rejects every systematic corruption of a valid
   schedule — slot stretching, makespan tampering and (when present)
   dropped reconfigurations. *)
let prop_validator_catches_corruption =
  QCheck.Test.make ~count:25 ~name:"validator catches corruption"
    QCheck.(pair int (int_range 8 25))
    (fun (seed, tasks) ->
      let rng = Rng.create (seed lxor 0xC0DE) in
      let inst = Suite.instance rng ~tasks in
      let sched, _ = Pa.run inst in
      Validate.check sched = Ok ()
      && begin
           (* Stretch a random slot by one tick. *)
           let slots = Array.copy sched.Schedule.slots in
           let t = Rng.int rng tasks in
           let s = slots.(t) in
           slots.(t) <- { s with Schedule.end_ = s.Schedule.end_ + 1 };
           Validate.check { sched with Schedule.slots = slots } <> Ok ()
         end
      && Validate.check { sched with Schedule.makespan = sched.Schedule.makespan + 1 }
         <> Ok ()
      && (sched.Schedule.reconfigurations = []
         || Validate.check { sched with Schedule.reconfigurations = [] }
            <> Ok ()))

(* ---- change-pruned windows = full CPM ---- *)

(* The state's windows against a from-scratch CPM over its graph and the
   durations of its selected implementations: every field, bit for bit. *)
let windows_match_cpm state =
  let n = Instance.size state.State.inst in
  let durations = Array.init n (fun u -> (State.impl state u).Impl.time) in
  let cpm = Cpm.compute state.State.dep ~durations in
  Array.init n (State.duration state) = durations
  && Array.init n (State.t_min state) = cpm.Cpm.t_min
  && Array.init n (State.t_max state) = cpm.Cpm.t_max
  && State.makespan state = cpm.Cpm.makespan
  && Array.init n (State.critical state) = cpm.Cpm.critical

let initial_windows inst ~impl_of =
  Cpm.compute inst.Instance.graph
    ~durations:
      (Array.init (Instance.size inst) (fun u ->
           (Instance.impl inst ~task:u ~idx:impl_of.(u)).Impl.time))

(* Random mutation sequences through every public mutation: acyclic
   edge batches, implementation switches up and down (alone, batched,
   and as a tentative switch rolled back), region placements,
   software fallbacks and mid-sequence resets. Each check follows a
   settle. *)
let prop_windows_match_cpm =
  QCheck.Test.make ~count:60 ~name:"incremental windows = Cpm.compute"
    QCheck.(pair int (int_range 3 40))
    (fun (seed, tasks) ->
      let rng = Rng.create (seed lxor 0x57A7E) in
      let inst = Suite.instance rng ~tasks in
      let impl_of =
        Impl_select.run inst ~max_res:(Arch.max_res inst.Instance.arch)
      in
      let base = initial_windows inst ~impl_of in
      let state = State.create inst ~impl_of () in
      let n = tasks in
      let ok = ref (windows_match_cpm state) in
      let settle () =
        State.refresh_windows state;
        ok := !ok && windows_match_cpm state
      in
      let random_impl u =
        Rng.int rng (Array.length inst.Instance.impls.(u))
      in
      let add_acyclic_edge () =
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v && not (Graph.reachable state.State.dep v).(u) then
          State.add_edge state u v
      in
      for _ = 1 to 80 do
        match Rng.int rng 9 with
        | 0 | 1 ->
          for _ = 0 to Rng.int rng 4 do
            add_acyclic_edge ()
          done;
          settle ()
        | 2 ->
          let u = Rng.int rng n in
          State.set_impl state ~task:u (random_impl u);
          settle ()
        | 3 ->
          (* A mixed batch: edges and switches either way, one settle. *)
          for _ = 0 to Rng.int rng 3 do
            add_acyclic_edge ();
            let u = Rng.int rng n in
            State.set_impl state ~task:u (random_impl u)
          done;
          settle ()
        | 4 ->
          (* Sw_balance's tentative switch, then its rollback. *)
          let u = Rng.int rng n in
          let saved = state.State.impl_of.(u) in
          State.set_impl state ~task:u (random_impl u);
          settle ();
          State.set_impl state ~task:u saved;
          settle ()
        | 5 | 6 ->
          let u = Rng.int rng n in
          if State.is_hw state u && state.State.region_of.(u) < 0 then begin
            let need = (State.impl state u).Impl.res in
            let region =
              if State.region_count state > 0 && Rng.bool rng then
                State.nth_region state (Rng.int rng (State.region_count state))
              else State.new_region state need
            in
            (try State.assign_to_region state ~task:u region
             with Invalid_argument _ -> ());
            settle ()
          end
        | 7 ->
          State.switch_to_sw state ~task:(Rng.int rng n);
          ok := !ok && windows_match_cpm state
        | _ ->
          if Rng.int rng 4 = 0 then begin
            State.reset state ~impl_of ~base_cpm:base;
            ok := !ok && windows_match_cpm state
          end
          else settle ()
      done;
      !ok)

(* The same check at every step boundary of the production pipeline,
   composed exactly as [Pa.schedule_candidate] composes it (the final
   state is compared with a real candidate's), over random instances,
   orderings and lattice scales; revisited scales recycle their arena
   state through [State.reset]. *)
let ordering_of ord ~seed =
  match ord with
  | 0 -> Regions_define.By_efficiency
  | 1 -> Regions_define.By_cost
  | 2 -> Regions_define.Topological
  | _ -> Regions_define.Random (Rng.create seed)

let prop_pipeline_windows_match_cpm =
  QCheck.Test.make ~count:20 ~name:"pipeline step windows = Cpm.compute"
    QCheck.(triple int (int_range 5 40) (int_range 0 3))
    (fun (seed, tasks, ord) ->
      let rng = Rng.create (seed lxor 0x0B0E) in
      let inst = Suite.instance rng ~tasks in
      let ctx = Pa.Context.create inst and twin = Pa.Context.create inst in
      let arena = Reconf_sched.make_arena () in
      let ok = ref true in
      List.iter
        (fun k ->
          let resource_scale =
            Pa.default_config.Pa.shrink_factor ** float_of_int k
          in
          let ordering () = ordering_of ord ~seed:(seed + k) in
          let state = Pa.Context.state ctx ~resource_scale in
          ok := !ok && windows_match_cpm state;
          Regions_define.run ~ordering:(ordering ()) state;
          ok := !ok && windows_match_cpm state;
          Sw_balance.run state;
          ok := !ok && windows_match_cpm state;
          Sw_map.run state;
          ok := !ok && windows_match_cpm state;
          let plan = Reconf_sched.run_hot arena state in
          let c =
            Pa.schedule_candidate
              ~config:{ Pa.default_config with Pa.ordering = ordering () }
              ~resource_scale ~ctx:twin inst
          in
          let placed (sl : Schedule.task_slot) =
            (sl.Schedule.impl_idx, sl.Schedule.placement)
          in
          let mine u =
            ( state.State.impl_of.(u),
              if state.State.region_of.(u) >= 0 then
                Schedule.On_region state.State.region_of.(u)
              else Schedule.On_processor (max 0 state.State.processor_of.(u))
            )
          in
          ok :=
            !ok
            && Pa.candidate_makespan c
               = plan.Reconf_sched.p_times.Timing.makespan
            && Array.map placed (Pa.materialize c).Schedule.slots
               = Array.init tasks mine)
        [ 0; 1; 0; 2; 6; 1; 0 ];
      !ok)

(* Step 7's incremental timing: from the full pass over the empty
   chain, insert the reconfigurations of a real pipeline state in random
   order at random legal positions (the dependency-forced pairwise order
   decides what is legal, as in [Reconf_sched.run_hot]); after every
   insertion the solver's times must equal a from-scratch resolve over
   the same sequence. One scratch solver serves every state, so reloads
   over longer buffers than the problem are covered too. *)
let prop_insert_matches_full_pass =
  QCheck.Test.make ~count:20 ~name:"solver insert = full pass"
    QCheck.(triple int (int_range 5 40) (int_range 0 3))
    (fun (seed, tasks, ord) ->
      let rng = Rng.create (seed lxor 0x1A5E) in
      let inst = Suite.instance rng ~tasks in
      let ctx = Pa.Context.create inst in
      let solver = Timing.Solver.scratch () in
      let ok = ref true in
      List.iter
        (fun (k, module_reuse) ->
          let resource_scale =
            Pa.default_config.Pa.shrink_factor ** float_of_int k
          in
          let state = Pa.Context.state ctx ~resource_scale in
          Regions_define.run ~ordering:(ordering_of ord ~seed:(seed + k)) state;
          Sw_balance.run state;
          Sw_map.run state;
          let specs = Timing.reconf_specs ~module_reuse state in
          let nr = Array.length specs in
          let matches sequence =
            let (r : Timing.resolved) =
              Reference.resolve state ~reconfigs:specs ~sequence
            and (s : Timing.resolved) = Timing.Solver.times solver in
            let prefix a len = Array.sub a 0 len in
            r.Timing.task_start = prefix s.Timing.task_start tasks
            && r.Timing.task_end = prefix s.Timing.task_end tasks
            && r.Timing.rec_start = prefix s.Timing.rec_start nr
            && r.Timing.rec_end = prefix s.Timing.rec_end nr
            && r.Timing.makespan = s.Timing.makespan
          in
          Timing.Solver.reload solver state ~reconfigs:specs;
          Timing.Solver.start solver;
          ok := !ok && matches [];
          let sequence = ref [] and remaining = ref (List.init nr Fun.id) in
          while !remaining <> [] do
            let k = List.nth !remaining (Rng.int rng (List.length !remaining)) in
            remaining := List.filter (( <> ) k) !remaining;
            let lo = ref 0 and hi = ref (List.length !sequence) in
            List.iteri
              (fun pos j ->
                if Reference.must_precede state specs.(j) specs.(k) then
                  lo := max !lo (pos + 1);
                if Reference.must_precede state specs.(k) specs.(j) then
                  hi := min !hi pos)
              !sequence;
            let pos = !lo + Rng.int rng (!hi - !lo + 1) in
            let at i = Option.value ~default:(-1) (List.nth_opt !sequence i) in
            Timing.Solver.insert solver
              ~prev:(if pos > 0 then at (pos - 1) else -1)
              ~k ~next:(at pos);
            sequence :=
              List.filteri (fun i _ -> i < pos) !sequence
              @ (k :: List.filteri (fun i _ -> i >= pos) !sequence);
            ok := !ok && matches !sequence
          done)
        [ (0, false); (1, true); (0, true); (2, false); (6, true); (1, false) ];
      !ok)

let () =
  Alcotest.run "core-units"
    [
      ( "validator",
        [
          Alcotest.test_case "dependency violation" `Quick
            test_validate_detects_dep_violation;
          Alcotest.test_case "bad makespan" `Quick
            test_validate_detects_bad_makespan;
          Alcotest.test_case "slot length" `Quick
            test_validate_detects_slot_length_mismatch;
          Alcotest.test_case "missing reconfiguration" `Quick
            test_validate_detects_missing_reconfiguration;
          Alcotest.test_case "controller overlap" `Quick
            test_validate_detects_controller_overlap;
          Alcotest.test_case "over capacity" `Quick
            test_validate_detects_overcapacity;
          Alcotest.test_case "bad floorplan" `Quick
            test_validate_detects_bad_floorplan;
          Alcotest.test_case "kind mismatch" `Quick
            test_validate_detects_kind_mismatch;
        ] );
      ( "timing",
        [
          Alcotest.test_case "controller sequence" `Quick
            test_timing_resolve_respects_sequence;
          Alcotest.test_case "solver = from-scratch resolve" `Quick
            test_solver_matches_from_scratch_resolve;
          Alcotest.test_case "solver on pipeline state" `Quick
            test_solver_matches_resolve_on_pipeline_state;
          Alcotest.test_case "module reuse skips pairs" `Quick
            test_timing_reuse_skips_pairs;
          Alcotest.test_case "insertion closing a cycle raises" `Quick
            test_solver_insert_cycle_raises;
        ] );
      ( "state",
        [
          Alcotest.test_case "switch to software" `Quick test_state_switch_to_sw;
          Alcotest.test_case "region accounting" `Quick
            test_state_region_accounting;
          Alcotest.test_case "region ordering edges" `Quick
            test_state_region_edges_ordered;
        ] );
      ( "steps",
        [
          Alcotest.test_case "impl select falls back to sw" `Quick
            test_impl_select_falls_back_to_sw;
          Alcotest.test_case "sw mapping balances processors" `Quick
            test_sw_map_balances_processors;
          Alcotest.test_case "lambda formula" `Quick test_sw_map_delay_formula;
          Alcotest.test_case "sw_map incremental = oracle" `Quick
            test_sw_map_incremental_matches_oracle;
        ] );
      ( "schedule-io",
        [
          Alcotest.test_case "round-trip" `Quick test_schedule_io_roundtrip;
          Alcotest.test_case "save/load" `Quick test_schedule_io_save_load;
          Alcotest.test_case "rejects garbage" `Quick
            test_schedule_io_rejects_garbage;
        ] );
      ( "comm",
        [
          Alcotest.test_case "inflates times" `Quick test_comm_inflates_times;
          Alcotest.test_case "schedules validate" `Quick
            test_comm_schedules_validate;
          Alcotest.test_case "rejects negative cost" `Quick
            test_comm_rejects_negative;
        ] );
      ( "output",
        [
          Alcotest.test_case "gantt lanes" `Quick test_gantt_renders_all_lanes;
          Alcotest.test_case "metrics bounds" `Quick test_metrics_bounds;
          Alcotest.test_case "schedule accessors" `Quick test_schedule_accessors;
          Alcotest.test_case "PA deterministic" `Quick test_pa_deterministic;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_validator_catches_corruption;
          QCheck_alcotest.to_alcotest prop_windows_match_cpm;
          QCheck_alcotest.to_alcotest prop_pipeline_windows_match_cpm;
          QCheck_alcotest.to_alcotest prop_insert_matches_full_pass;
        ] );
    ]
