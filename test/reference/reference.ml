open Resched_core
module Graph = Resched_taskgraph.Graph
module Cpm = Resched_taskgraph.Cpm
module Resource = Resched_fabric.Resource
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl
module Rng = Resched_util.Rng
module Floorplanner = Resched_floorplan.Floorplanner
module Fp_cache = Resched_floorplan.Fp_cache

(* [0; 1; ...; n - 1] *)
let range n = List.init n Fun.id

let by_t_min state a b = compare (State.t_min state a) (State.t_min state b)

(* The reference never reads an incrementally maintained window: after
   every mutation it takes a full CPM pass over the state's graph and
   durations and loads it over whatever the state settled. *)
let full_cpm state =
  let durations =
    Array.init (Instance.size state.State.inst) (fun u ->
        (State.impl state u).Impl.time)
  in
  let cpm = Cpm.compute state.State.dep ~durations in
  State.load_windows state cpm;
  cpm

let refresh state = ignore (full_cpm state : Cpm.t)

let assign state ~task region =
  State.assign_to_region state ~task region;
  refresh state

let to_sw state ~task =
  State.switch_to_sw state ~task;
  refresh state

(* ------------------------------------------------------------------ *)
(* Step 3: regions definition (Sec. V-C)                               *)

(* The compatible region with the smallest bitstream; the first one in
   creation order among equals. *)
let cheapest_region state ~compatible =
  List.fold_left
    (fun best (r : State.region) ->
      match best with
      | Some (b : State.region) when b.State.bits <= r.State.bits -> best
      | _ -> Some r)
    None
    (List.filter compatible (State.regions state))

let place_critical ?module_reuse state ~task =
  let need = (State.impl state task).Impl.res in
  match
    cheapest_region state
      ~compatible:(Regions_define.region_compatible_critical ?module_reuse state
                     ~task)
  with
  | Some region -> assign state ~task region
  | None when State.fits_on_fpga state need ->
    assign state ~task (State.new_region state need)
  | None -> to_sw state ~task

(* Non-critical tasks maximize FPGA utilization: a fresh region first,
   then reuse, then software. *)
let place_non_critical state ~task =
  let need = (State.impl state task).Impl.res in
  if State.fits_on_fpga state need then
    assign state ~task (State.new_region state need)
  else
    match
      cheapest_region state
        ~compatible:(Regions_define.region_compatible_non_critical state ~task)
    with
    | Some region -> assign state ~task region
    | None -> to_sw state ~task

let sort_tasks state ordering tasks =
  let efficiency u = Cost.efficiency state.State.cost (State.impl state u) in
  let cost u = Cost.cost state.State.cost (State.impl state u) in
  match ordering with
  | Regions_define.By_efficiency ->
    List.stable_sort (fun a b -> compare (efficiency b) (efficiency a)) tasks
  | Regions_define.By_cost ->
    List.stable_sort (fun a b -> compare (cost a) (cost b)) tasks
  | Regions_define.Topological -> List.stable_sort (by_t_min state) tasks
  | Regions_define.Random rng -> Rng.shuffle rng tasks

let regions_define ?module_reuse ~ordering state =
  let critical = (full_cpm state).Cpm.critical in
  let hw_tasks =
    List.filter (State.is_hw state) (range (Instance.size state.State.inst))
  in
  let criticals, non_criticals =
    List.partition (fun u -> critical.(u)) hw_tasks
  in
  (* Critical tasks keep the efficiency order even in PA-R: Sec. VI
     randomizes only the non-critical ones. *)
  List.iter
    (fun task -> place_critical ?module_reuse state ~task)
    (sort_tasks state Regions_define.By_efficiency criticals);
  List.iter
    (fun task -> place_non_critical state ~task)
    (sort_tasks state ordering non_criticals)

(* ------------------------------------------------------------------ *)
(* Step 4: software task balancing (Sec. V-D)                          *)

(* Eq. 6. *)
let tot_rec_time state =
  List.fold_left
    (fun acc (r : State.region) ->
      acc + (r.State.reconf * max 0 (List.length r.State.tasks - 1)))
    0 (State.regions state)

(* The cheapest hardware implementation of [task] that fits [region];
   the first one in declaration order among equals. *)
let cheapest_fitting_hw state ~task (region : State.region) =
  List.filter
    (fun (_, (i : Impl.t)) -> Resource.fits i.Impl.res ~within:region.State.res)
    (Instance.hw_impls state.State.inst task)
  |> List.fold_left
       (fun best (idx, i) ->
         let c = Cost.cost state.State.cost i in
         match best with
         | Some (_, bc) when bc <= c -> best
         | _ -> Some (idx, c))
       None
  |> Option.map fst

let try_move state ~task =
  let rec attempt = function
    | [] -> ()
    | region :: rest -> (
      match cheapest_fitting_hw state ~task region with
      | None -> attempt rest
      | Some impl_idx ->
        (* Adopt the implementation tentatively so the window check sees
           the hardware duration; roll back if the region refuses. *)
        let saved = state.State.impl_of.(task) in
        State.set_impl state ~task impl_idx;
        refresh state;
        let placed =
          Regions_define.region_compatible_non_critical state ~task region
          &&
          match assign state ~task region with
          | () -> true
          | exception Invalid_argument _ -> false
        in
        if not placed then begin
          State.set_impl state ~task saved;
          refresh state;
          attempt rest
        end)
  in
  attempt (State.regions state)

let sw_balance state =
  let inst = state.State.inst in
  List.filter
    (fun u -> (not (State.is_hw state u)) && Instance.hw_impls inst u <> [])
    (range (Instance.size inst))
  |> List.stable_sort (by_t_min state)
  |> List.iter (fun task ->
         if State.t_min state task > tot_rec_time state then
           try_move state ~task)

(* ------------------------------------------------------------------ *)
(* Steps 5-6: start/end times and software mapping (Secs. V-E, V-F)    *)

(* Software tasks by window start, each onto the processor that delays
   it least (the first among equals), then totally ordered against every
   task already there: a dependency path either way already orders a
   pair, otherwise an edge follows the current window order. *)
let sw_map state =
  let processors = state.State.inst.Instance.arch.Arch.processors in
  let on_processor = Array.make processors [] in
  let end_of u = State.t_min state u + State.duration state u in
  List.filter
    (fun u -> not (State.is_hw state u))
    (range (Instance.size state.State.inst))
  |> List.stable_sort (by_t_min state)
  |> List.iter (fun task ->
         let delay p =
           Sw_map.delay state ~task
             ~last_end:(List.fold_left (fun acc u -> max acc (end_of u)) 0
                          on_processor.(p))
         in
         let p =
           List.fold_left
             (fun best p -> if delay p < delay best then p else best)
             0 (range processors)
         in
         List.iter
           (fun u ->
             let dep = state.State.dep in
             if not ((Graph.reachable dep task).(u)
                     || (Graph.reachable dep u).(task))
             then
               if State.t_min state u <= State.t_min state task then
                 State.add_edge state u task
               else State.add_edge state task u)
           on_processor.(p);
         state.State.processor_of.(task) <- p;
         on_processor.(p) <- task :: on_processor.(p);
         refresh state)

(* ------------------------------------------------------------------ *)
(* Step 7: reconfigurations scheduling (Sec. V-G)                      *)

let resolve state ~reconfigs ~sequence =
  let n = Instance.size state.State.inst in
  let nr = Array.length reconfigs in
  let g = Graph.create (n + nr) in
  List.iter (fun (u, v) -> Graph.add_edge g u v) (Graph.edges state.State.dep);
  Array.iteri
    (fun k (spec : Timing.reconf_spec) ->
      Graph.add_edge g spec.Timing.t_in (n + k);
      Graph.add_edge g (n + k) spec.Timing.t_out)
    reconfigs;
  let rec chain = function
    | a :: (b :: _ as tl) ->
      Graph.add_edge g (n + a) (n + b);
      chain tl
    | [ _ ] | [] -> ()
  in
  chain sequence;
  let durations =
    Array.init (n + nr) (fun i ->
        if i < n then State.duration state i
        else reconfigs.(i - n).Timing.dur)
  in
  let cpm = Cpm.compute g ~durations in
  let task_start = Array.sub cpm.Cpm.t_min 0 n in
  let task_end = Array.init n (fun u -> task_start.(u) + durations.(u)) in
  let rec_start = Array.init nr (fun k -> cpm.Cpm.t_min.(n + k)) in
  let rec_end =
    Array.init nr (fun k -> rec_start.(k) + reconfigs.(k).Timing.dur)
  in
  {
    Timing.task_start;
    task_end;
    rec_start;
    rec_end;
    makespan = Array.fold_left max 0 task_end;
  }

let must_precede state (a : Timing.reconf_spec) (b : Timing.reconf_spec) =
  a.Timing.t_out = b.Timing.t_in
  || (Graph.reachable state.State.dep a.Timing.t_out).(b.Timing.t_in)

let insert_at pos x l =
  let rec go i = function
    | rest when i = pos -> x :: rest
    | [] -> [ x ]
    | hd :: tl -> hd :: go (i + 1) tl
  in
  go 0 l

(* Legal position interval for [k] in [sequence]: after every scheduled
   spec that must precede it, before every one it must precede. *)
let position_bounds state specs sequence k =
  let lo = ref 0 and hi = ref (List.length sequence) in
  List.iteri
    (fun pos j ->
      if must_precede state specs.(j) specs.(k) then lo := max !lo (pos + 1);
      if must_precede state specs.(k) specs.(j) then hi := min !hi pos)
    sequence;
  (!lo, !hi)

(* Earliest instant >= t_min_k outside every scheduled slot, counted as
   the number of slots starting before it. *)
let slot_position (times : Timing.resolved) sequence t_min_k =
  let slots =
    List.map
      (fun j -> (times.Timing.rec_start.(j), times.Timing.rec_end.(j)))
      sequence
    |> List.sort compare
  in
  let tau =
    List.fold_left
      (fun tau (s, e) -> if tau >= s && tau < e then e else tau)
      t_min_k slots
  in
  List.length
    (List.filter (fun j -> times.Timing.rec_start.(j) < tau) sequence)

let reconf_sched ?module_reuse state =
  let specs = Timing.reconf_specs ?module_reuse state in
  let sequence = ref [] in
  let insert ~desired k =
    let lo, hi = position_bounds state specs !sequence k in
    assert (lo <= hi);
    sequence := insert_at (max lo (min hi desired)) k !sequence
  in
  (* The unscheduled spec whose window starts first (first among
     equals), under the current partial sequence. *)
  let earliest times remaining =
    let t_min_of k = times.Timing.task_end.(specs.(k).Timing.t_in) in
    List.fold_left
      (fun best k -> if t_min_of k < t_min_of best then k else best)
      (List.hd remaining) remaining
  in
  let schedule_all remaining ~desired =
    let remaining = ref remaining in
    while !remaining <> [] do
      let times = resolve state ~reconfigs:specs ~sequence:!sequence in
      let k = earliest times !remaining in
      insert ~desired:(desired times k) k;
      remaining := List.filter (fun j -> j <> k) !remaining
    done
  in
  let criticals, non_criticals =
    List.partition
      (fun k -> specs.(k).Timing.critical)
      (range (Array.length specs))
  in
  (* Critical reconfigurations, lowest window start first, each appended
     after those already sequenced: their delay hits the makespan in
     full. *)
  schedule_all criticals ~desired:(fun _ _ -> List.length !sequence);
  (* Non-critical ones take the earliest controller gap at or after their
     window start; re-resolving shifts whatever follows. *)
  schedule_all non_criticals ~desired:(fun times k ->
      slot_position times !sequence
        times.Timing.task_end.(specs.(k).Timing.t_in));
  (specs, !sequence)

(* ------------------------------------------------------------------ *)
(* Schedule construction and the schedulers                            *)

let schedule_of_state ~module_reuse ~resource_scale state specs sequence =
  let times = resolve state ~reconfigs:specs ~sequence in
  let start = times.Timing.task_start in
  let slot u =
    {
      Schedule.impl_idx = state.State.impl_of.(u);
      placement =
        (if state.State.region_of.(u) >= 0 then
           Schedule.On_region state.State.region_of.(u)
         else Schedule.On_processor (max 0 state.State.processor_of.(u)));
      start_ = start.(u);
      end_ = times.Timing.task_end.(u);
    }
  in
  let region (r : State.region) =
    {
      Schedule.res = r.State.res;
      reconf_ticks = r.State.reconf;
      tasks =
        List.stable_sort
          (fun a b -> compare start.(a) start.(b))
          r.State.tasks;
    }
  in
  let reconfiguration k =
    let spec = specs.(k) in
    {
      Schedule.region = spec.Timing.region_id;
      t_in = spec.Timing.t_in;
      t_out = spec.Timing.t_out;
      r_start = times.Timing.rec_start.(k);
      r_end = times.Timing.rec_end.(k);
    }
  in
  let n = Instance.size state.State.inst in
  {
    Schedule.instance = state.State.inst;
    regions = Array.of_list (List.map region (State.regions state));
    slots = Array.init n slot;
    reconfigurations = List.map reconfiguration sequence;
    makespan = times.Timing.makespan;
    floorplan = None;
    module_reuse;
    resource_scale;
  }

let schedule_once ?(config = Pa.default_config) ?(resource_scale = 1.0) inst =
  (* Steps 1-2: implementation selection against the scaled capacity;
     [State.create] computes the CPM windows. *)
  let max_res = Resource.scale (Arch.max_res inst.Instance.arch) resource_scale in
  let cost = Cost.make inst ~max_res in
  let impl_of = Impl_select.run ~cost inst ~max_res in
  let state = State.create inst ~resource_scale ~cost ~impl_of () in
  let module_reuse = config.Pa.module_reuse in
  regions_define ~module_reuse ~ordering:config.Pa.ordering state;
  sw_balance state;
  sw_map state;
  let specs, sequence = reconf_sched ~module_reuse state in
  schedule_of_state ~module_reuse ~resource_scale state specs sequence

let all_software_schedule inst =
  let impl_of = Array.init (Instance.size inst) (Instance.fastest_sw inst) in
  let state = State.create inst ~impl_of () in
  sw_map state;
  let sched =
    schedule_of_state ~module_reuse:false ~resource_scale:1.0 state [||] []
  in
  { sched with Schedule.floorplan = Some [||] }

let region_needs (sched : Schedule.t) =
  Array.map (fun (r : Schedule.region) -> r.Schedule.res) sched.Schedule.regions

(* Step 8: the floorplan check, through the cache when one is given. *)
let floorplan ~config ?cache device needs =
  let cache =
    match cache with Some _ -> cache | None -> config.Pa.floorplan_cache
  in
  let engine = config.Pa.floorplan_engine
  and node_limit = config.Pa.floorplan_node_limit in
  let report =
    match cache with
    | Some cache -> Fp_cache.check cache ~engine ?node_limit device needs
    | None -> Floorplanner.check ~engine ?node_limit device needs
  in
  match report.Floorplanner.verdict with
  | Floorplanner.Feasible placements -> Some placements
  | Floorplanner.Infeasible | Floorplanner.Unknown -> None

let run ?(config = Pa.default_config) inst =
  let device = inst.Instance.arch.Arch.device in
  (* Sec. V-H: retry with virtually shrunk resources until the regions
     floorplan, then fall back to all-software. *)
  let rec attempt k scale =
    if k > config.Pa.max_attempts then (all_software_schedule inst, k - 1)
    else
      let sched = schedule_once ~config ~resource_scale:scale inst in
      let needs = region_needs sched in
      if Array.length needs = 0 then
        ({ sched with Schedule.floorplan = Some [||] }, k)
      else
        match floorplan ~config device needs with
        | Some placements ->
          ({ sched with Schedule.floorplan = Some placements }, k)
        | None -> attempt (k + 1) (scale *. config.Pa.shrink_factor)
  in
  attempt 1 1.0

let run_random ?(config = Pa.default_config) ?cache ~seed ~min_iterations
    inst =
  let device = inst.Instance.arch.Arch.device in
  let rng = Rng.create seed in
  (* The adaptive virtual scale lives on the shrink_factor^k lattice,
     k in [0 .. 6]: down a step on a floorplan failure, up one on a
     success. *)
  let shrink = ref 0 in
  let best = ref None and trace = ref [] in
  let words0 = Gc.minor_words () and start = Unix.gettimeofday () in
  for iteration = 1 to min_iterations do
    let now = Unix.gettimeofday () in
    let config =
      { config with Pa.ordering = Regions_define.Random (Rng.split rng) }
    in
    let resource_scale = config.Pa.shrink_factor ** float_of_int !shrink in
    let sched = schedule_once ~config ~resource_scale inst in
    let ms = sched.Schedule.makespan in
    let improves =
      match !best with
      | Some (b : Schedule.t) -> ms < b.Schedule.makespan
      | None -> true
    in
    (* Algorithm 1 floorplans only improving candidates. *)
    if improves then begin
      let needs = region_needs sched in
      let verdict =
        if Array.length needs = 0 then Some [||]
        else floorplan ~config ?cache device needs
      in
      match verdict with
      | None -> shrink := min 6 (!shrink + 1)
      | Some placements ->
        shrink := max 0 (!shrink - 1);
        best := Some { sched with Schedule.floorplan = Some placements };
        trace :=
          { Pa_random.elapsed = now -. start; iteration; makespan = ms }
          :: !trace
    end
  done;
  {
    Pa_random.schedule = !best;
    iterations = max 0 min_iterations;
    trace = List.rev !trace;
    minor_words = Gc.minor_words () -. words0;
  }

(* ------------------------------------------------------------------ *)
(* Floorplan: candidate enumeration on allocated resource vectors, the
   quadratic dominance prune and the list-based v1 packer.             *)

module Device = Resched_fabric.Device
module Placement = Resched_floorplan.Placement
module Packer = Resched_floorplan.Packer

let candidates device need =
  if Resource.is_zero need then
    invalid_arg "Reference.candidates: zero requirement";
  let ncols = Array.length device.Device.columns in
  let rows = device.Device.rows in
  let acc = ref [] in
  for r0 = 0 to rows - 1 do
    for r1 = r0 to rows - 1 do
      let h = r1 - r0 + 1 in
      (* Sliding window over columns: grow c1 until the window fits,
         then record and slide c0. Per (r0, r1) this yields, for every
         c0, the minimal c1 — but we only keep windows that are minimal
         in the sense that shrinking from the left also breaks
         feasibility, which the slide achieves naturally. *)
      let have = ref Resource.zero in
      let col_res c =
        let unit_ = Device.column_units device ~col:c in
        Resource.scale unit_ (float_of_int h)
      in
      let c0 = ref 0 and c1 = ref (-1) in
      let continue_ = ref true in
      while !continue_ do
        (* Extend right edge until the requirement fits. *)
        while (not (Resource.fits need ~within:!have)) && !c1 < ncols - 1 do
          incr c1;
          have := Resource.add !have (col_res !c1)
        done;
        if not (Resource.fits need ~within:!have) then continue_ := false
        else begin
          (* Shrink from the left while it still fits to make it minimal. *)
          while
            !c0 <= !c1
            && Resource.fits need
                 ~within:(Resource.sub !have (col_res !c0))
          do
            have := Resource.sub !have (col_res !c0);
            incr c0
          done;
          acc := { Placement.c0 = !c0; c1 = !c1; r0; r1 } :: !acc;
          (* Drop the left column and continue the scan. *)
          have := Resource.sub !have (col_res !c0);
          incr c0;
          if !c0 > !c1 && !c1 = ncols - 1 then continue_ := false
        end
      done
    done
  done;
  let area r = Resource.total_units (Placement.resources device r) in
  let sorted =
    List.sort
      (fun (a : Placement.rect) (b : Placement.rect) ->
        let c = compare (area a) (area b) in
        if c <> 0 then c
        else compare (a.r0, a.c0, a.r1, a.c1) (b.r0, b.c0, b.r1, b.c1))
      !acc
  in
  List.filteri (fun i _ -> i < Placement.candidate_count_cap) sorted

let prune_dominated rects =
  (* In snuggest-first order only earlier (cheaper) candidates can be
     contained in a later one; drop any rect containing a kept
     predecessor. *)
  let kept = ref [] in
  List.iter
    (fun r ->
      if not (List.exists (fun a -> Placement.contains ~outer:r a) !kept)
      then kept := r :: !kept)
    rects;
  List.rev !kept

exception Done of Placement.rect array
exception Budget

let greedy needs_order cands =
  let n = Array.length cands in
  let chosen = Array.make n None in
  let ok =
    List.for_all
      (fun region ->
        let free rect =
          Array.for_all
            (function
              | Some placed -> not (Placement.overlap placed rect)
              | None -> true)
            chosen
        in
        match List.find_opt free cands.(region) with
        | Some rect ->
          chosen.(region) <- Some rect;
          true
        | None -> false)
      needs_order
  in
  if ok then
    Some (Array.map (function Some r -> r | None -> assert false) chosen)
  else None

let pack_v1 ~node_limit device needs =
  let cands = Array.map (candidates device) needs in
  let n = Array.length needs in
  if n = 0 then Packer.Placed [||]
  else if Array.exists (fun c -> c = []) cands then Packer.Infeasible
  else begin
    let indices = List.init n (fun i -> i) in
    let by_cand_count =
      List.sort
        (fun a b ->
          let c = compare (List.length cands.(a)) (List.length cands.(b)) in
          if c <> 0 then c
          else
            compare
              (Resource.total_units needs.(b))
              (Resource.total_units needs.(a)))
        indices
    in
    let by_area_desc =
      List.sort
        (fun a b ->
          compare (Resource.total_units needs.(b))
            (Resource.total_units needs.(a)))
        indices
    in
    let greedy_result =
      match greedy by_cand_count cands with
      | Some p -> Some p
      | None -> greedy by_area_desc cands
    in
    match greedy_result with
    | Some placements -> Packer.Placed placements
    | None ->
      (* Exact search: hardest regions first, snuggest candidates
         first; [node_limit] bounds the effort. *)
      let order = Array.of_list by_cand_count in
      let chosen = Array.make n None in
      let nodes = ref 0 in
      let rec go k =
        if k = n then begin
          let result =
            Array.map (function Some r -> r | None -> assert false) chosen
          in
          raise (Done result)
        end;
        let region = order.(k) in
        List.iter
          (fun rect ->
            incr nodes;
            if !nodes > node_limit then raise Budget;
            let clash =
              Array.exists
                (function
                  | Some placed -> Placement.overlap placed rect
                  | None -> false)
                chosen
            in
            if not clash then begin
              chosen.(region) <- Some rect;
              go (k + 1);
              chosen.(region) <- None
            end)
          cands.(region)
      in
      (match go 0 with
      | () -> Packer.Infeasible
      | exception Done placements -> Packer.Placed placements
      | exception Budget -> Packer.Unknown)
  end
