module Graph = Resched_taskgraph.Graph
module Cpm = Resched_taskgraph.Cpm
module Resource = Resched_fabric.Resource
module Bitstream = Resched_fabric.Bitstream
module Device = Resched_fabric.Device
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl

type region = {
  id : int;
  res : Resource.t;
  bits : float;
  reconf : int;
  mutable tasks : int list;
}

type scratch = {
  sc_sort : int array;  (* region-task ordering workspace, size n *)
  sc_keys : float array;  (* sort keys (unboxed), size n *)
  sc_mark : bool array;  (* cycle-guard reachability marks, size n *)
  sc_tasks : int array;  (* pipeline-step candidate workspace, size n *)
  sc_flags : bool array;  (* pipeline-step flag workspace, size n *)
  sc_hw_impls : (int * Impl.t) list array;
      (* [Instance.hw_impls] per task, computed once: the instance is
         immutable, so the cached lists stay equal to what the accessor
         would rebuild (and reallocate) on every balance probe *)
}

let sc_tasks s = s.sc_tasks
let sc_keys s = s.sc_keys
let sc_flags s = s.sc_flags
let sc_mark s = s.sc_mark

(* A set of nodes with O(1) insertion and membership, drained in
   insertion order. *)
type nodeset = { items : int array; mutable len : int; mem : bool array }

let nodeset n = { items = Array.make n 0; len = 0; mem = Array.make n false }

let add s u =
  if not s.mem.(u) then begin
    s.mem.(u) <- true;
    s.items.(s.len) <- u;
    s.len <- s.len + 1
  end

let clear s =
  for i = 0 to s.len - 1 do
    s.mem.(s.items.(i)) <- false
  done;
  s.len <- 0

(* The CPM windows, kept current by change-pruned longest-path
   maintenance (see DESIGN.md "Change-pruned windows"). [tail u] is the
   longest path after [u] ([makespan - t_max u]), which does not move
   when the makespan does; [t_max] and the critical flags are derived.
   Mutations record seeds; [refresh_windows] settles them. A forward
   seed is a node whose finish [t_min + dur] may have changed for some
   out-edge, a backward seed one whose [tail + dur] may have changed for
   some in-edge. *)
type windows = {
  w_t_min : int array;
  w_tail : int array;
  w_dur : int array;  (* durations of the current implementations *)
  mutable w_makespan : int;
  fwd : nodeset;
  bwd : nodeset;
  mutable w_decrease : bool;  (* some pending duration went down *)
  heap : Node_heap.t;
}

type t = {
  inst : Instance.t;
  max_res : Resource.t;
  cost : Cost.t;
  impl_of : int array;
  dep : Graph.t;
  mutable regions_arr : region array;
  mutable nregions : int;
  mutable used : Resource.t;
  region_of : int array;
  processor_of : int array;
  win : windows;
  scratch : scratch;
}

let scratch_of t = t.scratch

let impl t u = Instance.impl t.inst ~task:u ~idx:t.impl_of.(u)
let duration t u = t.win.w_dur.(u)
let is_hw t u = Impl.is_hw (impl t u)
let hw_impls t u = t.scratch.sc_hw_impls.(u)

let t_min t u = t.win.w_t_min.(u)
let t_max t u = t.win.w_makespan - t.win.w_tail.(u)
let makespan t = t.win.w_makespan

let critical t u =
  let w = t.win in
  w.w_t_min.(u) + w.w_dur.(u) + w.w_tail.(u) = w.w_makespan

(* ------------------------------------------------------------------ *)
(* Window maintenance                                                  *)

(* Drop every pending seed and heap entry. *)
let clear_pending w =
  clear w.fwd;
  clear w.bwd;
  Node_heap.clear w.heap;
  w.w_decrease <- false

(* Top-level list walkers, so a settle allocates no closures. [a] is
   [t_min] in a forward settle and [tail] in a backward one. *)

(* Increase-only relaxation: raise each neighbour to [bound]. *)
let rec relax w a bound = function
  | [] -> ()
  | v :: tl ->
    if a.(v) < bound then begin
      a.(v) <- bound;
      Node_heap.push w.heap v bound
    end;
    relax w a bound tl

(* Queue each neighbour for an exact recompute, keyed on its stored
   value. *)
let rec push_all w a = function
  | [] -> ()
  | v :: tl ->
    Node_heap.push w.heap v a.(v);
    push_all w a tl

(* max over the neighbours of [a v + dur v]: the exact [t_min] over the
   predecessors, the exact [tail] over the successors. *)
let rec max_through a dur acc = function
  | [] -> acc
  | v :: tl ->
    let x = a.(v) + dur.(v) in
    max_through a dur (if x > acc then x else acc) tl

(* Longest paths on a DAG settle in finitely many pops; a cycle (only
   reachable through a public mutation that skipped its own check)
   would spin forever. Past a generous budget, let Kahn decide: it
   raises [Graph.Cycle], or confirms the graph is acyclic and the
   settle runs on unbudgeted. *)
let over_budget t pops =
  if pops = 64 * (Instance.size t.inst + 1) then begin
    (match Graph.topological_order t.dep with
    | _ -> ()
    | exception e ->
      clear_pending t.win;
      raise e)
  end

(* Settle one direction: [t_min] along successor lists (forward), or
   [tail] along predecessor lists (backward). *)
let settle t ~forward =
  let w = t.win and g = t.dep and dur = t.win.w_dur in
  let a = if forward then w.w_t_min else w.w_tail in
  let seeds = if forward then w.fwd else w.bwd in
  let out = if forward then Graph.succs_rev else Graph.preds_rev
  and into = if forward then Graph.preds_rev else Graph.succs_rev in
  let pops = ref 0 in
  if w.w_decrease then begin
    (* Exact, change-pruned recompute: the stored values are a
       topological potential, so the min-heap pops each node after the
       neighbours it reads, and a node that did not move stops the
       wave. *)
    for i = 0 to seeds.len - 1 do
      push_all w a (out g seeds.items.(i))
    done;
    clear seeds;
    while not (Node_heap.is_empty w.heap) do
      incr pops;
      over_budget t !pops;
      let v = Node_heap.pop w.heap in
      let x = max_through a dur 0 (into g v) in
      if x <> a.(v) then begin
        a.(v) <- x;
        push_all w a (out g v)
      end
    done;
    if forward then begin
      (* The makespan may have gone down: take it afresh. *)
      let m = ref 0 in
      for u = 0 to Array.length a - 1 do
        let finish = a.(u) + dur.(u) in
        if finish > !m then m := finish
      done;
      w.w_makespan <- !m
    end
  end
  else begin
    (* Increase-only: the stored values are valid lower bounds; raise
       the neighbours of every node that rose, and nothing else. *)
    for i = 0 to seeds.len - 1 do
      let u = seeds.items.(i) in
      Node_heap.push w.heap u a.(u)
    done;
    clear seeds;
    while not (Node_heap.is_empty w.heap) do
      incr pops;
      over_budget t !pops;
      let u = Node_heap.pop w.heap in
      let reach = a.(u) + dur.(u) in
      if forward && reach > w.w_makespan then w.w_makespan <- reach;
      relax w a reach (out g u)
    done
  end

let refresh_windows t =
  let w = t.win in
  if w.fwd.len > 0 || w.bwd.len > 0 then begin
    settle t ~forward:true;
    settle t ~forward:false;
    w.w_decrease <- false
  end

let add_edge t u v =
  let e = Graph.edge_count t.dep in
  Graph.add_edge t.dep u v;
  if Graph.edge_count t.dep > e then begin
    add t.win.fwd u;
    add t.win.bwd v
  end

let set_impl t ~task idx =
  let d = (Instance.impl t.inst ~task ~idx).Impl.time in
  t.impl_of.(task) <- idx;
  let w = t.win in
  let old = w.w_dur.(task) in
  if d <> old then begin
    w.w_dur.(task) <- d;
    if d < old then w.w_decrease <- true;
    add w.fwd task;
    add w.bwd task
  end

let load_windows t (cpm : Cpm.t) =
  let n = Instance.size t.inst in
  if Array.length cpm.Cpm.t_min <> n then
    invalid_arg "State.load_windows: windows sized for a different graph";
  let w = t.win in
  clear_pending w;
  for u = 0 to n - 1 do
    w.w_dur.(u) <- (impl t u).Impl.time;
    w.w_t_min.(u) <- cpm.Cpm.t_min.(u);
    w.w_tail.(u) <- cpm.Cpm.makespan - cpm.Cpm.t_max.(u)
  done;
  w.w_makespan <- cpm.Cpm.makespan

let initial_cpm inst ~impl_of =
  let durations =
    Array.init (Instance.size inst) (fun u ->
        (Instance.impl inst ~task:u ~idx:impl_of.(u)).Impl.time)
  in
  Cpm.compute inst.Instance.graph ~durations

let create inst ?(resource_scale = 1.0) ?cost ?base_cpm ~impl_of () =
  let n = Instance.size inst in
  if Array.length impl_of <> n then
    invalid_arg "State.create: impl_of length mismatch";
  let max_res = Resource.scale (Arch.max_res inst.Instance.arch) resource_scale in
  let cost = match cost with Some c -> c | None -> Cost.make inst ~max_res in
  let cpm =
    match base_cpm with Some c -> c | None -> initial_cpm inst ~impl_of
  in
  let scratch =
    {
      sc_sort = Array.make n 0;
      sc_keys = Array.make n 0.;
      sc_mark = Array.make n false;
      sc_tasks = Array.make n 0;
      sc_flags = Array.make n false;
      sc_hw_impls = Array.init n (fun u -> Instance.hw_impls inst u);
    }
  in
  let win =
    {
      w_t_min = Array.make n 0;
      w_tail = Array.make n 0;
      w_dur = Array.make n 0;
      w_makespan = 0;
      fwd = nodeset n;
      bwd = nodeset n;
      w_decrease = false;
      heap = Node_heap.create n;
    }
  in
  let t =
    {
      inst;
      max_res;
      cost;
      impl_of = Array.copy impl_of;
      dep = Graph.copy inst.Instance.graph;
      regions_arr = [||];
      nregions = 0;
      used = Resource.zero;
      region_of = Array.make n (-1);
      processor_of = Array.make n (-1);
      win;
      scratch;
    }
  in
  load_windows t cpm;
  t

let dummy_region =
  { id = -1; res = Resource.zero; bits = 0.; reconf = 0; tasks = [] }

let reset t ~impl_of ~base_cpm =
  let n = Instance.size t.inst in
  if Array.length impl_of <> n then
    invalid_arg "State.reset: impl_of length mismatch";
  Array.blit impl_of 0 t.impl_of 0 n;
  Graph.restore ~from:t.inst.Instance.graph t.dep;
  (* Drop the region references so the previous iteration's records do
     not stay rooted by the recycled slot array. *)
  Array.fill t.regions_arr 0 t.nregions dummy_region;
  t.nregions <- 0;
  t.used <- Resource.zero;
  Array.fill t.region_of 0 n (-1);
  Array.fill t.processor_of 0 n (-1);
  load_windows t base_cpm

let iter_regions t f =
  for i = 0 to t.nregions - 1 do
    f t.regions_arr.(i)
  done

let nth_region t i =
  if i < 0 || i >= t.nregions then invalid_arg "State.nth_region";
  t.regions_arr.(i)

let regions t =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (t.regions_arr.(i) :: acc)
  in
  build (t.nregions - 1) []

let region_count t = t.nregions
let used_resources t = t.used

let fits_on_fpga t need =
  Resource.fits (Resource.add t.used need) ~within:t.max_res

let new_region t need =
  let device = t.inst.Instance.arch.Arch.device in
  let bits = Bitstream.region_bits device.Device.model need in
  let reconf = Arch.reconf_ticks t.inst.Instance.arch need in
  let region = { id = t.nregions; res = need; bits; reconf; tasks = [] } in
  (if t.nregions = Array.length t.regions_arr then begin
     let cap = max 8 (2 * Array.length t.regions_arr) in
     let grown = Array.make cap dummy_region in
     Array.blit t.regions_arr 0 grown 0 t.nregions;
     t.regions_arr <- grown
   end);
  t.regions_arr.(t.nregions) <- region;
  t.nregions <- t.nregions + 1;
  t.used <- Resource.add t.used need;
  region

(* Would adding edge u -> v close a cycle, i.e. is u reachable from v?
   Settled windows answer most queries outright: durations are positive,
   so every node reachable from [v] starts strictly after [v] does.
   Otherwise the recycled mark array answers by DFS. *)
let edge_would_cycle t u v =
  let w = t.win in
  if w.fwd.len = 0 && w.bwd.len = 0 && w.w_t_min.(u) <= w.w_t_min.(v) then false
  else begin
    let mark = t.scratch.sc_mark in
    Array.fill mark 0 (Array.length mark) false;
    Graph.mark_reachable t.dep v mark;
    mark.(u)
  end

let guard_edge t u v =
  if u <> v && not (Graph.has_edge t.dep u v) then begin
    if edge_would_cycle t u v then
      invalid_arg "State.assign_to_region: ordering edge would create a cycle";
    add_edge t u v
  end

let insert_region_edges t ~task region =
  (* The region is exclusive: order its tasks by their window starts and
     chain the new task between its neighbours. A stable insertion sort
     ({!Resched_util.Sort}) over the reused scratch array gives the order
     [List.stable_sort (by t_min) (task :: region.tasks)] would, without
     the per-call sort allocations. The region never already hosts
     [task], so [k + 1 <= n] fits the size-[n] array. *)
  let k = List.length region.tasks in
  let arr = t.scratch.sc_sort in
  arr.(0) <- task;
  let i = ref 1 in
  List.iter
    (fun u ->
      arr.(!i) <- u;
      incr i)
    region.tasks;
  Resched_util.Sort.by_int_key arr ~base:0 ~len:(k + 1) ~key:(t_min t);
  let pos = ref 0 in
  while arr.(!pos) <> task do
    incr pos
  done;
  if !pos > 0 then begin
    guard_edge t arr.(!pos - 1) task;
    (* Settling here keeps the second cycle check on exact windows; no
       decision reads the windows in between, so the result is the one
       a single settle gives. *)
    refresh_windows t
  end;
  if !pos < k then guard_edge t task arr.(!pos + 1);
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (arr.(i) :: acc)
  in
  region.tasks <- build k []

let assign_to_region t ~task region =
  t.region_of.(task) <- region.id;
  t.processor_of.(task) <- -1;
  insert_region_edges t ~task region;
  refresh_windows t

let switch_to_sw t ~task =
  set_impl t ~task (Instance.fastest_sw t.inst task);
  (if t.region_of.(task) >= 0 then begin
     (* Should not happen in the pipeline, but keep the state coherent. *)
     let r = t.regions_arr.(t.region_of.(task)) in
     r.tasks <- List.filter (fun u -> u <> task) r.tasks;
     t.region_of.(task) <- -1
   end);
  refresh_windows t

let switch_to_hw t ~task ~impl_idx region =
  let i = Instance.impl t.inst ~task ~idx:impl_idx in
  if not (Impl.is_hw i) then
    invalid_arg "State.switch_to_hw: not a hardware implementation";
  set_impl t ~task impl_idx;
  refresh_windows t;
  assign_to_region t ~task region

let region_list t = Array.sub t.regions_arr 0 t.nregions

let find_region t id =
  (* Region ids are assigned densely by [new_region], so the id is the
     slot index. *)
  if id < 0 || id >= t.nregions then raise Not_found;
  t.regions_arr.(id)
