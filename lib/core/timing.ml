module Graph = Resched_taskgraph.Graph
module Instance = Resched_platform.Instance
module Impl = Resched_platform.Impl

type reconf_spec = {
  region_id : int;
  t_in : int;
  t_out : int;
  dur : int;
  critical : bool;
}

type resolved = {
  task_start : int array;
  task_end : int array;
  rec_start : int array;
  rec_end : int array;
  makespan : int;
}

let same_module (a : Impl.t) (b : Impl.t) =
  match (a.module_id, b.module_id) with
  | Some x, Some y -> x = y
  | _ -> false

let reconf_specs ?(module_reuse = false) state =
  let specs = ref [] in
  State.iter_regions state (fun (r : State.region) ->
      let rec pairs = function
        | a :: b :: tl ->
          let skip =
            module_reuse
            && same_module (State.impl state a) (State.impl state b)
          in
          if not skip then
            specs :=
              {
                region_id = r.State.id;
                t_in = a;
                t_out = b;
                dur = r.State.reconf;
                critical = State.critical state b;
              }
              :: !specs;
          pairs (b :: tl)
        | [ _ ] | [] -> ()
      in
      pairs r.State.tasks);
  Array.of_list (List.rev !specs)

let must_precede_closure closure a b =
  a.t_out = b.t_in || Graph.in_closure closure a.t_out b.t_in

module Solver = struct
  (* The augmented graph (data edges, region/processor ordering edges,
     one node per reconfiguration wired between its in/out tasks) is
     invariant across one [Reconf_sched.run_hot]; only the
     controller-chain edges change. The base adjacency, in-degrees and
     durations are therefore built once, the chain is kept as a
     [chain_next] side array, and the times are kept current as the
     chain grows (DESIGN.md "Incremental timing solver"):

     - a full pass ([start], [resolve]) is one allocation-free Kahn pass
       that relaxes earliest starts as nodes are dequeued (any
       topological order yields the same longest-path [t_min]);
     - an [insert] replaces the chain edge [prev -> next] by the path
       [prev -> k -> next], which dominates it, so every [t_min] can
       only rise: an increase-only relaxation from [k] reaches the
       unique longest-path fixpoint that a full pass over the grown
       chain computes, bit for bit. *)

  (* Every field is mutable so one solver value can be {!reload}ed for
     each restart iteration, growing its arrays on demand: loops are
     bounded by [n]/[nr], never by array lengths. *)
  type t = {
    mutable n : int;  (** task nodes *)
    mutable nr : int;  (** reconfiguration nodes, ids [n .. n+nr-1] *)
    mutable reconfigs : reconf_spec array;
    mutable adj : int array;  (** base augmented adjacency, CSR targets *)
    mutable off : int array;  (** CSR row offsets, [total + 1] entries *)
    mutable base_indeg : int array;
    mutable durations : int array;
    (* the controller chain and the times it implies *)
    mutable chain_next : int array;
        (** spec index -> next spec in sequence, -1 *)
    mutable t_min : int array;
    mutable task_start : int array;
    mutable task_end : int array;
    mutable rec_start : int array;
    mutable rec_end : int array;
    mutable makespan : int;
    (* work space of the full pass and of [insert] *)
    mutable indeg : int array;
    mutable queue : int array;
    heap : Node_heap.t;
  }

  let of_plan ~graph ~durations:task_durations ~reconfigs =
    let n = Graph.size graph in
    if Array.length task_durations <> n then
      invalid_arg "Timing.Solver.of_plan: durations length mismatch";
    let nr = Array.length reconfigs in
    let total = n + nr in
    let succ = Array.make total [] in
    let base_indeg = Array.make total 0 in
    let add u v =
      succ.(u) <- v :: succ.(u);
      base_indeg.(v) <- base_indeg.(v) + 1
    in
    for u = 0 to n - 1 do
      List.iter (fun v -> add u v) (Graph.succs graph u)
    done;
    Array.iteri
      (fun k spec ->
        add spec.t_in (n + k);
        add (n + k) spec.t_out)
      reconfigs;
    (* Flatten to CSR: the base adjacency never changes after [of_plan],
       and every pass runs over it — contiguous int arrays beat chasing
       cons cells. *)
    let edges = Array.fold_left (fun acc bi -> acc + bi) 0 base_indeg in
    let adj = Array.make (Stdlib.max 1 edges) 0 in
    let off = Array.make (total + 1) 0 in
    let c = ref 0 in
    for u = 0 to total - 1 do
      off.(u) <- !c;
      List.iter
        (fun v ->
          adj.(!c) <- v;
          incr c)
        succ.(u)
    done;
    off.(total) <- !c;
    let durations =
      Array.init total (fun i ->
          if i < n then task_durations.(i) else reconfigs.(i - n).dur)
    in
    {
      n;
      nr;
      reconfigs;
      adj;
      off;
      base_indeg;
      durations;
      chain_next = Array.make (Stdlib.max 1 nr) (-1);
      t_min = Array.make total 0;
      task_start = Array.make n 0;
      task_end = Array.make n 0;
      rec_start = Array.make (Stdlib.max 1 nr) 0;
      rec_end = Array.make (Stdlib.max 1 nr) 0;
      makespan = 0;
      indeg = Array.make total 0;
      queue = Array.make total 0;
      heap = Node_heap.create total;
    }

  let scratch () =
    {
      n = 0;
      nr = 0;
      reconfigs = [||];
      adj = [| 0 |];
      off = [| 0 |];
      base_indeg = [||];
      durations = [||];
      chain_next = [| -1 |];
      t_min = [||];
      task_start = [||];
      task_end = [||];
      rec_start = [| 0 |];
      rec_end = [| 0 |];
      makespan = 0;
      indeg = [||];
      queue = [||];
      heap = Node_heap.create 0;
    }

  let reload s state ~reconfigs =
    let graph = state.State.dep in
    let n = Resched_taskgraph.Graph.size graph in
    let nr = Array.length reconfigs in
    let total = n + nr in
    s.n <- n;
    s.nr <- nr;
    s.reconfigs <- reconfigs;
    let grow a need =
      if Array.length a < need then
        Array.make (Stdlib.max need (2 * Array.length a)) 0
      else a
    in
    s.off <- grow s.off (total + 1);
    s.base_indeg <- grow s.base_indeg total;
    s.durations <- grow s.durations total;
    s.indeg <- grow s.indeg total;
    s.queue <- grow s.queue total;
    s.t_min <- grow s.t_min total;
    s.task_start <- grow s.task_start n;
    s.task_end <- grow s.task_end n;
    s.chain_next <- grow s.chain_next (Stdlib.max 1 nr);
    s.rec_start <- grow s.rec_start (Stdlib.max 1 nr);
    s.rec_end <- grow s.rec_end (Stdlib.max 1 nr);
    Node_heap.ensure s.heap total;
    let off = s.off and base_indeg = s.base_indeg in
    Array.fill base_indeg 0 total 0;
    (* Pass 1: out-degree per node into [off.(u+1)], in-degrees as we
       go. Successors are taken in [succs_rev] order (no reversed-list
       allocation): the longest-path relaxation is edge-order
       independent, so the times stay bit-identical to {!of_plan}'s
       ordering. *)
    for u = 0 to n - 1 do
      let c = ref 0 in
      List.iter
        (fun v ->
          incr c;
          base_indeg.(v) <- base_indeg.(v) + 1)
        (Graph.succs_rev graph u);
      off.(u + 1) <- !c
    done;
    for k = 0 to nr - 1 do
      let spec = reconfigs.(k) in
      off.(spec.t_in + 1) <- off.(spec.t_in + 1) + 1;
      off.(n + k + 1) <- 1;
      base_indeg.(n + k) <- base_indeg.(n + k) + 1;
      base_indeg.(spec.t_out) <- base_indeg.(spec.t_out) + 1
    done;
    off.(0) <- 0;
    for u = 0 to total - 1 do
      off.(u + 1) <- off.(u + 1) + off.(u)
    done;
    let edges = off.(total) in
    s.adj <- grow s.adj (Stdlib.max 1 edges);
    let adj = s.adj in
    (* Pass 2: fill rows, using [queue] as the per-row cursor. *)
    let cur = s.queue in
    Array.blit off 0 cur 0 total;
    for u = 0 to n - 1 do
      List.iter
        (fun v ->
          adj.(cur.(u)) <- v;
          cur.(u) <- cur.(u) + 1)
        (Graph.succs_rev graph u)
    done;
    for k = 0 to nr - 1 do
      let spec = reconfigs.(k) in
      adj.(cur.(spec.t_in)) <- n + k;
      cur.(spec.t_in) <- cur.(spec.t_in) + 1;
      adj.(cur.(n + k)) <- spec.t_out;
      cur.(n + k) <- cur.(n + k) + 1
    done;
    let durations = s.durations in
    for i = 0 to n - 1 do
      durations.(i) <- State.duration state i
    done;
    for k = 0 to nr - 1 do
      durations.(n + k) <- reconfigs.(k).dur
    done

  (* The full pass: Kahn over the base adjacency plus the chain in
     [chain_next], relaxing earliest starts as nodes are dequeued, from
     [release] (default all zero). Raises [Graph.Cycle] with the nodes
     it could not order. *)
  let full_pass ?release s =
    let { n; nr; indeg; queue; t_min; chain_next; durations; _ } = s in
    let total = n + nr in
    Array.blit s.base_indeg 0 indeg 0 total;
    for k = 0 to nr - 1 do
      let next = chain_next.(k) in
      if next >= 0 then indeg.(n + next) <- indeg.(n + next) + 1
    done;
    (match release with
    | None -> Array.fill t_min 0 total 0
    | Some r ->
      if Array.length r <> total then
        invalid_arg "Timing.Solver.resolve: release length mismatch";
      Array.blit r 0 t_min 0 total);
    let head = ref 0 and tail = ref 0 in
    (* Node ids in [adj] were validated when the base adjacency was
       built, so unchecked accesses are safe.
       Defined outside the drain loop: a closure per popped node would
       be real allocation. *)
    let relax v finish =
      if Array.unsafe_get t_min v < finish then
        Array.unsafe_set t_min v finish;
      let d = Array.unsafe_get indeg v - 1 in
      Array.unsafe_set indeg v d;
      if d = 0 then begin
        Array.unsafe_set queue !tail v;
        incr tail
      end
    in
    for u = 0 to total - 1 do
      if indeg.(u) = 0 then begin
        queue.(!tail) <- u;
        incr tail
      end
    done;
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      (* [u]'s predecessors are all processed: its start is final, so its
         successors can be relaxed now. *)
      let finish = t_min.(u) + durations.(u) in
      let adj = s.adj in
      for j = Array.unsafe_get s.off u to Array.unsafe_get s.off (u + 1) - 1 do
        relax (Array.unsafe_get adj j) finish
      done;
      if u >= n then begin
        let next = chain_next.(u - n) in
        if next >= 0 then relax (n + next) finish
      end
    done;
    if !tail < total then begin
      let stuck = ref [] in
      for u = total - 1 downto 0 do
        if indeg.(u) > 0 then stuck := u :: !stuck
      done;
      raise (Graph.Cycle !stuck)
    end;
    let makespan = ref 0 in
    for u = 0 to n - 1 do
      s.task_start.(u) <- t_min.(u);
      s.task_end.(u) <- t_min.(u) + durations.(u);
      if s.task_end.(u) > !makespan then makespan := s.task_end.(u)
    done;
    s.makespan <- !makespan;
    for k = 0 to nr - 1 do
      s.rec_start.(k) <- t_min.(n + k);
      s.rec_end.(k) <- t_min.(n + k) + durations.(n + k)
    done

  let times s =
    {
      task_start = s.task_start;
      task_end = s.task_end;
      rec_start = s.rec_start;
      rec_end = s.rec_end;
      makespan = s.makespan;
    }

  let resolve ?release s ~sequence =
    Array.fill s.chain_next 0 s.nr (-1);
    let rec chain = function
      | a :: (b :: _ as tl) ->
        s.chain_next.(a) <- b;
        chain tl
      | [ _ ] | [] -> ()
    in
    chain sequence;
    full_pass ?release s;
    times s

  let start s =
    Array.fill s.chain_next 0 s.nr (-1);
    full_pass s

  (* Raise node [v] to start at [t] and keep its published times and the
     makespan current. *)
  let raise_to s v t =
    Array.unsafe_set s.t_min v t;
    Node_heap.push s.heap v t;
    let n = s.n in
    if v < n then begin
      let e = t + Array.unsafe_get s.durations v in
      Array.unsafe_set s.task_start v t;
      Array.unsafe_set s.task_end v e;
      if e > s.makespan then s.makespan <- e
    end
    else begin
      Array.unsafe_set s.rec_start (v - n) t;
      Array.unsafe_set s.rec_end (v - n) (t + Array.unsafe_get s.durations v)
    end

  let insert s ~prev ~k ~next =
    let n = s.n and t_min = s.t_min and durations = s.durations in
    if k < 0 || k >= s.nr || prev >= s.nr || next >= s.nr then
      invalid_arg "Timing.Solver.insert: spec out of range";
    if prev >= 0 && s.chain_next.(prev) <> next then
      invalid_arg "Timing.Solver.insert: next does not follow prev";
    if prev >= 0 then s.chain_next.(prev) <- k;
    s.chain_next.(k) <- next;
    let u = n + k in
    if prev >= 0 then begin
      let reach = t_min.(n + prev) + durations.(n + prev) in
      if t_min.(u) < reach then raise_to s u reach
    end;
    Node_heap.push s.heap u t_min.(u);
    (* A consistent chain settles in a handful of pops per node; one
       closing a cycle would raise forever (every cycle runs through a
       task, and task durations are positive). Past a generous budget
       the full pass decides: it raises [Graph.Cycle], or it leaves the
       exact times of the grown chain. *)
    let budget = 64 * (n + s.nr + 1) and pops = ref 0 in
    while not (Node_heap.is_empty s.heap) do
      incr pops;
      if !pops > budget then begin
        Node_heap.clear s.heap;
        full_pass s
      end
      else begin
        let u = Node_heap.pop s.heap in
        let reach = Array.unsafe_get t_min u + Array.unsafe_get durations u in
        let adj = s.adj in
        for j = Array.unsafe_get s.off u to Array.unsafe_get s.off (u + 1) - 1 do
          let v = Array.unsafe_get adj j in
          if Array.unsafe_get t_min v < reach then raise_to s v reach
        done;
        if u >= n then begin
          let next = Array.unsafe_get s.chain_next (u - n) in
          if next >= 0 && Array.unsafe_get t_min (n + next) < reach then
            raise_to s (n + next) reach
        end
      end
    done
end
