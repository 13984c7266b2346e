module Graph = Resched_taskgraph.Graph
module Cpm = Resched_taskgraph.Cpm
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
  let critical = state.State.cpm.Cpm.critical in
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
                critical = critical.(b);
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
     invariant across the resolves of one [Reconf_sched.run_hot]; only
     the controller-chain edges over [sequence] change. The base
     adjacency, in-degrees and durations are therefore built once, the
     chain is kept as a [chain_next] side array, and every resolve is a
     single allocation-free Kahn pass that relaxes earliest starts as
     nodes are dequeued (any topological order yields the same
     longest-path [t_min], so the result is bit-identical to a
     from-scratch CPM over the fully built graph). *)

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
    (* scratch, overwritten by every [resolve] *)
    mutable chain_next : int array;
        (** spec index -> next spec in sequence, -1 *)
    mutable indeg : int array;
    mutable queue : int array;
    mutable t_min : int array;
    mutable task_start : int array;
    mutable task_end : int array;
    mutable rec_start : int array;
    mutable rec_end : int array;
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
       and [resolve] runs many times over it — contiguous int arrays
       beat chasing cons cells on every pass. *)
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
      indeg = Array.make total 0;
      queue = Array.make total 0;
      t_min = Array.make total 0;
      task_start = Array.make n 0;
      task_end = Array.make n 0;
      rec_start = Array.make (Stdlib.max 1 nr) 0;
      rec_end = Array.make (Stdlib.max 1 nr) 0;
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
      indeg = [||];
      queue = [||];
      t_min = [||];
      task_start = [||];
      task_end = [||];
      rec_start = [| 0 |];
      rec_end = [| 0 |];
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
    let off = s.off and base_indeg = s.base_indeg in
    Array.fill base_indeg 0 total 0;
    (* Pass 1: out-degree per node into [off.(u+1)], in-degrees as we
       go. Successors are taken in [succs_rev] order (no reversed-list
       allocation): the longest-path relaxation of [resolve] is
       edge-order independent, so the times stay bit-identical to
       {!of_plan}'s ordering. *)
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

  (* Shared Kahn pass: chain edges must already be installed in
     [chain_next]/[indeg] (on top of a fresh [base_indeg] blit). *)
  let finish_resolve ?release s =
    let { n; nr; indeg; queue; t_min; chain_next; durations; _ } = s in
    let total = n + nr in
    (match release with
    | None -> Array.fill t_min 0 total 0
    | Some r ->
      if Array.length r <> total then
        invalid_arg "Timing.Solver.resolve: release length mismatch";
      Array.blit r 0 t_min 0 total);
    let head = ref 0 and tail = ref 0 in
    (* Node ids in [adj] were validated when the base adjacency was
       built, so unchecked accesses are safe (cf. [Cpm.compute_with]).
       Defined outside the drain loop: a closure per popped node is real
       allocation in this, the single hottest loop of the restart
       kernel. *)
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
    for k = 0 to nr - 1 do
      s.rec_start.(k) <- t_min.(n + k);
      s.rec_end.(k) <- t_min.(n + k) + s.reconfigs.(k).dur
    done;
    {
      task_start = s.task_start;
      task_end = s.task_end;
      rec_start = s.rec_start;
      rec_end = s.rec_end;
      makespan = !makespan;
    }

  let prep s =
    Array.fill s.chain_next 0 s.nr (-1);
    Array.blit s.base_indeg 0 s.indeg 0 (s.n + s.nr)

  let resolve ?release s ~sequence =
    prep s;
    let n = s.n and chain_next = s.chain_next and indeg = s.indeg in
    let rec chain = function
      | a :: b :: tl ->
        chain_next.(a) <- b;
        indeg.(n + b) <- indeg.(n + b) + 1;
        chain (b :: tl)
      | [ _ ] | [] -> ()
    in
    chain sequence;
    finish_resolve ?release s

  let resolve_array ?release s ~sequence ~len =
    if len < 0 || len > Array.length sequence then
      invalid_arg "Timing.Solver.resolve_array: bad length";
    prep s;
    let n = s.n and chain_next = s.chain_next and indeg = s.indeg in
    for i = 0 to len - 2 do
      let a = sequence.(i) and b = sequence.(i + 1) in
      chain_next.(a) <- b;
      indeg.(n + b) <- indeg.(n + b) + 1
    done;
    finish_resolve ?release s
end
