module Graph = Resched_taskgraph.Graph
module Instance = Resched_platform.Instance

let delay state ~task ~last_end =
  Int.max 0 (last_end - State.t_min state task)

(* Totally order [task] against every task already on the processor: a
   dependency path (either way) already orders the pair; otherwise an
   explicit edge is inserted following the current window order. This
   guarantees processor exclusiveness whatever delays appear later. *)
let sequence_on_processor state ~task assigned =
  List.iter
    (fun u ->
      if not ((Graph.reachable state.State.dep task).(u)
             || (Graph.reachable state.State.dep u).(task))
      then begin
        if State.t_min state u <= State.t_min state task then
          State.add_edge state u task
        else State.add_edge state task u
      end)
    assigned

(* Same decisions as [sequence_on_processor] without the two full DFS
   per pair: [fwd] holds the descendants of [task] and [anc] its
   ancestors *in the current graph*, maintained incrementally as edges
   go in. An edge [task -> u] can only extend [fwd] (by [u]'s
   descendants, a DAG admits no new path into [task] from an edge out of
   it), and an edge [u -> task] only [anc] — so one marking DFS from [u]
   restores the invariant and total work per task is bounded by one
   graph traversal instead of one per assigned pair. *)
let sequence_on_processor_marked state ~task ~fwd ~anc assigned =
  let dep = state.State.dep in
  List.iter
    (fun u ->
      if not (fwd.(u) || anc.(u)) then begin
        if State.t_min state u <= State.t_min state task then begin
          State.add_edge state u task;
          Graph.mark_coreachable dep u anc
        end
        else begin
          State.add_edge state task u;
          Graph.mark_reachable dep u fwd
        end
      end)
    assigned

let run ?(incremental = true) state =
  let n = Instance.size state.State.inst in
  let processors =
    state.State.inst.Instance.arch.Resched_platform.Arch.processors
  in
  let on_processor = Array.make processors [] in
  (* Software tasks stable-insertion-sorted by t_min in borrowed scratch
     (the order filter + [List.sort], the stdlib's stable merge, gives). *)
  let scratch = State.scratch_of state in
  let sw_arr = State.sc_tasks scratch in
  let sw_count = ref 0 in
  for u = 0 to n - 1 do
    if not (State.is_hw state u) then begin
      sw_arr.(!sw_count) <- u;
      incr sw_count
    end
  done;
  let sw_count = !sw_count in
  Resched_util.Sort.by_int_key sw_arr ~base:0 ~len:sw_count
    ~key:(State.t_min state);
  let fwd = State.sc_flags scratch and anc = State.sc_mark scratch in
  for i = 0 to sw_count - 1 do
    let task = sw_arr.(i) in
    let end_of u = State.t_min state u + State.duration state u in
    let best_p = ref 0 and best_lambda = ref max_int in
    for p = 0 to processors - 1 do
      let last_end =
        List.fold_left (fun acc u -> Int.max acc (end_of u)) 0
          on_processor.(p)
      in
      let lambda = delay state ~task ~last_end in
      if lambda < !best_lambda then begin
        best_lambda := lambda;
        best_p := p
      end
    done;
    let p = !best_p in
    (if incremental then begin
       Array.fill fwd 0 n false;
       Array.fill anc 0 n false;
       Graph.mark_reachable state.State.dep task fwd;
       Graph.mark_coreachable state.State.dep task anc;
       sequence_on_processor_marked state ~task ~fwd ~anc on_processor.(p)
     end
     else sequence_on_processor state ~task on_processor.(p));
    state.State.processor_of.(task) <- p;
    on_processor.(p) <- task :: on_processor.(p);
    State.refresh_windows state
  done
