module Resource = Resched_fabric.Resource
module Instance = Resched_platform.Instance
module Impl = Resched_platform.Impl

let tot_rec_time state =
  let acc = ref 0 in
  State.iter_regions state (fun (r : State.region) ->
      acc := !acc + (r.State.reconf * Stdlib.max 0 (List.length r.State.tasks - 1)));
  !acc

(* Cheapest hardware implementation of [task] that fits [region]: the
   first strict cost minimum among the fitting ones, in declaration
   order — same pick as filtering then folding, without building the
   filtered list. *)
let best_fitting_hw state ~task (region : State.region) =
  let best_idx = ref (-1) and best_cost = ref infinity in
  List.iter
    (fun (idx, (i : Impl.t)) ->
      if Resource.fits i.Impl.res ~within:region.State.res then begin
        let c = Cost.cost state.State.cost i in
        if !best_idx < 0 || c < !best_cost then begin
          best_idx := idx;
          best_cost := c
        end
      end)
    (State.hw_impls state task);
  if !best_idx < 0 then None else Some !best_idx

let try_move state ~task =
  (* Regions in creation order, without materializing the list; no move
     ever changes the region count, so a plain index walk is safe. *)
  let nregions = State.region_count state in
  let rec attempt i =
    if i < nregions then begin
      let region = State.nth_region state i in
      match best_fitting_hw state ~task region with
      | None -> attempt (i + 1)
      | Some impl_idx -> (
        (* Tentatively adopt the implementation so the window check sees
           the hardware duration, then commit or roll back. *)
        let saved = state.State.impl_of.(task) in
        state.State.impl_of.(task) <- impl_idx;
        State.refresh_windows state;
        let ok =
          Regions_define.region_compatible_non_critical state ~task region
        in
        if ok then
          match State.assign_to_region state ~task region with
          | () -> ()
          | exception Invalid_argument _ ->
            state.State.impl_of.(task) <- saved;
            State.refresh_windows state;
            attempt (i + 1)
        else begin
          state.State.impl_of.(task) <- saved;
          State.refresh_windows state;
          attempt (i + 1)
        end)
    end
  in
  attempt 0

(* Candidates are collected and sorted in a borrowed scratch array: a
   stable t_min order (insertion sort over index-ordered input ties out
   with [List.sort]'s stable merge), zero list churn. *)
let run state =
  let n = Instance.size state.State.inst in
  let cand = State.sc_tasks (State.scratch_of state) in
  let count = ref 0 in
  for u = 0 to n - 1 do
    if (not (State.is_hw state u)) && State.hw_impls state u <> [] then begin
      cand.(!count) <- u;
      incr count
    end
  done;
  let count = !count in
  Resched_util.Sort.by_int_key cand ~base:0 ~len:count
    ~key:(State.t_min state);
  for j = 0 to count - 1 do
    let task = cand.(j) in
    let budget = tot_rec_time state in
    if State.t_min state task > budget then try_move state ~task
  done
