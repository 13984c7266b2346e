module Device = Resched_fabric.Device
module Resource = Resched_fabric.Resource

type rect = { c0 : int; c1 : int; r0 : int; r1 : int }

let width r = r.c1 - r.c0 + 1
let height r = r.r1 - r.r0 + 1

let overlap a b =
  a.c0 <= b.c1 && b.c0 <= a.c1 && a.r0 <= b.r1 && b.r0 <= a.r1

let contains ~outer r =
  outer.c0 <= r.c0 && r.c1 <= outer.c1 && outer.r0 <= r.r0 && r.r1 <= outer.r1

let resources device r =
  Device.rect_resources device ~c0:r.c0 ~c1:r.c1 ~r0:r.r0 ~r1:r.r1

let pp ppf r =
  Format.fprintf ppf "[cols %d-%d, rows %d-%d]" r.c0 r.c1 r.r0 r.r1

let candidate_count_cap = 512

(* ------------------------------------------------------------------ *)
(* Prefix-sum grid: O(1) resource vectors for any rectangle.

   [cum_k.(c)] holds the kind-[k] units contributed by columns [0..c-1]
   of a single clock-region row, so a rect spanning [c0..c1] x h rows
   encloses [h * (cum_k.(c1+1) - cum_k.(c0))] units of kind [k]. *)

type grid = {
  g_device : Device.t;
  g_ncols : int;
  g_rows : int;
  g_clb : int array;  (* length ncols+1 *)
  g_bram : int array;
  g_dsp : int array;
  g_tot : int array;  (* all kinds together; rect area in resource units *)
}

let grid device =
  let ncols = Array.length device.Device.columns in
  let g_clb = Array.make (ncols + 1) 0
  and g_bram = Array.make (ncols + 1) 0
  and g_dsp = Array.make (ncols + 1) 0
  and g_tot = Array.make (ncols + 1) 0 in
  for c = 0 to ncols - 1 do
    let u = Device.column_units device ~col:c in
    g_clb.(c + 1) <- g_clb.(c) + u.Resource.clb;
    g_bram.(c + 1) <- g_bram.(c) + u.Resource.bram;
    g_dsp.(c + 1) <- g_dsp.(c) + u.Resource.dsp;
    g_tot.(c + 1) <- g_tot.(c) + Resource.total_units u
  done;
  { g_device = device; g_ncols = ncols; g_rows = device.Device.rows;
    g_clb; g_bram; g_dsp; g_tot }

let grid_units g kind r =
  let cum =
    match kind with
    | Resource.Clb -> g.g_clb
    | Resource.Bram -> g.g_bram
    | Resource.Dsp -> g.g_dsp
  in
  (r.r1 - r.r0 + 1) * (cum.(r.c1 + 1) - cum.(r.c0))

(* Per row span, a sliding window over columns: grow [c1] until the
   span covers the need, shrink [c0] while it still does, record, drop
   the left column and continue. Each recorded window is minimal both
   ways, so within one row span the windows have strictly increasing
   [c0] and non-decreasing [c1].

   Snuggest first is the order on (area, r0, c0, r1, c1). Each window
   is recorded as that tuple packed into one int (mixed radix), so the
   sort compares plain ints and the rects are decoded only for the
   kept prefix. *)
let grid_candidates g need =
  if Resource.is_zero need then
    invalid_arg "Placement.grid_candidates: zero requirement";
  let ncols = g.g_ncols and rows = g.g_rows in
  let coords = rows * ncols * rows * ncols in
  if rows * g.g_tot.(ncols) > max_int / coords then
    invalid_arg "Placement.grid_candidates: fabric too large";
  let n_clb = need.Resource.clb
  and n_bram = need.Resource.bram
  and n_dsp = need.Resource.dsp in
  let acc = ref [] in
  for r0 = 0 to rows - 1 do
    for r1 = r0 to rows - 1 do
      let h = r1 - r0 + 1 in
      (* span [c0..c1] covers the need, in h-row units *)
      let covers c0 c1 =
        h * (g.g_clb.(c1 + 1) - g.g_clb.(c0)) >= n_clb
        && h * (g.g_bram.(c1 + 1) - g.g_bram.(c0)) >= n_bram
        && h * (g.g_dsp.(c1 + 1) - g.g_dsp.(c0)) >= n_dsp
      in
      let c0 = ref 0 and c1 = ref (-1) in
      let have_fits () = !c1 >= 0 && !c0 <= !c1 && covers !c0 !c1 in
      let continue_ = ref true in
      while !continue_ do
        while (not (have_fits ())) && !c1 < ncols - 1 do
          incr c1
        done;
        if not (have_fits ()) then continue_ := false
        else begin
          while !c0 <= !c1 && !c0 + 1 <= !c1 && covers (!c0 + 1) !c1 do
            incr c0
          done;
          let area = h * (g.g_tot.(!c1 + 1) - g.g_tot.(!c0)) in
          let pos = (((((r0 * ncols) + !c0) * rows) + r1) * ncols) + !c1 in
          acc := ((area * coords) + pos) :: !acc;
          incr c0;
          if !c0 > !c1 && !c1 = ncols - 1 then continue_ := false
        end
      done
    done
  done;
  let keys = Array.of_list !acc in
  Array.stable_sort Int.compare keys;
  Array.init (Int.min (Array.length keys) candidate_count_cap) (fun i ->
      let k = keys.(i) mod coords in
      let c1 = k mod ncols and k = k / ncols in
      let r1 = k mod rows and k = k / rows in
      { c0 = k mod ncols; c1; r0 = k / ncols; r1 })

(* ------------------------------------------------------------------ *)
(* Dominance prune.

   A candidate that contains an earlier (snugger) candidate is never
   needed. Every rect inside [r] lies in one of [r]'s row sub-spans,
   and within one row span the minimal windows sorted by [c0] have
   non-decreasing [c1] (a subset of a monotone sequence is monotone, so
   the cap does not break this). The windows inside [r] in a sub-span
   are therefore the contiguous run that starts at the first [c0 >=
   r.c0] and stops at the first [c1 > r.c1]: one binary search per
   sub-span instead of a scan of every earlier candidate. *)

let prune_dominated ~rows (cands : rect array) =
  let k = Array.length cands in
  if k = 0 then cands
  else begin
    let ncols =
      1 + Array.fold_left (fun m r -> Int.max m r.c1) 0 cands
    in
    let span r = (r.r0 * rows) + r.r1 in
    (* Snuggest-first ranks grouped by row span, sorted by [c0] within a
       span ([ranks.(first.(s)) ..] for span [s]): a counting sort by
       [c0], then a stable one by span. *)
    let counting_sort ~buckets key src =
      let start = Array.make (buckets + 1) 0 in
      Array.iter (fun i -> start.(key i + 1) <- start.(key i + 1) + 1) src;
      for b = 1 to buckets do
        start.(b) <- start.(b) + start.(b - 1)
      done;
      let dst = Array.make k 0 and next = Array.copy start in
      Array.iter
        (fun i ->
          dst.(next.(key i)) <- i;
          next.(key i) <- next.(key i) + 1)
        src;
      (dst, start)
    in
    let by_c0, _ =
      counting_sort ~buckets:ncols (fun i -> cands.(i).c0) (Array.init k Fun.id)
    in
    let ranks, first =
      counting_sort ~buckets:(rows * rows) (fun i -> span cands.(i)) by_c0
    in
    let dominated i =
      let r = cands.(i) in
      let found = ref false in
      let a0 = ref r.r0 in
      while (not !found) && !a0 <= r.r1 do
        let a1 = ref !a0 in
        while (not !found) && !a1 <= r.r1 do
          let s = (!a0 * rows) + !a1 in
          (* first position in span [s] whose window starts at or right
             of [r.c0] *)
          let lo = ref first.(s) and hi = ref first.(s + 1) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if cands.(ranks.(mid)).c0 < r.c0 then lo := mid + 1 else hi := mid
          done;
          let p = ref !lo in
          while
            (not !found) && !p < first.(s + 1) && cands.(ranks.(!p)).c1 <= r.c1
          do
            (* inside [r]; dominates if it is earlier in snuggest-first
               order. The run holds [r] itself; any other minimal window
               inside [r] has less area, hence an earlier rank. *)
            if ranks.(!p) < i then found := true;
            incr p
          done;
          incr a1
        done;
        incr a0
      done;
      !found
    in
    let kept = ref [] in
    for i = k - 1 downto 0 do
      if not (dominated i) then kept := cands.(i) :: !kept
    done;
    Array.of_list !kept
  end
