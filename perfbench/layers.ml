(* The traced run: per-layer metrics. Every span is taken here, around
   calls into each layer's public functions; nothing inside lib/ is
   instrumented. Each probe runs on the workload's own instances (the
   serve probes on the serve-open request pool), so a traced run of any
   workload prints every per-layer metric.

   The PA step replay composes [Pa.Context.state], [Regions_define.run],
   [Sw_balance.run], [Sw_map.run ~incremental:true] and
   [Reconf_sched.run_hot] exactly as [Pa.schedule_candidate] does, with
   the restart loop of [Pa_random] (RNG split per restart, the
   shrink-lattice scale, a floorplan check on improving candidates).
   Every replayed candidate is compared with [Pa.schedule_candidate] on
   a twin context fed the same RNG stream, and the replay's best with an
   untraced [Pa_random.run]; any divergence fails the run. *)

open Common
module Io = Resched_platform.Io
module Pa = Resched_core.Pa
module Pa_random = Resched_core.Pa_random
module Batch = Resched_core.Batch
module State = Resched_core.State
module Regions_define = Resched_core.Regions_define
module Sw_balance = Resched_core.Sw_balance
module Sw_map = Resched_core.Sw_map
module Reconf_sched = Resched_core.Reconf_sched
module Timing = Resched_core.Timing
module Delta = Resched_core.Delta
module Lns = Resched_core.Lns
module Schedule = Resched_core.Schedule
module Schedule_io = Resched_core.Schedule_io
module Validate = Resched_core.Validate
module Fp_cache = Resched_floorplan.Fp_cache
module Floorplanner = Resched_floorplan.Floorplanner
module Protocol = Resched_serve.Protocol
module Server = Resched_serve.Server
module Transport = Resched_serve.Transport

(* Coverage below this share of the probe loops' wall time is flagged. *)
let coverage_bound = 0.8

(* ------------------------------------------------------------------ *)
(* Spans: named accumulators of (calls, seconds). *)

type span = { mutable calls : int; mutable secs : float }

let spans : (string, span) Hashtbl.t = Hashtbl.create 64

let span name =
  match Hashtbl.find_opt spans name with
  | Some s -> s
  | None ->
    let s = { calls = 0; secs = 0. } in
    Hashtbl.replace spans name s;
    s

(* Wall time of the probe loops (span coverage denominator) and of the
   time inside spans. *)
let loop_secs = ref 0. and covered_secs = ref 0.

(* [calls] calls taking [dt] seconds in all on span [name]; a span
   nested in another ([covered:false]) is not counted twice towards
   coverage. *)
let record ?(covered = true) ?(calls = 1) name dt =
  let s = span name in
  s.calls <- s.calls + calls;
  s.secs <- s.secs +. dt;
  if covered then covered_secs := !covered_secs +. dt

let timed name f =
  let t0 = now () in
  let r = f () in
  record name (now () -. t0);
  r

(* A probe loop: its wall time counts towards coverage, minus [untraced]
   seconds spent on oracle work inside it. *)
let loop f =
  let t0 = now () in
  let untraced = ref 0. in
  let r = f untraced in
  loop_secs := !loop_secs +. (now () -. t0 -. !untraced);
  r

let oracle untraced f =
  let t0 = now () in
  let r = f () in
  untraced := !untraced +. (now () -. t0);
  r

let us_per_call name =
  let s = span name in
  if s.calls = 0 then 0. else s.secs *. 1e6 /. float_of_int s.calls

let repeat n f = for _ = 1 to n do f () done

(* Time [f] over [n] calls as one span of [n] calls: for sub-microsecond
   operations a timer read per call would dominate. *)
let timed_batch name n f =
  let t0 = now () in
  repeat n f;
  record ~calls:n name (now () -. t0)

(* ------------------------------------------------------------------ *)
(* Workload inputs and effort for the probes *)

type inputs = {
  insts : Instance.t array;
  pa_seeds : int array;  (** PA-R seeds, as the workload uses them *)
  lns_seeds : int array;  (** LNS seeds (polish), else the PA-R seeds *)
  restarts : int;  (** per instance, PA step replay *)
  moves : int;  (** per instance, delta replay *)
}

let inputs ~workload ~seed =
  match workload with
  | "batch-large" ->
    let insts = Batch_wl.instances () in
    let seeds = Array.mapi (fun i _ -> Batch_wl.instance_seed seed 0 i) insts in
    { insts; pa_seeds = seeds; lns_seeds = seeds;
      restarts = 50; moves = 300 }
  | "polish" ->
    let insts = Polish_wl.instances () in
    { insts; pa_seeds = Array.mapi (fun i _ -> Polish_wl.pa_seed i) insts;
      lns_seeds = Array.mapi (fun i _ -> Polish_wl.lns_seed seed 0 i) insts;
      restarts = polish_restarts; moves = polish_moves }
  | _ ->
    let pool = Serve_wl.pool () in
    let insts =
      Array.map
        (fun (e : Serve_wl.entry) ->
          match Io.of_string e.Serve_wl.text with Ok i -> i | Error m -> failwith m)
        pool
    in
    let seeds = Array.map (fun (e : Serve_wl.entry) -> e.Serve_wl.seed) pool in
    { insts; pa_seeds = seeds; lns_seeds = seeds;
      restarts = serve_restarts; moves = 200 }

(* ------------------------------------------------------------------ *)
(* platform, core/pa: parse and context creation *)

let probe_parse inp =
  let texts = Array.map Io.to_string inp.insts in
  loop (fun _ ->
      Array.iter
        (fun text ->
          timed_batch "io.parse" 5 (fun () -> ignore (Io.of_string text)))
        texts;
      (* With its first [state]: the per-scale memo a fresh instance
         identity (every serve request) fills before its first restart. *)
      Array.iter
        (fun inst ->
          repeat 5 (fun () ->
              ignore
                (timed "pa.context_create" (fun () ->
                     Pa.Context.state (Pa.Context.create inst) ~resource_scale:1.0))))
        inp.insts)

(* ------------------------------------------------------------------ *)
(* PA step replay *)

let max_shrink_exp = 6

type replay = {
  best : int;  (** best feasible makespan, max_int if none *)
  divergences : int;
}

let region_needs state =
  Array.init (State.region_count state) (fun i -> (State.nth_region state i).State.res)

let step_replay c ~cache ~seed ~restarts untraced inst =
  let cfg = Pa.default_config in
  let device = inst.Instance.arch.Arch.device in
  let ctx = Pa.Context.create inst in
  let arena = Reconf_sched.make_arena () in
  let rng = Rng.create seed in
  let lattice =
    Array.init (max_shrink_exp + 1) (fun k -> cfg.Pa.shrink_factor ** float_of_int k)
  in
  let scales = Array.make restarts 1. and makespans = Array.make restarts 0 in
  let needs_log = Array.make restarts [||] in
  let exp = ref 0 and best = ref max_int in
  for it = 0 to restarts - 1 do
    let scale = lattice.(!exp) in
    let ordering = Regions_define.Random (Rng.split rng) in
    let state =
      timed "pa.state_reset" (fun () -> Pa.Context.state ctx ~resource_scale:scale)
    in
    timed "regions_define" (fun () ->
        Regions_define.run ~module_reuse:cfg.Pa.module_reuse ~ordering state);
    timed "sw_balance" (fun () -> Sw_balance.run state);
    timed "sw_map" (fun () -> Sw_map.run ~incremental:true state);
    let plan =
      timed "reconf_sched" (fun () ->
          Reconf_sched.run_hot ~module_reuse:cfg.Pa.module_reuse arena state)
    in
    let ms = plan.Reconf_sched.p_times.Timing.makespan in
    let needs = region_needs state in
    scales.(it) <- scale;
    makespans.(it) <- ms;
    needs_log.(it) <- needs;
    if ms < !best then begin
      let feasible =
        Array.length needs = 0
        ||
        match
          (timed "fp_cache.check" (fun () ->
               Fp_cache.check cache ~engine:cfg.Pa.floorplan_engine
                 ?node_limit:cfg.Pa.floorplan_node_limit device needs))
            .Floorplanner.verdict
        with
        | Floorplanner.Feasible _ -> true
        | Floorplanner.Infeasible | Floorplanner.Unknown -> false
      in
      if feasible then begin
        exp := Stdlib.max 0 (!exp - 1);
        best := ms
      end
      else exp := Stdlib.min max_shrink_exp (!exp + 1)
    end
  done;
  (* The twin: [Pa.schedule_candidate] on its own context, the same RNG
     stream and the replay's scale sequence, candidate by candidate
     (after the replay, so it does not disturb the replay's caches). *)
  let divergences =
    oracle untraced (fun () ->
        let twin = Pa.Context.create inst and rng = Rng.create seed in
        let n = ref 0 in
        for it = 0 to restarts - 1 do
          let config = { cfg with Pa.ordering = Regions_define.Random (Rng.split rng) } in
          let cand =
            Pa.schedule_candidate ~config ~resource_scale:scales.(it) ~ctx:twin inst
          in
          if Pa.candidate_makespan cand <> makespans.(it)
             || Pa.candidate_needs cand <> needs_log.(it)
          then incr n
        done;
        !n)
  in
  check c (divergences = 0)
    "PA step replay diverged from Pa.schedule_candidate on %d candidate(s)" divergences;
  { best = !best; divergences }

(* Returns the untraced PA-R outcomes (their schedules seed the delta
   replay) and the untraced wall time. *)
let probe_pa c inp =
  let steps = [ "regions_define"; "sw_balance"; "sw_map"; "reconf_sched" ] in
  let divergences = ref 0 in
  let replay_wall = ref 0. and untraced_wall = ref 0. in
  let outcomes =
    Array.mapi
      (fun i inst ->
        let seed = inp.pa_seeds.(i) in
        let t0 = now () in
        let r, twin_secs =
          loop (fun untraced ->
              let r =
                step_replay c ~cache:(Fp_cache.create ~subsumption:false ()) ~seed
                  ~restarts:inp.restarts untraced inst
              in
              (r, !untraced))
        in
        replay_wall := !replay_wall +. (now () -. t0 -. twin_secs);
        divergences := !divergences + r.divergences;
        let t1 = now () in
        let o =
          Pa_random.run ~seed ~min_iterations:inp.restarts
            ~cache:(Fp_cache.create ~subsumption:false ()) ~budget_seconds:0. inst
        in
        untraced_wall := !untraced_wall +. (now () -. t1);
        let got = match o.Pa_random.schedule with Some s -> s.Schedule.makespan | None -> max_int in
        check c (got = r.best) "instance %d: replay best %d, Pa_random.run %d" i r.best got;
        o)
      inp.insts
  in
  let total = float_of_int (inp.restarts * Array.length inp.insts) in
  let per_restart name = (span name).secs *. 1e6 /. total in
  (* Share of the traced restart loop inside its spans: arena reset,
     steps 3-7 and the floorplan check of improving candidates. *)
  let step_secs =
    List.fold_left (fun a n -> a +. (span n).secs) 0.
      ("pa.state_reset" :: "fp_cache.check" :: steps)
  in
  let untraced_rate = total /. !untraced_wall and traced_rate = total /. !replay_wall in
  ( outcomes,
    [
      metric "pa.state_reset_us" "us" (us_per_call "pa.state_reset");
      metric "regions_define.us_per_restart" "us" (per_restart "regions_define");
      metric "sw_balance.us_per_restart" "us" (per_restart "sw_balance");
      metric "sw_map.us_per_restart" "us" (per_restart "sw_map");
      metric "reconf_sched.us_per_restart" "us" (per_restart "reconf_sched");
      metric "pa.kernel_coverage" "ratio" (step_secs /. !replay_wall);
      metric "pa.replay_divergences" "count" (float_of_int !divergences);
      metric "trace.overhead.restarts_per_s" "ratio"
        ((untraced_rate -. traced_rate) /. untraced_rate);
    ] )

(* ------------------------------------------------------------------ *)
(* core/batch and floorplan cache, on the workload's own pipeline *)

let cache_metrics ~wall cache =
  let st = Fp_cache.stats cache in
  let lookups = Fp_cache.lookups st in
  [
    metric "fp_cache.lookups_per_s" "1/s" (float_of_int lookups /. wall);
    metric "fp_cache.l1_hits" "count" (float_of_int st.Fp_cache.l1_hits);
    metric "fp_cache.l2_hits" "count" (float_of_int (st.Fp_cache.hits + st.Fp_cache.sub_hits));
    metric "fp_cache.misses" "count" (float_of_int st.Fp_cache.misses);
    metric "fp_cache.hit_ratio" "ratio" (Fp_cache.hit_rate st);
    metric "fp_cache.l2_read_retries" "count"
      (float_of_int (Array.fold_left ( + ) 0 (Fp_cache.stripe_read_retries cache)));
  ]

let probe_batch inp ~restarts =
  let requests =
    Array.mapi
      (fun i inst ->
        Batch.request ~seed:inp.pa_seeds.(i) ~min_iterations:restarts ~budget_seconds:0. inst)
      inp.insts
  in
  let cache = Fp_cache.create ~subsumption:false () in
  let _, st =
    loop (fun _ -> timed "batch.run" (fun () -> Batch.run ~cache ~jobs requests))
  in
  ( cache,
    st.Batch.wall_seconds,
    [
      metric "batch.slices" "count" (float_of_int st.Batch.total_slices);
      metric "batch.minor_words_per_restart" "words"
        (st.Batch.total_minor_words /. float_of_int (Stdlib.max 1 st.Batch.total_iterations));
    ] )

(* ------------------------------------------------------------------ *)
(* core/delta and core/lns: a replay of [Lns.polish]'s loop with spans
   around each kernel call, checked against [Lns.polish] itself. *)

let delta_replay c ~cache ~seed ~moves untraced requery_needs sched =
  let config = { Delta.default_config with Delta.cache = Some cache } in
  let d = timed "delta.of_schedule" (fun () -> Delta.of_schedule ~config sched) in
  let rng = Rng.create seed in
  let seed_mk = Delta.makespan d in
  let penalty = 10 * (seed_mk + 1) in
  let energy mk fp = if fp then mk else mk + penalty in
  let temp = ref (Stdlib.max 1.0 (0.05 *. float_of_int seed_mk)) in
  let cur = ref (energy seed_mk (Delta.fp_feasible d)) in
  let best = ref (if Delta.fp_feasible d then seed_mk else max_int) in
  let applied = ref 0 and accepted = ref 0 in
  for _ = 1 to moves do
    let move = timed "lns.propose" (fun () -> Lns.propose d rng) in
    let t0 = now () in
    let v = Delta.apply d move in
    let dt = now () -. t0 in
    (match v with
    | None -> record "delta.apply.rejected" dt
    | Some v ->
      incr applied;
      record (if v.Delta.needs_changed then "delta.apply.requery" else "delta.apply.retime") dt;
      if v.Delta.needs_changed && (span "delta.apply.requery").calls <= 64 then
        requery_needs :=
          (Delta.instance d, Array.of_list (List.map (Delta.region_res d) (Delta.live_regions d)))
          :: !requery_needs;
      let e = energy v.Delta.makespan v.Delta.fp_feasible in
      let delta = e - !cur in
      let keep =
        delta <= 0 || Rng.float rng 1.0 < exp (-.float_of_int delta /. !temp)
      in
      if keep then begin
        timed "delta.commit" (fun () -> Delta.commit d);
        incr accepted;
        cur := e;
        if v.Delta.fp_feasible && v.Delta.makespan < !best then begin
          best := v.Delta.makespan;
          ignore (timed "delta.to_schedule" (fun () -> Delta.to_schedule d))
        end
      end
      else timed "delta.rollback" (fun () -> Delta.rollback d));
    temp := Stdlib.max 1e-6 (!temp *. 0.999)
  done;
  (* A cold cache of its own, so its wall time compares fairly. *)
  let o =
    oracle untraced (fun () ->
        Lns.polish
          ~config:{ config with Delta.cache = Some (Fp_cache.create ~subsumption:false ()) }
          ~seed ~min_moves:moves ~budget_seconds:0. sched)
  in
  check c (o.Lns.makespan = !best && o.Lns.stats.Lns.applied = !applied
           && o.Lns.stats.Lns.accepted = !accepted)
    "delta replay diverged from Lns.polish (best %d vs %d)" !best o.Lns.makespan;
  (!applied, !accepted, o)

let probe_delta c inp outcomes =
  let requery_needs = ref [] in
  let applied = ref 0 and accepted = ref 0 and proposed = ref 0 in
  let replay_wall = ref 0. and lns_moves = ref 0 and lns_wall = ref 0. in
  let polished = ref [] in
  Array.iteri
    (fun i (o : Pa_random.outcome) ->
      match o.Pa_random.schedule with
      | None -> ()
      | Some sched ->
        let cache = Fp_cache.create ~subsumption:false () in
        let t0 = now () in
        let (a, acc, lns), oracle_secs =
          loop (fun untraced ->
              let r =
                delta_replay c ~cache ~seed:inp.lns_seeds.(i) ~moves:inp.moves untraced
                  requery_needs sched
              in
              (r, !untraced))
        in
        replay_wall := !replay_wall +. (now () -. t0 -. oracle_secs);
        lns_wall := !lns_wall +. lns.Lns.stats.Lns.elapsed;
        lns_moves := !lns_moves + lns.Lns.stats.Lns.proposed;
        applied := !applied + a;
        accepted := !accepted + acc;
        proposed := !proposed + inp.moves;
        Option.iter (fun s -> polished := s :: !polished) lns.Lns.schedule)
    outcomes;
  (* The floorplan layer on the demand multisets the re-query moves
     produced: a direct engine check, and a cache hit on a warm key. *)
  let warm = Fp_cache.create ~subsumption:false () in
  loop (fun _ ->
      List.iter
        (fun (inst, needs) ->
          let device = inst.Instance.arch.Arch.device in
          ignore (timed "floorplanner.check" (fun () -> Floorplanner.check device needs));
          ignore (Fp_cache.check warm device needs);
          timed_batch "fp_cache.hit" 20 (fun () -> ignore (Fp_cache.check warm device needs)))
        !requery_needs);
  let untraced_rate = float_of_int !lns_moves /. !lns_wall in
  let traced_rate = float_of_int !proposed /. !replay_wall in
  ( List.rev !polished,
    [
      metric "delta.apply_us.retime" "us" (us_per_call "delta.apply.retime");
      metric "delta.apply_us.requery" "us" (us_per_call "delta.apply.requery");
      metric "delta.rollback_us" "us" (us_per_call "delta.rollback");
      metric "delta.commit_us" "us" (us_per_call "delta.commit");
      metric "delta.to_schedule_us" "us" (us_per_call "delta.to_schedule");
      metric "lns.apply_ratio" "ratio" (float_of_int !applied /. float_of_int (Stdlib.max 1 !proposed));
      metric "lns.accept_ratio" "ratio" (float_of_int !accepted /. float_of_int (Stdlib.max 1 !applied));
      metric "lns.moves_per_s" "1/s" untraced_rate;
      metric "floorplanner.check_us" "us" (us_per_call "floorplanner.check");
      metric "fp_cache.hit_us" "us" (us_per_call "fp_cache.hit");
      metric "trace.overhead.moves_per_s" "ratio" ((untraced_rate -. traced_rate) /. untraced_rate);
    ] )

(* ------------------------------------------------------------------ *)
(* core/validate and core/schedule_io on the schedules produced *)

let probe_outputs c schedules =
  loop (fun _ ->
      List.iter
        (fun s ->
          let r = timed "validate.check" (fun () -> Validate.check s) in
          check c (r = Ok ()) "a probe schedule fails Validate.check";
          ignore (timed "schedule_io.encode" (fun () -> Schedule_io.to_string s)))
        schedules);
  [
    metric "validate.check_us" "us" (us_per_call "validate.check");
    metric "schedule_io.encode_us" "us" (us_per_call "schedule_io.encode");
  ]

(* ------------------------------------------------------------------ *)
(* serve: Server driven in-process on one domain, fed the serve-open
   nominal arrival schedule; then Transport over a socketpair. *)

let serve_lines () = Array.map (Serve_wl.request_body ~tenant:"t0") (Serve_wl.pool ())

(* Open-loop replay of [n] Poisson arrivals on a Server stepped by this
   domain. With [traced], spans around parse, submit, step and encode;
   returns the latencies (due -> response) in ms. *)
let serve_replay ?(idle = ref 0.) ~traced ~seed ~n () =
  let bodies = serve_lines () in
  let rng = rng_for ~salt:(Serve_wl.salt + 2) seed in
  let answered_at = Hashtbl.create 256 in
  let submitted_at = Hashtbl.create 256 in
  let step_start = ref 0. in
  let respond r =
    let id = Protocol.response_id r in
    if traced then begin
      (* nested inside the server.step span *)
      let t0 = now () in
      ignore (Protocol.response_to_line r);
      record ~covered:false "protocol.encode" (now () -. t0);
      match Hashtbl.find_opt submitted_at id with
      | Some t -> record ~covered:false "server.queue_wait" (!step_start -. t)
      | None -> ()
    end
    else ignore (Protocol.response_to_line r);
    Hashtbl.replace answered_at id (now ())
  in
  let srv = Server.create ~respond Server.default_config in
  let t_start = now () +. 0.01 in
  let due = Array.make n 0. in
  let t = ref t_start in
  for i = 0 to n - 1 do
    t := !t -. (log (1. -. Rng.float rng 1.) /. serve_nominal_rps);
    due.(i) <- !t
  done;
  let lines =
    Array.init n (fun i ->
        Serve_wl.request_line bodies.(Rng.int rng (Array.length bodies)) ~id:(string_of_int i))
  in
  let next = ref 0 in
  while !next < n || Hashtbl.length answered_at < n do
    let tn = now () in
    if !next < n && due.(!next) <= tn then begin
      let i = !next in
      let id = string_of_int i and line = lines.(i) in
      if traced then begin
        match timed "protocol.parse" (fun () -> Protocol.parse_request line) with
        | Ok req ->
          timed "server.submit" (fun () -> Server.submit srv req);
          Hashtbl.replace submitted_at id (now ())
        | Error m -> failwith m
      end
      else Server.submit_line srv line;
      incr next
    end
    else begin
      step_start := now ();
      let r = Server.step srv in
      if traced then begin
        (* only steps that answered a request count as server.step *)
        record (if r = Server.Did_work then "server.step" else "server.step.idle")
          (now () -. !step_start)
      end;
      match r with
      | Server.Did_work -> ()
      | Server.Idle | Server.Backoff _ | Server.Drained ->
        if !next < n then
          oracle idle (fun () ->
              Unix.sleepf (Float.max 0. (Float.min 0.001 (due.(!next) -. now ()))))
    end
  done;
  Array.init n (fun i ->
      match Hashtbl.find_opt answered_at (string_of_int i) with
      | Some t -> (t -. due.(i)) *. 1000.
      | None -> infinity)

(* Transport.poll per request: write a request to the client end of a
   socketpair, poll until its response is flushed back. *)
let transport_probe untraced ~n =
  let bodies = serve_lines () in
  let srv = Server.create ~respond:(fun _ -> ()) Server.default_config in
  let tr = Transport.create srv in
  let client, server_end = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Transport.add_socket tr server_end;
  let buf = Bytes.create 65536 in
  for i = 0 to n - 1 do
    let line = Serve_wl.request_line bodies.(i mod Array.length bodies) ~id:(string_of_int i) in
    ignore (Unix.write_substring client line 0 (String.length line));
    let got = ref false in
    while not !got do
      timed "transport.poll" (fun () -> Transport.poll tr ~timeout_s:0.);
      timed "server.step.transport" (fun () -> ignore (Server.step srv));
      (* the client side is not a layer of the program *)
      oracle untraced (fun () ->
          match Unix.select [ client ] [] [] 0. with
          | [ _ ], _, _ ->
            let k = Unix.read client buf 0 (Bytes.length buf) in
            if k > 0 && Bytes.index_opt (Bytes.sub buf 0 k) '\n' <> None then got := true
          | _ -> ())
    done
  done;
  Unix.close client;
  let s = span "transport.poll" in
  s.secs *. 1e6 /. float_of_int n

let probe_serve ~seed ~seconds =
  let n = Stdlib.max 20 (int_of_float (serve_nominal_rps *. float_of_int seconds *. 0.1)) in
  let untraced = serve_replay ~traced:false ~seed ~n () in
  (* Waiting for the next arrival is idle time, not uncovered work. *)
  let traced = loop (fun idle -> serve_replay ~idle ~traced:true ~seed ~n ()) in
  let poll_us = loop (fun untraced -> transport_probe untraced ~n:32) in
  let p50 a = median (Array.map (fun x -> Float.min x 1e9) a) in
  let wait = span "server.queue_wait" in
  ( [
      metric "protocol.parse_us" "us" (us_per_call "protocol.parse");
      metric "server.submit_us" "us" (us_per_call "server.submit");
      metric "server.queue_wait_ms" "ms"
        (if wait.calls = 0 then 0. else wait.secs *. 1000. /. float_of_int wait.calls);
      metric "server.step_ms" "ms" (us_per_call "server.step" /. 1000.);
      metric "protocol.encode_us" "us" (us_per_call "protocol.encode");
      metric "transport.poll_us" "us" poll_us;
      metric "trace.overhead.serve_latency_p50" "ratio" ((p50 traced -. p50 untraced) /. p50 untraced);
    ] )

(* The daemon's own counters and response fields, from a shortened
   serve-open drive of the real daemon (not traced). *)
let probe_daemon c ~seed ~seconds =
  let r = Serve_wl.drive c ~seed ~seconds:(Stdlib.max 2 (seconds * 3 / 10)) in
  ignore (Serve_wl.report r.Serve_wl.nominal);
  ignore (Serve_wl.report r.Serve_wl.overload);
  let m = r.Serve_wl.daemon_metrics in
  let int path = float_of_int (Option.value ~default:0 (Option.bind (Json.path path m) Json.get_int)) in
  let ok_reqs =
    List.filter_map
      (fun (q : Serve_wl.req) ->
        match q.Serve_wl.outcome with
        | Serve_wl.Ok_ o -> Some (o.server_ms, (q.Serve_wl.read -. q.Serve_wl.sent) *. 1000.)
        | _ -> None)
      (Array.to_list r.Serve_wl.nominal.Serve_wl.reqs)
  in
  let server = Array.of_list (List.map fst ok_reqs) in
  let gaps = Array.of_list (List.map (fun (s, cl) -> cl -. s) ok_reqs) in
  [
    metric "server.shed.queue_full" "count" (int [ "shed"; "queue_full" ]);
    metric "server.degraded.rung1" "count" (int [ "degrade"; "reduced" ]);
    metric "server.degraded.rung2" "count" (int [ "degrade"; "heuristic" ]);
    metric "server.max_queue_depth" "count" (int [ "queue"; "max_depth" ]);
    metric "server.retries" "count" (int [ "retries" ]);
    metric "serve.server_latency_p50_ms" "ms" (median server);
    metric "serve.transport_gap_ms" "ms" (median gaps);
    metric "serve.nominal_latency_p50_ms" "ms" (median (Serve_wl.latencies r.Serve_wl.nominal));
    metric "serve.nominal_latency_tail_ms" "ms" (snd (Serve_wl.tail_latency r.Serve_wl.nominal));
  ]

(* ------------------------------------------------------------------ *)

let run ~workload ~seed ~seconds =
  let c = checks () in
  let inp = inputs ~workload ~seed in
  probe_parse inp;
  let parse =
    [
      metric "io.parse_us" "us" (us_per_call "io.parse");
      metric "pa.context_create_us" "us" (us_per_call "pa.context_create");
    ]
  in
  let outcomes, pa = probe_pa c inp in
  (* The batch engine at the workload's own effort on batch-large. *)
  let restarts = if workload = "batch-large" then batch_restarts else inp.restarts in
  let batch_cache, batch_wall, batch = probe_batch inp ~restarts in
  let polished, delta = probe_delta c inp outcomes in
  let outputs =
    probe_outputs c
      (List.filter_map (fun (o : Pa_random.outcome) -> o.Pa_random.schedule)
         (Array.to_list outcomes)
      @ polished)
  in
  (* Cache counters from the path this workload's users run: the batch
     engine for batch-large, PA-R + polish through one cache for polish,
     the daemon-side server for serve-open. *)
  let cache =
    match workload with
    | "batch-large" -> cache_metrics ~wall:batch_wall batch_cache
    | "polish" ->
      let cache = Fp_cache.create ~subsumption:false () in
      let t0 = now () in
      Array.iteri
        (fun i inst -> ignore (Polish_wl.optimize ~cache ~seed:inp.lns_seeds.(i) i inst))
        inp.insts;
      cache_metrics ~wall:(now () -. t0) cache
    | _ ->
      let cache = Fp_cache.create ~subsumption:false () in
      let srv = Server.create ~cache ~respond:(fun _ -> ()) Server.default_config in
      let t0 = now () in
      let bodies = serve_lines () in
      let rng = rng_for ~salt:(Serve_wl.salt + 3) seed in
      for i = 0 to 4 * serve_pool_size - 1 do
        Server.submit_line srv
          (Serve_wl.request_line bodies.(Rng.int rng (Array.length bodies)) ~id:(string_of_int i));
        ignore (Server.step srv)
      done;
      cache_metrics ~wall:(now () -. t0) cache
  in
  let serve = probe_serve ~seed ~seconds in
  let coverage = !covered_secs /. !loop_secs in
  Printf.printf "  trace coverage: %.3f of the probe loops' wall time is inside layer spans%s\n"
    coverage
    (if coverage < coverage_bound then
       Printf.sprintf " -- BELOW the %.2f bound" coverage_bound
     else "");
  let daemon = probe_daemon c ~seed ~seconds in
  report_checks c;
  ( c,
    parse @ pa @ batch @ cache @ delta @ outputs @ serve @ daemon
    @ [ metric "trace.coverage" "ratio" coverage ] )
