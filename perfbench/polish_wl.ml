(* polish: the optimize path at fixed effort. Per instance, PA-R at
   fixed restarts then LNS polish at fixed proposals through one
   verdict-transparent floorplan cache, in a fresh child process (this
   executable's [polish-child] mode) per repetition. The `optimize` CLI
   only takes wall-clock budgets, so its output is not a function of the
   seed; the child runs the same library calls at fixed effort. *)

open Common
module Io = Resched_platform.Io
module Pa_random = Resched_core.Pa_random
module Lns = Resched_core.Lns
module Delta = Resched_core.Delta
module Schedule = Resched_core.Schedule
module Schedule_io = Resched_core.Schedule_io
module Validate = Resched_core.Validate
module Fp_cache = Resched_floorplan.Fp_cache

let salt = 0x9011

let instances () = suite_instances ~salt ~tasks:polish_tasks ~count:polish_instances

(* The PA-R phase's seeds are fixed per instance (its seed schedules are
   part of the workload: with 40 restarts the phase's cost is mostly the
   floorplan checks of improving candidates, whose number swings with
   the seed). Child [k] of a run polishes with its own LNS seeds, so the
   run's medians average over independent LNS trajectories. *)
let pa_seed i = 7 + i
let lns_seed seed k i = (seed * 7919) + (k * 131) + i

type result = {
  makespan : int;
  restarts : int;
  pa_s : float;
  proposed : int;
  applied : int;
  accepted : int;
  polish_s : float;
  schedule : Schedule.t option;
}

(* The two phases of the unit of work, as the child runs them per
   instance (the parent runs them in-process as the oracle). *)
let seed_phase ~cache i inst =
  Pa_random.run ~seed:(pa_seed i) ~min_iterations:polish_restarts ~cache
    ~budget_seconds:0. inst

let polish_phase ~cache ~seed sched =
  let config = { Delta.default_config with Delta.cache = Some cache } in
  Lns.polish ~config ~seed ~min_moves:polish_moves ~budget_seconds:0. sched

let final_schedule sched (o : Lns.outcome) =
  match o.Lns.schedule with Some s -> s | None -> sched

let optimize ~cache ~seed i inst =
  let t0 = now () in
  let pa = seed_phase ~cache i inst in
  let t1 = now () in
  match pa.Pa_random.schedule with
  | None ->
    { makespan = -1; restarts = pa.Pa_random.iterations; pa_s = t1 -. t0;
      proposed = 0; applied = 0; accepted = 0; polish_s = 0.; schedule = None }
  | Some sched ->
    let o = polish_phase ~cache ~seed sched in
    let t2 = now () in
    let final = final_schedule sched o in
    let st = o.Lns.stats in
    {
      makespan = final.Schedule.makespan;
      restarts = pa.Pa_random.iterations;
      pa_s = t1 -. t0;
      proposed = st.Lns.proposed;
      applied = st.Lns.applied;
      accepted = st.Lns.accepted;
      polish_s = t2 -. t1;
      schedule = Some final;
    }

(* ------------------------------------------------------------------ *)
(* Child process: reads the instances the parent wrote, writes one JSON
   line per instance and a final line with its start-up stamp and peak
   resident set. *)

let child ~dir ~seed ~k =
  let insts =
    Array.init polish_instances (fun i ->
        match Io.load (Filename.concat dir (Printf.sprintf "i%02d.inst" i)) with
        | Ok inst -> inst
        | Error msg -> failwith msg)
  in
  let cache = Fp_cache.create ~subsumption:false () in
  let first_restart = now () in
  Array.iteri
    (fun i inst ->
      let r = optimize ~cache ~seed:(lns_seed seed k i) i inst in
      (match r.schedule with
      | Some s ->
        Schedule_io.save (Filename.concat dir (Printf.sprintf "o%02d.sched" i)) s
      | None -> ());
      print_endline
        (Json.to_string ~indent:0
           (Json.Obj
              [
                ("makespan", Json.Int r.makespan);
                ("restarts", Json.Int r.restarts);
                ("pa_s", Json.float r.pa_s);
                ("proposed", Json.Int r.proposed);
                ("applied", Json.Int r.applied);
                ("accepted", Json.Int r.accepted);
                ("polish_s", Json.float r.polish_s);
              ])))
    insts;
  let hwm = Option.value ~default:0. (vm_hwm_mb (Unix.getpid ())) in
  print_endline
    (Json.to_string ~indent:0
       (Json.Obj
          [ ("first_restart", Json.float first_restart); ("vm_hwm_mb", Json.float hwm) ]));
  exit 0

(* ------------------------------------------------------------------ *)
(* Parent *)

type child_run = {
  setup : float;  (** spawn to the child's first restart *)
  wall : float;  (** spawn to reaped *)
  rows : Json.t list;
  hwm : float;
  makespans : int array;  (** the oracle's, equal to the child's when checked *)
}

let spawn_child c ~dir ~seed ~expected k =
  let expected = expected k in
  let out = Filename.concat dir (Printf.sprintf "child%d.out" k) in
  let t0 = now () in
  let pid =
    spawn ~stdout_file:out ~stderr_file:(Filename.concat dir "stderr.txt")
      Sys.executable_name [ "polish-child"; dir; string_of_int seed; string_of_int k ]
  in
  let code, t_end, _ = wait_child pid in
  let wall = t_end -. t0 in
  check c (code = 0) "polish child %d exited %d" k code;
  let lines =
    List.filter_map
      (fun l -> Result.to_option (Json.parse l))
      (String.split_on_char '\n' (read_file out))
  in
  let rows, last =
    match List.rev lines with
    | last :: rev_rows -> (List.rev rev_rows, Some last)
    | [] -> ([], None)
  in
  let getf j k = Option.value ~default:0. (Option.bind (Json.member k j) Json.get_float) in
  check c (List.length rows = Array.length expected)
    "polish child %d reported %d instances" k (List.length rows);
  List.iteri
    (fun i row ->
      let got = Option.bind (Json.member "makespan" row) Json.get_int in
      let file = Filename.concat dir (Printf.sprintf "o%02d.sched" i) in
      (match Schedule_io.load file with
      | Ok sched ->
        check c (Validate.check sched = Ok ()) "%s fails Validate.check" file;
        check c (Some sched.Schedule.makespan = got)
          "%s makespan differs from the reported one" file
      | Error msg -> check c false "%s: %s" file msg);
      Sys.remove file;
      if i < Array.length expected then
        check c (got = Some expected.(i))
          "instance %d: child makespan %s, in-process Lns.polish %d" i
          (match got with Some m -> string_of_int m | None -> "none")
          expected.(i))
    rows;
  match last with
  | Some j ->
    { setup = getf j "first_restart" -. t0; wall; rows; hwm = getf j "vm_hwm_mb";
      makespans = expected }
  | None -> { setup = nan; wall; rows; hwm = nan; makespans = expected }

let run ~seed ~seconds =
  let c = checks () in
  with_work_dir "polish" (fun dir ->
      let insts = instances () in
      Array.iteri
        (fun i inst -> Io.save (Filename.concat dir (Printf.sprintf "i%02d.inst" i)) inst)
        insts;
      (* Oracle: the fixed seed phase once, then each child's polish
         phase, computed just before that child runs. *)
      let cache = Fp_cache.create ~subsumption:false () in
      let seeds = Array.mapi (fun i inst -> (seed_phase ~cache i inst).Pa_random.schedule) insts in
      let expected k =
        Array.mapi
          (fun i s ->
            match s with
            | None -> -1
            | Some sched ->
              (final_schedule sched (polish_phase ~cache ~seed:(lns_seed seed k i) sched))
                .Schedule.makespan)
          seeds
      in
      (* The run's seconds cover the children and their oracles. *)
      let deadline = now () +. float_of_int seconds in
      let runs = ref [] in
      while List.length !runs < 3 || now () < deadline do
        runs := spawn_child c ~dir ~seed ~expected (List.length !runs) :: !runs
      done;
      let runs = Array.of_list (List.rev !runs) in
      let rows = List.concat_map (fun r -> r.rows) (Array.to_list runs) in
      let getf k j = Option.value ~default:0. (Option.bind (Json.member k j) Json.get_float) in
      let sum k = List.fold_left (fun a j -> a +. getf k j) 0. rows in
      let per_instance_ms =
        Array.of_list (List.map (fun j -> (getf "pa_s" j +. getf "polish_s" j) *. 1000.) rows)
      in
      Printf.printf
        "  polish: %d child processes x %d instances (%d tasks), %d restarts + \
         %d proposals each; %.0f moves/s, apply %.3f, accept %.3f\n"
        (Array.length runs) polish_instances polish_tasks polish_restarts
        polish_moves
        (sum "proposed" /. sum "polish_s")
        (sum "applied" /. sum "proposed")
        (sum "accepted" /. Float.max 1. (sum "applied"));
      let tail = tail_percentile (Array.length per_instance_ms) in
      Printf.printf "  per-instance latency p50 %.1f ms, p%d %.1f ms\n"
        (median per_instance_ms) tail
        (percentile per_instance_ms (float_of_int tail));
      report_checks c;
      let f g = Array.map g runs in
      ( c,
        [
          metric "restarts_per_s" "1/s"
            (median
               (f (fun r ->
                    List.fold_left (fun a j -> a +. getf "restarts" j) 0. r.rows
                    /. List.fold_left (fun a j -> a +. getf "pa_s" j) 0. r.rows)));
          metric "goodput_rps" "1/s"
            (median
               (f (fun r ->
                    float_of_int (List.length r.rows)
                    /. List.fold_left (fun a j -> a +. getf "pa_s" j +. getf "polish_s" j) 0. r.rows)));
          metric "makespan_mean" "time_units"
            (mean (Array.map float_of_int (Array.concat (Array.to_list (f (fun r -> r.makespans))))));
          metric "setup_s" "s" (median (f (fun r -> r.setup)));
          metric "peak_rss_mb" "MiB" (median (f (fun r -> r.hwm)));
        ] ))
