(* batch-large: `fpga_sched batch` on a manifest of 100-task suite
   instances at fixed effort (budget 0, fixed restarts, --jobs 2), one
   fresh process per invocation, repeated for the run's seconds. *)

open Common
module Io = Resched_platform.Io
module Batch = Resched_core.Batch
module Pa_random = Resched_core.Pa_random
module Schedule = Resched_core.Schedule
module Schedule_io = Resched_core.Schedule_io
module Validate = Resched_core.Validate
module Fp_cache = Resched_floorplan.Fp_cache

let salt = 0xba7c

let instances () = suite_instances ~salt ~tasks:batch_tasks ~count:batch_instances

(* Invocation [k] of a run schedules the manifest with its own search
   seeds, so the run's medians average over independent PA-R
   trajectories (restart cost depends on the trajectory). *)
let instance_seed seed k i = (seed * 7919) + (k * 131) + i

(* The in-process oracle: the same requests through [Batch.run] at the
   same seed and effort, with the CLI's verdict-transparent cache. *)
let reference ~seed ~k insts =
  let requests =
    Array.mapi
      (fun i inst ->
        Batch.request ~seed:(instance_seed seed k i)
          ~min_iterations:batch_restarts ~budget_seconds:0. inst)
      insts
  in
  fst (Batch.run ~cache:(Fp_cache.create ~subsumption:false ()) ~jobs requests)

let write_instances dir insts =
  Array.iteri
    (fun i inst -> Io.save (Filename.concat dir (Printf.sprintf "i%02d.inst" i)) inst)
    insts

let write_manifest dir ~seed ~k insts =
  let manifest = Filename.concat dir (Printf.sprintf "manifest%d.txt" k) in
  let lines =
    List.init (Array.length insts) (fun i ->
        Printf.sprintf "{\"path\": \"i%02d.inst\", \"seed\": %d}" i
          (instance_seed seed k i))
  in
  write_file manifest (String.concat "\n" lines ^ "\n");
  manifest

type invocation = {
  makespans : int array;  (** the oracle's, equal to the CLI's when checked *)
  wall : float;  (** spawn to reaped *)
  engine : float;  (** the engine's own wall time (--stats) *)
  restarts : int;
  rss_mb : float;  (** peak resident set of the CLI *)
}

(* Oracle, then one measured CLI invocation, for search seeds [k]. *)
let invoke c ~dir ~seed ~insts k =
  let expected =
    Array.map
      (fun (o : Pa_random.outcome) ->
        match o.Pa_random.schedule with Some s -> s.Schedule.makespan | None -> -1)
      (reference ~seed ~k insts)
  in
  let manifest = write_manifest dir ~seed ~k insts in
  let out_dir = Filename.concat dir (Printf.sprintf "out%d" k) in
  let stats_file = Filename.concat dir (Printf.sprintf "stats%d.json" k) in
  let args =
    [ "batch"; manifest; "--jobs"; string_of_int jobs; "--budget-ms"; "0";
      "--min-iterations"; string_of_int batch_restarts; "--stats"; stats_file;
      "--out-dir"; out_dir ]
  in
  let t0 = now () in
  let pid =
    spawn ~stderr_file:(Filename.concat dir "stderr.txt") (fpga_sched ()) args
  in
  let code, t_end, rss_mb = wait_child pid in
  let wall = t_end -. t0 in
  check c (code = 0) "batch invocation %d exited %d" k code;
  let stats =
    match Json.parse_file stats_file with Ok j -> Some j | Error _ -> None
  in
  let get_f path =
    Option.value ~default:0.
      (Option.bind (Option.bind stats (Json.path path)) Json.get_float)
  and get_i path =
    Option.value ~default:0
      (Option.bind (Option.bind stats (Json.path path)) Json.get_int)
  in
  let rows =
    Option.value ~default:[]
      (Option.bind (Option.bind stats (Json.member "instances")) Json.to_list)
  in
  check c (List.length rows = Array.length expected)
    "invocation %d reported %d instances" k (List.length rows);
  List.iteri
    (fun i row ->
      let got = Option.bind (Json.member "makespan" row) Json.get_int in
      let file =
        Filename.concat out_dir
          (Printf.sprintf "%03d_i%02d.sched" i i)
      in
      (match Schedule_io.load file with
      | Ok sched ->
        check c (Validate.check sched = Ok ()) "%s fails Validate.check" file;
        check c (Some sched.Schedule.makespan = got)
          "%s makespan differs from the reported one" file
      | Error msg -> check c false "%s: %s" file msg);
      if i < Array.length expected then
        check c (got = Some expected.(i))
          "instance %d: CLI makespan %s, in-process Batch.run %d" i
          (match got with Some m -> string_of_int m | None -> "none")
          expected.(i))
    rows;
  rm_rf out_dir;
  {
    makespans = expected;
    wall;
    engine = get_f [ "wall_seconds" ];
    restarts = get_i [ "total_iterations" ];
    rss_mb;
  }

let run ~seed ~seconds =
  let c = checks () in
  with_work_dir "batch-large" (fun dir ->
      let insts = instances () in
      write_instances dir insts;
      (* One invocation first, checked but not measured: binary and
         inputs into the page cache, as for any user who runs the tool
         twice. *)
      ignore (invoke c ~dir ~seed ~insts 0 : invocation);
      (* The run's seconds cover the measured invocations and their
         oracles, which alternate. *)
      let deadline = now () +. float_of_int seconds in
      let runs = ref [] in
      while List.length !runs < 3 || now () < deadline do
        runs := invoke c ~dir ~seed ~insts (List.length !runs + 1) :: !runs
      done;
      let runs = Array.of_list (List.rev !runs) in
      let f g = Array.map g runs in
      let n_inst = float_of_int batch_instances in
      let walls_ms = f (fun r -> r.wall *. 1000.) in
      Printf.printf
        "  batch-large: %d invocations of %d x %d-task instances, %d restarts \
         each, own search seeds per invocation\n"
        (Array.length runs) batch_instances batch_tasks batch_restarts;
      Printf.printf "  invocation wall p50 %.1f ms, p95 %.1f ms\n" (median walls_ms)
        (percentile walls_ms 95.);
      report_checks c;
      ( c,
        [
          metric "restarts_per_s" "1/s"
            (median (f (fun r -> float_of_int r.restarts /. r.engine)));
          metric "goodput_rps" "1/s" (median (f (fun r -> n_inst /. r.wall)));
          metric "makespan_mean" "time_units"
            (mean (Array.map float_of_int (Array.concat (Array.to_list (f (fun r -> r.makespans))))));
          metric "setup_s" "s" (median (f (fun r -> r.wall -. r.engine)));
          metric "peak_rss_mb" "MiB" (median (f (fun r -> r.rss_mb)));
        ] ))
