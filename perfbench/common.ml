(* Shared plumbing for the benchmark: clocks, order statistics, child
   processes, the work directory, seeded inputs, and the one-line JSON
   result every run ends with. *)

module Rng = Resched_util.Rng
module Json = Resched_util.Json
module Arch = Resched_platform.Arch
module Suite = Resched_platform.Suite
module Instance = Resched_platform.Instance

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Fixed effort and the frozen serve rates. These numbers define the
   workloads; changing any of them changes the benchmark, not the
   program (see NOTES.md). *)

let jobs = 2

(* batch-large: one manifest of [batch_instances] suite instances at
   [batch_tasks] tasks, [batch_restarts] restarts each, budget 0. *)
let batch_tasks = 100
let batch_instances = 6
let batch_restarts = 200

(* polish: per instance, [polish_restarts] PA-R restarts then
   [polish_moves] LNS proposals, [polish_instances] instances per child
   process. *)
let polish_tasks = 60
let polish_restarts = 40
let polish_moves = 800
let polish_instances = 6

(* serve-open: a pool of 16 inline instances, [serve_restarts] restarts
   per request; Poisson arrivals at two absolute rates (requests/s),
   frozen from the reference host's one-worker capacity (see NOTES.md). *)
let serve_pool_size = 16
let serve_restarts = 100
let serve_nominal_rps = 20.
let serve_overload_rps = 120.
let serve_latency_limit_ms = 500.

(* ------------------------------------------------------------------ *)
(* Order statistics *)

let percentile = Resched_util.Stats.percentile
let median = Resched_util.Stats.median
let mean = Resched_util.Stats.mean

(* Python's [statistics.quantiles(data, n=4)] ("exclusive" method), so
   the steadiness report reads exactly as the acceptance check does. *)
let quartiles a =
  let d = Array.copy a in
  Array.sort compare d;
  let m = Array.length d in
  if m < 2 then (d.(0), d.(0), d.(0))
  else begin
    let q i =
      let j = Stdlib.max 1 (Stdlib.min (i * (m + 1) / 4) (m - 1)) in
      let delta = (i * (m + 1)) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
  end

(* The highest percentile (in whole percents, at most 95) that has at
   least ten samples beyond it among [n]. *)
let tail_percentile n =
  let rec go p =
    if p <= 50 || float_of_int (n * (100 - p)) /. 100. >= 10. then p
    else go (p - 1)
  in
  go 95

(* ------------------------------------------------------------------ *)
(* Processes *)

let dev_null () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* Spawn [prog args] with stdout (and stderr) redirected to files and
   [env] bindings added to the environment. *)
let spawn ?(env = [||]) ?stdout_file ?stderr_file prog args =
  let out_fd path =
    match path with
    | Some p -> Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    | None -> dev_null ()
  in
  let i = dev_null () in
  let o = out_fd stdout_file in
  let e = out_fd stderr_file in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close [ i; o; e ])
    (fun () ->
      Unix.create_process_env prog (Array.of_list (prog :: args))
        (Array.append env (Unix.environment ()))
        i o e)

(* Peak resident set of a live process, MiB ([VmHWM] in /proc). *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_lines with
  | lines ->
    List.find_map
      (fun l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
            (fun kb -> Some (float_of_int kb /. 1024.))
        else None)
      lines
  | exception Sys_error _ -> None

let exit_code = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s

(* Reap [pid]; returns its exit code, the time it was reaped and its
   peak resident set in MiB. The peak is [VmHWM], polled every 2 ms
   while the child runs: rusage's [ru_maxrss] would also count the
   spawning process's own resident set, which [posix_spawn] hands to
   the child at exec. A waiter thread blocks in [waitpid] so the reap
   time is exact. *)
let wait_child pid =
  let m = Mutex.create () and result = ref None in
  let waiter =
    Thread.create
      (fun () ->
        let _, st = Unix.waitpid [] pid in
        let t = now () in
        Mutex.protect m (fun () -> result := Some (st, t)))
      ()
  in
  let hwm = ref 0. in
  let rec poll () =
    match Mutex.protect m (fun () -> !result) with
    | Some r -> r
    | None ->
      Option.iter (fun v -> hwm := Float.max !hwm v) (vm_hwm_mb pid);
      Thread.delay 0.002;
      poll ()
  in
  let st, t_end = poll () in
  Thread.join waiter;
  (exit_code st, t_end, !hwm)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The build directory [run.sh] built into; every file the benchmark
   writes lives below it, inside the checkout. *)
let build_dir () =
  match Sys.getenv_opt "PERFBENCH_BUILD_DIR" with
  | Some d -> d
  | None -> failwith "PERFBENCH_BUILD_DIR is not set (start the benchmark through perfbench/run.sh)"

let fpga_sched () =
  Filename.concat (build_dir ()) "default/bin/fpga_sched.exe"

let with_work_dir name f =
  let dir =
    Filename.concat (build_dir ())
      (Printf.sprintf "perfbench-work/%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Seeded inputs *)

(* One RNG stream per (workload, seed): the same seed gives the same
   request draws, arrival times and search seeds. *)
let rng_for ~salt seed = Rng.create ((seed * 1_000_003) + salt)

(* The instance sets are fixed parts of the workloads (paper-suite
   instances drawn once from [suite_seed]); the run's seed drives every
   random choice made on them. Per-instance restart cost varies by about
   a third between suite instances, so instance sets that changed with
   the seed would swamp any code change (see NOTES.md). *)
let suite_seed = 2016

let suite_instances ~salt ~tasks ~count =
  let rng = rng_for ~salt suite_seed in
  Array.init count (fun _ -> Suite.instance rng ~tasks)

(* The saturated-fabric variant (xc7z010, CLB ranges refitted to it)
   the bench's iteration section uses: the device saturates, the
   shrink lattice engages and repeated region sets hit the cache. *)
let saturated_params =
  { Suite.default_params with Suite.clb_min = 1000; clb_max = 2500 }

(* ------------------------------------------------------------------ *)
(* Result line *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* Human-readable lines first, the machine-readable JSON object last. *)
let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "  %-34s %16.6f %s\n" m.name m.value m.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           (* a non-finite value already failed the run's checks *)
           let v = if Float.is_finite m.value then m.value else -1. in
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_number v) m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (Stdlib.max 1 attempted) failed body

(* Run manifest: printed with every result, so numbers from different
   hosts or widths are never compared blindly. *)
let print_manifest ~workload ~seed ~seconds ~trace =
  let cores = Resched_util.Domain_pool.available_cores () in
  let effective = Stdlib.min jobs cores in
  Printf.printf
    "perfbench: workload %s seed %d seconds %d trace %b | nproc %d, OCaml %s, \
     jobs requested %d effective %d, serve width %d\n%!"
    workload seed seconds trace cores Sys.ocaml_version jobs effective
    (Stdlib.max 1 (jobs - 1))

(* Accumulates output-check failures with a reason each. *)
type checks = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let checks () = { attempted = 0; failed = 0; notes = [] }

let check c ok fmt =
  Printf.ksprintf
    (fun msg ->
      c.attempted <- c.attempted + 1;
      if not ok then begin
        c.failed <- c.failed + 1;
        if List.length c.notes < 20 then c.notes <- msg :: c.notes
      end)
    fmt

let report_checks c =
  Printf.printf "  output checks: %d attempted, %d failed (error_rate %.4f)\n"
    c.attempted c.failed
    (float_of_int c.failed /. float_of_int (Stdlib.max 1 c.attempted));
  List.iter (Printf.printf "  FAILED: %s\n") (List.rev c.notes)
