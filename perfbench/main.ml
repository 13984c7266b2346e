(* Entry point of the benchmark (start it through run.sh, which builds
   it). Modes:

     main.exe --workload W --seed N --seconds S --trace 0|1
         one measured run; the last stdout line is the JSON result
     main.exe steady --workload W [--runs 10] [--sets 2] [--seconds S]
         repeat runs over seeds, print each metric's median and
         quartiles and whether the sets agree within BENCHMARK.json's
         bounds
     main.exe calibrate-serve
         the serve pool's closed-loop service time on this host (how the
         frozen serve rates were chosen)
     main.exe polish-child DIR SEED K
         the polish workload's child process (spawned by the run)

   Exit codes: 0 on a measured run whose outputs all checked out, 1 when
   any output check failed, 2 on bad usage or a run that could not be
   measured. *)

let workloads = [ "batch-large"; "polish"; "serve-open" ]

let usage () =
  prerr_endline
    "usage: run.sh --workload <batch-large|polish|serve-open> --seed N \
     --seconds S --trace 0|1\n\
    \       run.sh steady --workload W [--runs N] [--sets N] [--seconds S] \
     [--trace 0|1] [--first-seed N]";
  exit 2

let parse_flags args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] args

let flag flags name ~default conv =
  match List.assoc_opt name flags with
  | None -> (
    match default with Some d -> d | None -> usage ())
  | Some v -> (
    match conv v with Some x -> x | None -> usage ())

let measured_run flags =
  let workload = flag flags "workload" ~default:None Option.some in
  if not (List.mem workload workloads) then usage ();
  let seed = flag flags "seed" ~default:None int_of_string_opt in
  let seconds = flag flags "seconds" ~default:None int_of_string_opt in
  let trace = flag flags "trace" ~default:(Some 0) int_of_string_opt in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  Common.print_manifest ~workload ~seed ~seconds ~trace:(trace = 1);
  let checks, metrics =
    if trace = 1 then Layers.run ~workload ~seed ~seconds
    else
      match workload with
      | "batch-large" -> Batch_wl.run ~seed ~seconds
      | "polish" -> Polish_wl.run ~seed ~seconds
      | _ -> Serve_wl.run ~seed ~seconds
  in
  List.iter
    (fun (m : Common.metric) ->
      Common.check checks (Float.is_finite m.Common.value) "metric %s is %f"
        m.Common.name m.Common.value)
    metrics;
  let ok = checks.Common.failed = 0 in
  Common.print_result ~correct:ok ~attempted:checks.Common.attempted
    ~failed:checks.Common.failed metrics;
  exit (if ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "polish-child"; dir; seed; k ] -> (
    match (int_of_string_opt seed, int_of_string_opt k) with
    | Some seed, Some k -> Polish_wl.child ~dir ~seed ~k
    | _ -> usage ())
  | "steady" :: rest -> Steady.run (parse_flags rest)
  | [ "calibrate-serve" ] -> Serve_wl.calibrate ()
  | [] -> usage ()
  | args -> (
    try measured_run (parse_flags args) with
    | Failure msg | Sys_error msg ->
      Printf.eprintf "perfbench: %s\n" msg;
      exit 2)
