(* serve-open: the real daemon (`fpga_sched serve --socket ... --jobs 2`)
   in its own process, driven by this single-threaded open-loop
   generator over two connections (two tenants) with Poisson arrivals at
   two frozen absolute rates: [nominal] (about half the reference host's
   one-worker capacity) and [overload] (about twice it). Requests draw
   from a fixed pool of 16 inline instances. *)

open Common
module Io = Resched_platform.Io
module Pa_random = Resched_core.Pa_random
module Schedule = Resched_core.Schedule
module Schedule_io = Resched_core.Schedule_io
module Validate = Resched_core.Validate
module Fp_cache = Resched_floorplan.Fp_cache

let salt = 0x5e4e

(* ------------------------------------------------------------------ *)
(* The request pool *)

type entry = {
  text : string;  (** instance text, as sent inline *)
  seed : int;
  emit : bool;  (** ask for the full schedule in the response *)
}

(* 16 fixed requests (instances drawn once from [suite_seed], fixed
   search seeds, so a request's service time does not change with the
   run's seed, which drives the arrivals and draws): 20 and 30 tasks
   (bit 0), xc7z020 or the saturated xc7z010 refit (bit 1),
   emit_schedule (bit 2), two of each combination. *)
let pool () =
  let rng = rng_for ~salt suite_seed in
  Array.init serve_pool_size (fun i ->
      let tasks = if i land 1 = 0 then 20 else 30 in
      let inst =
        if i land 2 = 0 then Suite.instance rng ~tasks
        else Suite.instance ~params:saturated_params ~arch:Arch.microzed rng ~tasks
      in
      { text = Io.to_string inst; seed = 1000 + i; emit = i land 4 <> 0 })

(* The request body without its id, rendered once per (entry, tenant)
   so the generator only splices the id in at send time. *)
let request_body ~tenant e =
  let body =
    Json.to_string ~indent:0
      (Json.Obj
         [
           ("op", Json.String "schedule");
           ("tenant", Json.String tenant);
           ("instance", Json.String e.text);
           ("seed", Json.Int e.seed);
           ("min_iterations", Json.Int serve_restarts);
           ("budget_ms", Json.Int 0);
           ("emit_schedule", Json.Bool e.emit);
         ])
  in
  String.sub body 0 (String.length body - 1)

let request_line body ~id = body ^ Printf.sprintf ",\"id\":%S}\n" id

(* Offline oracle for a rung-0/1 response: the same instance text, seed
   and effective restart count through [Pa_random.run] at budget 0 with
   a fresh verdict-transparent cache. Memoized per (entry, restarts). *)
let offline_makespan =
  let memo = Hashtbl.create 64 in
  fun (e : entry) restarts ->
    let key = (e.text, e.seed, restarts) in
    match Hashtbl.find_opt memo key with
    | Some m -> m
    | None ->
      let m =
        match Io.of_string e.text with
        | Error _ -> None
        | Ok inst ->
          let o =
            Pa_random.run ~seed:e.seed ~min_iterations:restarts
              ~cache:(Fp_cache.create ~subsumption:false ())
              ~budget_seconds:0. inst
          in
          Option.map (fun s -> s.Schedule.makespan) o.Pa_random.schedule
      in
      Hashtbl.replace memo key m;
      m

(* ------------------------------------------------------------------ *)
(* Connections: blocking writes, select-driven reads, line framing. *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.001;
      go (tries - 1)
  in
  go 20_000

let send c line =
  let b = Bytes.unsafe_of_string line in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* Read what is available and return the complete lines. *)
let recv_lines c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "daemon closed the connection";
  Buffer.add_subbytes c.buf c.chunk 0 n;
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
    Buffer.clear c.buf;
    Buffer.add_string c.buf (String.sub s (last + 1) (String.length s - last - 1));
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (String.sub s 0 last))

(* Block until one response line arrives on [c]. *)
let rec recv_one c =
  match recv_lines c with
  | l :: _ -> l
  | [] -> recv_one c

(* Relative to the working directory when possible: Unix socket paths
   are limited to ~100 bytes. *)
let short_path p =
  let cwd = Sys.getcwd () ^ "/" in
  let n = String.length cwd in
  if String.length p > n && String.sub p 0 n = cwd then
    String.sub p n (String.length p - n)
  else p

(* ------------------------------------------------------------------ *)
(* Daemon lifetime *)

type daemon = { pid : int; sock : string; conns : conn array; setup : float }

(* Spawn a daemon, connect both tenants and time spawn -> first warm-up
   response. The warm-up response is checked like any other. *)
let start c ~dir ~pool k =
  let sock = short_path (Filename.concat dir (Printf.sprintf "d%d.sock" k)) in
  let t0 = now () in
  (* The daemon's own pinning knob: event loop on core 0, the solver
     worker on core 1, as a latency-sensitive deployment runs it. *)
  let pid =
    spawn ~env:[| "RESCHED_PIN=1" |]
      ~stderr_file:(Filename.concat dir (Printf.sprintf "daemon%d.err" k))
      (fpga_sched ())
      [ "serve"; "--socket"; sock; "--jobs"; string_of_int jobs ]
  in
  let conns = Array.init 2 (fun _ -> connect sock) in
  send conns.(0) (request_line (request_body ~tenant:"t0" pool.(0)) ~id:"warmup");
  let line = recv_one conns.(0) in
  let setup = now () -. t0 in
  (match Json.parse line with
  | Ok j ->
    let ok = Json.member "status" j = Some (Json.String "ok") in
    let ms = Option.bind (Json.member "makespan" j) Json.get_int in
    check c ok "warm-up request not answered ok: %s" line;
    check c (ms = offline_makespan pool.(0) serve_restarts)
      "warm-up makespan differs from offline Pa_random.run"
  | Error msg -> check c false "warm-up response unparsable: %s" msg);
  { pid; sock; conns; setup }

(* Shut the daemon down through the protocol and reap it. *)
let stop c d =
  send d.conns.(0) "{\"op\": \"shutdown\", \"id\": \"bye\"}\n";
  let rec await () =
    let l = recv_one d.conns.(0) in
    if not (String.length l > 0 && (match Json.parse l with
        | Ok j -> Json.member "id" j = Some (Json.String "bye")
        | Error _ -> false))
    then await ()
  in
  (try await () with Failure _ | Unix.Unix_error _ -> ());
  Array.iter (fun cn -> try Unix.close cn.fd with Unix.Unix_error _ -> ()) d.conns;
  let code = exit_code (snd (Unix.waitpid [] d.pid)) in
  check c (code = 0) "daemon exited %d" code

let metrics_of d =
  send d.conns.(0) "{\"op\": \"metrics\", \"id\": \"metrics\"}\n";
  let rec await () =
    match Json.parse (recv_one d.conns.(0)) with
    | Ok j when Json.member "id" j = Some (Json.String "metrics") ->
      Option.value ~default:Json.Null (Json.member "metrics" j)
    | _ -> await ()
  in
  await ()

(* ------------------------------------------------------------------ *)
(* One open-loop phase *)

type outcome =
  | Ok_ of { rung : int; makespan : int option; iterations : int; server_ms : float }
  | Shed of string
  | Failed of string
  | Missing

type req = {
  due : float;  (** absolute due time *)
  entry : int;
  conn : int;
  mutable sent : float;
  mutable read : float;
  mutable raw : Json.t option;  (** the response, checked after the phase *)
  mutable outcome : outcome;
}

type phase = {
  name : string;
  rate : float;
  duration : float;  (** seconds of arrivals, summed over rounds *)
  reqs : req array;
  lateness_ms : float array;
  restarts : int;
      (** restarts in the [ok] responses read while the phase's arrivals
          ran (the solver's throughput, saturated under overload) *)
}

(* Lateness the generator may show before a phase is invalid: late as a
   rule (p50), or stalled for half the goodput latency limit, long enough
   to push requests past it on the generator's account. *)
let max_lateness_p50_ms = 2.
let max_lateness_ms = serve_latency_limit_ms /. 2.

let check_response c ~pool (r : req) j =
  let e = pool.(r.entry) in
  match Json.member "status" j with
  | Some (Json.String "ok") ->
    let geti k = Option.bind (Json.member k j) Json.get_int in
    let rung = Option.value ~default:(-1) (geti "degrade") in
    let makespan = geti "makespan" in
    let effective = Option.value ~default:0 (geti "effective_min_iterations") in
    if rung <= 1 then
      check c (makespan = offline_makespan e effective)
        "%s: makespan differs from offline Pa_random.run (seed %d, %d restarts)"
        (Json.to_string ~indent:0 (Option.value ~default:Json.Null (Json.member "id" j)))
        e.seed effective;
    (match Option.bind (Json.member "schedule" j) Json.get_string with
    | Some text -> (
      match Schedule_io.of_string text with
      | Ok s ->
        check c (Validate.check s = Ok ()) "served schedule fails Validate.check";
        check c (Some s.Schedule.makespan = makespan)
          "served schedule's makespan differs from the response's"
      | Error msg -> check c false "served schedule unparsable: %s" msg)
    | None -> check c (not e.emit || rung = 2 || makespan = None)
                "emit_schedule request answered without a schedule");
    Ok_
      {
        rung;
        makespan;
        iterations = Option.value ~default:0 (geti "iterations");
        server_ms =
          Option.value ~default:nan
            (Option.bind (Json.member "latency_ms" j) Json.get_float);
      }
  | Some (Json.String "rejected") ->
    Shed (Option.value ~default:"?" (Option.bind (Json.member "reason" j) Json.get_string))
  | _ ->
    check c false "request failed: %s" (Json.to_string ~indent:0 j);
    Failed (Json.to_string ~indent:0 j)

(* Entries are drawn without replacement in rounds of the pool's size (a
   fresh shuffle per round), so a phase asks for each entry equally
   often: the latency distribution is a mixture of the entries' service
   times, and unequal counts would move its percentiles from seed to
   seed. *)
let drawer rng k =
  let round = Array.init k Fun.id and i = ref 0 in
  fun () ->
    if !i mod k = 0 then Rng.shuffle_in_place rng round;
    incr i;
    round.((!i - 1) mod k)

let run_phase c ~pool ~rng ~draw d ~name ~rate ~duration =
  (* Poisson arrivals: exponential gaps; a uniformly drawn tenant. *)
  let offsets =
    let rec go t acc =
      let t = t -. (log (1. -. Rng.float rng 1.) /. rate) in
      if t >= duration then List.rev acc else go t (t :: acc)
    in
    go 0. []
  in
  let t_start = now () +. 0.02 in
  let reqs =
    Array.of_list
      (List.map
         (fun off ->
           {
             due = t_start +. off;
             entry = draw ();
             conn = Rng.int rng 2;
             sent = nan;
             read = nan;
             raw = None;
             outcome = Missing;
           })
         offsets)
  in
  let n = Array.length reqs in
  let by_id = Hashtbl.create (2 * n + 1) in
  let lateness = Array.make n 0. in
  let next = ref 0 and answered = ref 0 in
  let drain_until = t_start +. duration +. 30. in
  let fds = Array.to_list (Array.map (fun cn -> cn.fd) d.conns) in
  let bodies =
    Array.init 2 (fun k ->
        Array.map (request_body ~tenant:(Printf.sprintf "t%d" k)) pool)
  in
  (* Only the id is looked at while the phase runs; checking a response
     (which may replay it offline) would make the generator run late. *)
  let handle line =
    let t = now () in
    match Json.parse line with
    | Error msg -> check c false "unparsable response: %s" msg
    | Ok j -> (
      match Option.bind (Json.member "id" j) Json.get_string with
      | Some id -> (
        match Hashtbl.find_opt by_id id with
        | Some i when reqs.(i).raw = None ->
          reqs.(i).read <- t;
          reqs.(i).raw <- Some j;
          incr answered
        | _ -> check c false "response with an unknown id %S" id)
      | None -> check c false "response without an id: %s" line)
  in
  while !answered < n && now () < drain_until do
    let t = now () in
    while !next < n && reqs.(!next).due <= t do
      let i = !next in
      let r = reqs.(i) in
      let id = Printf.sprintf "%s-%d" name i in
      Hashtbl.replace by_id id i;
      let t_send = now () in
      send d.conns.(r.conn) (request_line bodies.(r.conn).(r.entry) ~id);
      r.sent <- t_send;
      lateness.(i) <- (t_send -. r.due) *. 1000.;
      incr next
    done;
    let timeout =
      if !next < n then Float.max 0. (reqs.(!next).due -. now ()) else 0.05
    in
    match Unix.select fds [] [] timeout with
    | readable, _, _ ->
      Array.iter
        (fun cn -> if List.mem cn.fd readable then List.iter handle (recv_lines cn))
        d.conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Array.iter
    (fun r ->
      match r.raw with
      | Some j -> r.outcome <- check_response c ~pool r j
      | None -> check c false "%s: request never answered" name)
    reqs;
  let restarts =
    Array.fold_left
      (fun a r ->
        match r.outcome with
        | Ok_ o when r.read <= t_start +. duration -> a + o.iterations
        | _ -> a)
      0 reqs
  in
  { name; rate; duration; reqs; lateness_ms = lateness; restarts }

let merge = function
  | [] -> invalid_arg "Serve_wl.merge"
  | p :: _ as ps ->
    {
      p with
      duration = List.fold_left (fun a q -> a +. q.duration) 0. ps;
      reqs = Array.concat (List.map (fun q -> q.reqs) ps);
      lateness_ms = Array.concat (List.map (fun q -> q.lateness_ms) ps);
      restarts = List.fold_left (fun a q -> a + q.restarts) 0 ps;
    }

(* A request's latency from its due time, with a shed, failed, degraded
   or missing request counted as over any limit. *)
let latency_ms r =
  match r.outcome with
  | Ok_ { rung = 0; _ } -> (r.read -. r.due) *. 1000.
  | _ -> infinity

(* A phase's latencies in ms, a request that missed counted as 1e9. *)
let latencies p = Array.map (fun r -> Float.min (latency_ms r) 1e9) p.reqs

(* The highest percentile with at least ten samples beyond it at the
   phase's planned sample count, and the latency there. *)
let tail_latency p =
  let q = tail_percentile (int_of_float (p.rate *. p.duration)) in
  (q, percentile (latencies p) (float_of_int q))

let report p =
  let count f = Array.fold_left (fun a r -> if f r then a + 1 else a) 0 p.reqs in
  let ok = count (fun r -> match r.outcome with Ok_ _ -> true | _ -> false) in
  let rung k = count (fun r -> match r.outcome with Ok_ o -> o.rung = k | _ -> false) in
  let shed reason = count (fun r -> r.outcome = Shed reason) in
  let failed = count (fun r -> match r.outcome with Failed _ | Missing -> true | _ -> false) in
  let server_ms =
    Array.of_list
      (List.filter_map
         (fun r -> match r.outcome with Ok_ { rung = 0; server_ms; _ } -> Some server_ms | _ -> None)
         (Array.to_list p.reqs))
  in
  Printf.printf "  phase %s: rung-0 server latency mean %.2f ms, p50 %.2f ms\n" p.name
    (mean server_ms) (median server_ms);
  let late_p50 = median p.lateness_ms and late_max = Array.fold_left Float.max 0. p.lateness_ms in
  let valid = late_p50 <= max_lateness_p50_ms && late_max <= max_lateness_ms in
  Printf.printf
    "  phase %-8s %5.1f req/s x %.1fs: due %d, sent %d, ok %d (rung0 %d, rung1 \
     %d, rung2 %d), shed queue_full %d tenant_quota %d expired %d, failed %d; \
     generator lateness p50 %.3f ms, max %.3f ms%s\n"
    p.name p.rate p.duration (Array.length p.reqs)
    (count (fun r -> Float.is_finite r.sent))
    ok (rung 0) (rung 1) (rung 2) (shed "queue_full") (shed "tenant_quota")
    (shed "expired") failed late_p50 late_max
    (if valid then "" else " -- INVALID: the generator ran late, phase not measured");
  valid

type result = {
  setups : float array;
  nominal : phase;
  overload : phase;
  overload_rounds : phase list;
  daemon_metrics : Json.t;
  rss_mb : float;
}

(* Phase lengths as shares of the run's seconds; the rest goes to the
   set-up repetitions and the offline identity checks. The phases
   alternate in [rounds] rounds, so each one samples the whole run (the
   reference host's speed drifts over tens of seconds), and the overload
   rates are medians over rounds, which a stall in one round does not
   move. *)
let nominal_share = 0.55
let overload_share = 0.4
let rounds = 5

let drive c ~seed ~seconds =
  (* The generator shares core 0 with the daemon's event loop, so the
     load it puts on the host never lands on the solver's core. *)
  ignore (Resched_util.Domain_pool.pin_to_core 0 : bool);
  with_work_dir "serve-open" (fun dir ->
      let pool = pool () in
      let rng = rng_for ~salt:(salt + 1) seed in
      (* Set-up is measured on the daemon that serves the phases and on
         one short-lived daemon before each round and after the last,
         started while the serving daemon is idle. *)
      let d = start c ~dir ~pool 0 in
      let setups = ref [ d.setup ] in
      let extra_setup k =
        let e = start c ~dir ~pool k in
        setups := e.setup :: !setups;
        stop c e
      in
      let round_s = float_of_int seconds /. float_of_int rounds in
      let draw_nominal = drawer rng serve_pool_size
      and draw_overload = drawer rng serve_pool_size in
      let phases =
        List.init rounds (fun k ->
            extra_setup (k + 1);
            let phase name draw rate share =
              run_phase c ~pool ~rng ~draw d ~name:(Printf.sprintf "%s%d" name k)
                ~rate ~duration:(round_s *. share)
            in
            let n = phase "nominal" draw_nominal serve_nominal_rps nominal_share in
            (n, phase "overload" draw_overload serve_overload_rps overload_share))
      in
      extra_setup (rounds + 1);
      let setups = Array.of_list !setups in
      let nominal = { (merge (List.map fst phases)) with name = "nominal" } in
      let overload_rounds = List.map snd phases in
      let overload = { (merge overload_rounds) with name = "overload" } in
      let daemon_metrics = metrics_of d in
      let rss_mb = Option.value ~default:nan (vm_hwm_mb d.pid) in
      stop c d;
      { setups; nominal; overload; overload_rounds; daemon_metrics; rss_mb })

let run ~seed ~seconds =
  let c = checks () in
  let r = drive c ~seed ~seconds in
  let valid_n = report r.nominal and valid_o = report r.overload in
  report_checks c;
  if not (valid_n && valid_o) then begin
    print_endline "perfbench: serve-open phase invalid (generator lateness over the bound)";
    exit 2
  end;
  let nom = r.nominal in
  let q, tail = tail_latency nom in
  Printf.printf "  nominal latency p50 %.2f ms, p%d %.2f ms\n" (median (latencies nom)) q tail;
  let per_round f =
    median
      (Array.of_list
         (List.map (fun p -> float_of_int (f p) /. p.duration) r.overload_rounds))
  in
  let goodput p =
    Array.fold_left
      (fun a r -> if latency_ms r <= serve_latency_limit_ms then a + 1 else a)
      0 p.reqs
  in
  let makespans =
    Array.of_list
      (List.filter_map
         (fun r ->
           match r.outcome with
           | Ok_ { rung = 0; makespan = Some m; _ } -> Some (float_of_int m)
           | _ -> None)
         (Array.to_list nom.reqs))
  in
  ( c,
    [
      metric "restarts_per_s" "1/s" (per_round (fun p -> p.restarts));
      metric "goodput_rps" "1/s" (per_round goodput);
      metric "makespan_mean" "time_units" (mean makespans);
      metric "setup_s" "s" (median r.setups);
      metric "peak_rss_mb" "MiB" r.rss_mb;
    ] )

(* Closed-loop service time of the pool on this host: one request at a
   time through a fresh daemon. The frozen rates in Common were set
   from it (nominal a third to a half of the capacity, overload about
   twice it). *)
let calibrate () =
  let c = checks () in
  with_work_dir "serve-calibrate" (fun dir ->
      let pool = pool () in
      let d = start c ~dir ~pool 0 in
      let times =
        Array.init (4 * serve_pool_size) (fun i ->
            let t0 = now () in
            send d.conns.(0)
              (request_line (request_body ~tenant:"t0" pool.(i mod serve_pool_size))
                 ~id:(string_of_int i));
            ignore (recv_one d.conns.(0) : string);
            now () -. t0)
      in
      stop c d;
      Array.iteri
        (fun e _ ->
          let mine =
            Array.of_list
              (List.filteri (fun i _ -> i mod serve_pool_size = e) (Array.to_list times))
          in
          Printf.printf "  entry %2d: median %.2f ms\n" e (median mine *. 1000.))
        pool;
      let m = mean times in
      Printf.printf
        "serve calibration: %d sequential requests, mean %.2f ms, median %.2f ms \
         -> one-worker capacity %.1f req/s\n"
        (Array.length times) (m *. 1000.) (median times *. 1000.) (1. /. m))
