(* Tests for the platform substrate: implementations, architectures,
   instances, the benchmark suite generator and the instance text
   format. *)

module Rng = Resched_util.Rng
module Resource = Resched_fabric.Resource
module Device = Resched_fabric.Device
module Graph = Resched_taskgraph.Graph
module Impl = Resched_platform.Impl
module Arch = Resched_platform.Arch
module Instance = Resched_platform.Instance
module Suite = Resched_platform.Suite
module Io = Resched_platform.Io

let test_impl_constructors () =
  let sw = Impl.sw ~time:10 in
  Alcotest.(check bool) "sw kind" true (Impl.is_sw sw);
  Alcotest.(check bool) "sw has no resources" true (Resource.is_zero sw.Impl.res);
  let hw = Impl.hw ~time:5 ~res:(Resource.make ~clb:10 ~bram:0 ~dsp:0) () in
  Alcotest.(check bool) "hw kind" true (Impl.is_hw hw);
  Alcotest.check_raises "hw needs resources"
    (Invalid_argument "Impl.hw: empty resources") (fun () ->
      ignore (Impl.hw ~time:5 ~res:Resource.zero ()));
  Alcotest.check_raises "positive time"
    (Invalid_argument "Impl.sw: time must be positive") (fun () ->
      ignore (Impl.sw ~time:0))

let test_arch () =
  Alcotest.(check int) "zedboard cores" 2 Arch.zedboard.Arch.processors;
  Alcotest.(check string) "zedboard device" "xc7z020"
    Arch.zedboard.Arch.device.Device.name;
  (* 100 CLB at the default ICAP rate: 73 ticks (cross-checked in
     test_fabric). *)
  Alcotest.(check int) "reconf ticks" 73
    (Arch.reconf_ticks Arch.zedboard (Resource.make ~clb:100 ~bram:0 ~dsp:0));
  Alcotest.check_raises "needs a core"
    (Invalid_argument "Arch.make: processors must be positive") (fun () ->
      ignore (Arch.make ~processors:0 ~device:Device.minifab ()))

let simple_instance () =
  let graph = Graph.create 2 in
  Graph.add_edge graph 0 1;
  let impls =
    [|
      [| Impl.sw ~time:10; Impl.hw ~time:2 ~res:(Resource.make ~clb:5 ~bram:0 ~dsp:0) () |];
      [| Impl.sw ~time:20 |];
    |]
  in
  Instance.make ~arch:Arch.mini ~graph ~impls ()

let test_instance_accessors () =
  let inst = simple_instance () in
  Alcotest.(check int) "size" 2 (Instance.size inst);
  Alcotest.(check string) "default name" "t1" (Instance.task_name inst 1);
  Alcotest.(check int) "fastest sw of 0" 0 (Instance.fastest_sw inst 0);
  Alcotest.(check int) "hw impl count" 1 (List.length (Instance.hw_impls inst 0));
  Alcotest.(check int) "min time of 0" 2 (Instance.min_time inst 0);
  Alcotest.(check int) "maxT" 22 (Instance.max_t inst)

let test_instance_requires_sw () =
  let graph = Graph.create 1 in
  let impls =
    [| [| Impl.hw ~time:2 ~res:(Resource.make ~clb:5 ~bram:0 ~dsp:0) () |] |]
  in
  match Instance.make ~arch:Arch.mini ~graph ~impls () with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_instance_rejects_oversized_impl () =
  let graph = Graph.create 1 in
  let huge = Resource.make ~clb:1_000_000 ~bram:0 ~dsp:0 in
  let impls = [| [| Impl.sw ~time:5; Impl.hw ~time:2 ~res:huge () |] |] in
  match Instance.make ~arch:Arch.mini ~graph ~impls () with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_suite_shape () =
  let groups = Suite.full ~graphs_per_group:2 ~seed:1 () in
  Alcotest.(check int) "10 groups" 10 (List.length groups);
  List.iteri
    (fun i (tasks, insts) ->
      Alcotest.(check int) "task count" ((i + 1) * 10) tasks;
      Alcotest.(check int) "2 instances" 2 (List.length insts);
      List.iter
        (fun inst -> Alcotest.(check int) "instance size" tasks (Instance.size inst))
        insts)
    groups

let test_suite_impl_structure () =
  let rng = Rng.create 4 in
  let inst = Suite.instance rng ~tasks:20 in
  for u = 0 to 19 do
    let hw = Instance.hw_impls inst u and sw = Instance.sw_impls inst u in
    Alcotest.(check int) "three hw impls" 3 (List.length hw);
    Alcotest.(check int) "one sw impl" 1 (List.length sw);
    (* The paper's trade-off: larger implementations are faster. *)
    let impls = List.map snd hw in
    let sorted_by_area =
      List.sort
        (fun (a : Impl.t) b ->
          compare (Resource.total_units b.Impl.res) (Resource.total_units a.Impl.res))
        impls
    in
    match sorted_by_area with
    | [ big; mid; small ] ->
      Alcotest.(check bool) "bigger is faster" true
        (big.Impl.time <= mid.Impl.time && mid.Impl.time <= small.Impl.time)
    | _ -> Alcotest.fail "expected exactly three"
  done

let test_suite_deterministic () =
  let a = Suite.group ~seed:9 ~tasks:15 ~count:1 () in
  let b = Suite.group ~seed:9 ~tasks:15 ~count:1 () in
  match (a, b) with
  | [ x ], [ y ] ->
    Alcotest.(check string) "identical serialization" (Io.to_string x)
      (Io.to_string y)
  | _ -> Alcotest.fail "expected singletons"

let test_suite_module_sharing () =
  let rng = Rng.create 12 in
  let inst = Suite.instance rng ~tasks:40 in
  (* With p_shared_impl = 0.3 and 40 tasks, sharing is essentially
     certain: some module id appears for two different tasks. *)
  let ids = Hashtbl.create 64 in
  let shared = ref false in
  Array.iteri
    (fun u impls ->
      Array.iter
        (fun (i : Impl.t) ->
          match i.Impl.module_id with
          | Some m -> (
            match Hashtbl.find_opt ids m with
            | Some u' when u' <> u -> shared := true
            | _ -> Hashtbl.replace ids m u)
          | None -> ())
        impls)
    inst.Instance.impls;
  Alcotest.(check bool) "module sharing occurs" true !shared

let test_io_roundtrip () =
  let rng = Rng.create 77 in
  let inst = Suite.instance rng ~tasks:12 in
  let text = Io.to_string inst in
  match Io.of_string text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok inst' ->
    Alcotest.(check string) "round-trip stable" text (Io.to_string inst');
    Alcotest.(check int) "same size" (Instance.size inst) (Instance.size inst');
    Alcotest.(check int) "same edges"
      (Graph.edge_count inst.Instance.graph)
      (Graph.edge_count inst'.Instance.graph)

let test_io_errors () =
  let check_err text =
    match Io.of_string text with
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | Error _ -> ()
  in
  check_err "nonsense";
  check_err "arch processors x recfreq 1 device xc7z020";
  check_err "arch processors 1 recfreq 3200 device nosuchdevice";
  check_err "arch processors 1 recfreq 3200 device minifab\ntasks 1\nimpl sw time 5";
  (* impl before task *)
  check_err
    "arch processors 1 recfreq 3200 device minifab\ntasks 1\ntask 0\nimpl sw \
     time 5\nedge 0 7"
  (* edge out of range *)

(* Values the [Impl]/[Arch] constructors reject come back as a parse
   error naming the offending line, never as an escaping exception. *)
let test_io_rejects_invalid_values () =
  let expect_line_error ~line text =
    match Io.of_string text with
    | Ok _ -> Alcotest.failf "expected a parse error for %S" text
    | Error msg ->
      let prefix = Printf.sprintf "line %d: " line in
      Alcotest.(check bool)
        (Printf.sprintf "%S starts with %S" msg prefix)
        true
        (String.starts_with ~prefix msg)
  in
  let header = "arch processors 1 recfreq 3200 device minifab\ntasks 1\ntask 0\n" in
  expect_line_error ~line:4 (header ^ "impl sw time -5\n");
  expect_line_error ~line:4 (header ^ "impl sw time 0\n");
  expect_line_error ~line:5
    (header ^ "impl sw time 5\nimpl hw time 0 clb 10 bram 0 dsp 0\n");
  expect_line_error ~line:5
    (header ^ "impl sw time 5\nimpl hw time -3 clb 10 bram 0 dsp 0\n");
  expect_line_error ~line:5
    (header ^ "impl sw time 5\nimpl hw time 7 clb 0 bram 0 dsp 0\n");
  expect_line_error ~line:2
    "# header\narch processors 0 recfreq 3200 device minifab\ntasks 1\n\
     task 0\nimpl sw time 5\n"

(* A dependency cycle is an input error reported at parse time, naming
   the cycle along its edges, never a [Graph.Cycle] escaping later from
   the scheduler; [load] goes through the same check. *)
let test_io_rejects_cyclic_graph () =
  let chain =
    "arch processors 1 recfreq 3200 device minifab\ntasks 5\n"
    ^ String.concat ""
        (List.init 5 (Printf.sprintf "task %d\nimpl sw time 5\n"))
    ^ "edge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\n"
  in
  (match Io.of_string chain with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "acyclic chain rejected: %s" msg);
  let expect_cycle text cycle =
    match Io.of_string text with
    | Ok _ -> Alcotest.failf "expected a cycle error for %S" text
    | Error msg ->
      Alcotest.(check string) "cycle named along its edges"
        ("dependency cycle through tasks " ^ cycle)
        msg
  in
  expect_cycle (chain ^ "edge 1 0\n") "1 -> 0 -> 1";
  expect_cycle (chain ^ "edge 4 2\n") "3 -> 4 -> 2 -> 3";
  let path = Filename.temp_file "resched_cyclic" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (chain ^ "edge 1 0\n"));
      match Io.load path with
      | Ok _ -> Alcotest.fail "load accepted a cyclic graph"
      | Error msg ->
        Alcotest.(check string) "load reports the cycle"
          "dependency cycle through tasks 1 -> 0 -> 1" msg)

(* [load] is total: an unreadable path comes back as an [Error], never
   as a [Sys_error] escaping from the read. *)
let test_io_load_directory () =
  let dir = Filename.temp_dir "resched_io" "" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      match Io.load dir with
      | Ok _ -> Alcotest.fail "load accepted a directory"
      | Error _ -> ()
      | exception e ->
        Alcotest.failf "load raised %s on a directory" (Printexc.to_string e));
  match Io.load (Filename.concat dir "missing.inst") with
  | Ok _ -> Alcotest.fail "load accepted a missing file"
  | Error _ -> ()

let test_io_comments_and_blank_lines () =
  let text =
    "# a comment\n\narch processors 1 recfreq 3200 device minifab\ntasks 1\n\
     task 0 name solo\nimpl sw time 5 # trailing comment\n"
  in
  match Io.of_string text with
  | Ok inst ->
    Alcotest.(check string) "name parsed" "solo" (Instance.task_name inst 0)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

(* Property: every suite instance validates and serializes through a
   round-trip unchanged. *)
let prop_suite_roundtrip =
  QCheck.Test.make ~count:40 ~name:"suite instances round-trip"
    QCheck.(pair int (int_range 3 40))
    (fun (seed, tasks) ->
      let rng = Rng.create seed in
      let inst = Suite.instance rng ~tasks in
      let text = Io.to_string inst in
      match Io.of_string text with
      | Ok inst' -> Io.to_string inst' = text
      | Error _ -> false)

let () =
  Alcotest.run "platform"
    [
      ( "impl/arch",
        [
          Alcotest.test_case "impl constructors" `Quick test_impl_constructors;
          Alcotest.test_case "arch" `Quick test_arch;
        ] );
      ( "instance",
        [
          Alcotest.test_case "accessors" `Quick test_instance_accessors;
          Alcotest.test_case "requires software impl" `Quick
            test_instance_requires_sw;
          Alcotest.test_case "rejects oversized impl" `Quick
            test_instance_rejects_oversized_impl;
        ] );
      ( "suite",
        [
          Alcotest.test_case "shape" `Quick test_suite_shape;
          Alcotest.test_case "implementation structure" `Quick
            test_suite_impl_structure;
          Alcotest.test_case "deterministic" `Quick test_suite_deterministic;
          Alcotest.test_case "module sharing" `Quick test_suite_module_sharing;
        ] );
      ( "io",
        [
          Alcotest.test_case "round-trip" `Quick test_io_roundtrip;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "invalid values" `Quick
            test_io_rejects_invalid_values;
          Alcotest.test_case "rejects cyclic graph" `Quick
            test_io_rejects_cyclic_graph;
          Alcotest.test_case "load on a directory is an Error" `Quick
            test_io_load_directory;
          Alcotest.test_case "comments" `Quick test_io_comments_and_blank_lines;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_suite_roundtrip ]);
    ]
