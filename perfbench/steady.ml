(* Steadiness mode: repeat one workload over consecutive seeds, print each
   end-to-end metric's median and quartiles with its spread (IQR over
   median) against the bound BENCHMARK.json records, and with two or
   more sets, whether each later set's median is within the bound of the
   first set's. Exits 1 when any run fails or any check does not hold. *)

open Common

type spec = { m_name : string; higher : bool; bound : float }

let specs_of_benchmark () =
  match Json.parse_file "BENCHMARK.json" with
  | Error msg -> failwith ("BENCHMARK.json: " ^ msg)
  | Ok j ->
    let seconds =
      Option.value ~default:10 (Option.bind (Json.member "run_seconds" j) Json.get_int)
    in
    let specs key =
      List.filter_map
        (fun m ->
          match
            ( Option.bind (Json.member "name" m) Json.get_string,
              Option.bind (Json.member "better" m) Json.get_string )
          with
          | Some name, Some better ->
            Some
              {
                m_name = name;
                higher = better = "higher";
                bound =
                  Option.value ~default:nan
                    (Option.bind (Json.member "bound" m) Json.get_float);
              }
          | _ -> None)
        (Option.value ~default:[] (Option.bind (Json.member key j) Json.to_list))
    in
    (seconds, specs "end_to_end", specs "per_layer")

(* One run of this executable; its last stdout line parsed. *)
let one_run ~workload ~seed ~seconds ~trace =
  with_work_dir "steady" (fun dir ->
      let out = Filename.concat dir "out.txt" in
      let pid =
        spawn ~stdout_file:out ~stderr_file:(Filename.concat dir "err.txt")
          Sys.executable_name
          [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
            string_of_int seconds; "--trace"; string_of_int trace ]
      in
      let code = exit_code (snd (Unix.waitpid [] pid)) in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file out))
      in
      let last = match List.rev lines with l :: _ -> l | [] -> "" in
      match Json.parse last with
      | Ok j when code = 0 && Json.member "correct" j = Some (Json.Bool true) ->
        let metrics = Option.value ~default:Json.Null (Json.member "metrics" j) in
        Ok
          (fun name ->
            Option.bind (Json.path [ name; "value" ] metrics) Json.get_float)
      | _ -> Error (Printf.sprintf "seed %d: exit %d, last line %S" seed code last))

let run flags =
  let get name default =
    match List.assoc_opt name flags with
    | Some v -> (
      match int_of_string_opt v with Some n -> n | None -> failwith ("bad --" ^ name))
    | None -> default
  in
  let workload =
    match List.assoc_opt "workload" flags with
    | Some w -> w
    | None -> failwith "steady: --workload is required"
  in
  let run_seconds, e2e, per_layer = specs_of_benchmark () in
  let runs = get "runs" 10 and sets = get "sets" 1 in
  let seconds = get "seconds" run_seconds and trace = get "trace" 0 in
  let first_seed = get "first-seed" 1 in
  let specs = if trace = 1 then per_layer else e2e in
  let ok = ref true in
  let results =
    Array.init sets (fun s ->
        Array.init runs (fun i ->
            let seed = first_seed + (s * runs) + i in
            match one_run ~workload ~seed ~seconds ~trace with
            | Ok get ->
              Printf.printf "  set %d seed %d: %s\n%!" s seed
                (String.concat " "
                   (List.map
                      (fun sp ->
                        Printf.sprintf "%s=%.6g" sp.m_name
                          (Option.value ~default:nan (get sp.m_name)))
                      specs));
              Some get
            | Error msg ->
              Printf.printf "  set %d FAILED: %s\n%!" s msg;
              ok := false;
              None))
  in
  let values s sp =
    Array.of_list
      (List.filter_map
         (fun g -> Option.bind g (fun g -> g sp.m_name))
         (Array.to_list results.(s)))
  in
  Printf.printf "%s: %d set(s) x %d runs of %ds (trace %d), seeds from %d\n"
    workload sets runs seconds trace first_seed;
  List.iter
    (fun sp ->
      let base = values 0 sp in
      if Array.length base > 0 then begin
        let q1, q2, q3 = quartiles base in
        let spread = (q3 -. q1) /. Float.abs q2 in
        let within = Float.is_nan sp.bound || sp.m_name = "setup_s" || spread <= sp.bound in
        if not within then ok := false;
        Printf.printf
          "  %-34s median %14.6f  q1 %14.6f  q3 %14.6f  spread %.4f  bound %.3f%s\n"
          sp.m_name q2 q1 q3 spread sp.bound
          (if Float.is_nan sp.bound then ""
           else if not within then "  SPREAD OVER BOUND"
           else if spread > sp.bound /. 3. && sp.m_name <> "setup_s" then "  (over a third of the bound)"
           else "");
        for s = 1 to sets - 1 do
          let m = median (values s sp) in
          let worse =
            if sp.higher then (q2 -. m) /. Float.abs q2 else (m -. q2) /. Float.abs q2
          in
          let agree = Float.is_nan sp.bound || worse <= sp.bound in
          if not agree then ok := false;
          Printf.printf "    set %d median %14.6f  worse by %+.4f  %s\n" s m worse
            (if agree then "agrees" else "DISAGREES")
        done
      end)
    specs;
  Printf.printf "steadiness: %s\n" (if !ok then "ok" else "NOT OK");
  exit (if !ok then 0 else 1)
