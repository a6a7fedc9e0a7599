(* Smoke check of the end-to-end benchmark, run by the @bench-e2e-smoke
   alias (and so by `dune runtest`):

     smoke.exe BENCHMARK.json TRACE.json RUN.json...

   The RUN.json records come from `run.exe --quick --json` on every
   workload, untraced and traced; TRACE.json from the traced
   deliver_hot run's --trace-file. Checks: every workload ran in both
   modes, the metric names and units match BENCHMARK.json, no operation
   failed, every output check passed, no delivery-cache verify reject,
   every end-to-end metric above 0, the Chrome trace parses, the input
   digest is the seed's (repeatable, and different for seed 2), and no
   cold-stream point breaks its schema or a coupled constraint. Prints
   the input digests of seeds 1 and 2 and the exact counts seed 1 must
   reproduce, which the alias diffs against smoke.expected. Exits 1 on
   a failed check. *)

open E2e

let failures = ref 0

let check ok what =
  if not ok then begin
    incr failures;
    prerr_endline ("bench-e2e-smoke: " ^ what)
  end

let field key j = Option.value ~default:Json.Null (Json.member key j)
let str key j = Option.value ~default:"" (Json.to_str (field key j))
let num key j = Option.value ~default:nan (Json.to_num (field key j))

(* (name, unit) pairs of an object of {"value", "unit"} entries *)
let named j = List.map (fun (k, v) -> (k, str "unit" v)) (Json.to_obj j)

let declared bench key =
  List.map (fun m -> (str "name" m, str "unit" m, str "better" m)) (Json.to_list (field key bench))

let () =
  let bench = Json.read_file Sys.argv.(1) in
  let records =
    List.map Json.read_file (List.tl (List.tl (List.tl (Array.to_list Sys.argv))))
  in
  check
    (List.map (str "name") (Json.to_list (field "workloads" bench)) = Declared.workloads)
    "BENCHMARK.json workloads differ from the benchmark's";
  check (declared bench "end_to_end" = Declared.end_to_end)
    "BENCHMARK.json end_to_end metrics differ from the benchmark's";
  check (declared bench "per_layer" = Declared.per_layer)
    "BENCHMARK.json per_layer metrics differ from the benchmark's";
  let record workload traced =
    List.find_opt
      (fun j -> str "workload" j = workload && field "trace" j = Json.Bool traced)
      records
  in
  let value j name =
    match Json.member name (field "metrics" j) with
    | Some m -> num "value" m
    | None -> num "value" (field name (field "extras" j))
  in
  List.iter
    (fun workload ->
       List.iter
         (fun traced ->
            let mode = Printf.sprintf "%s (%s)" workload (if traced then "traced" else "untraced") in
            match record workload traced with
            | None -> check false (mode ^ ": no run record")
            | Some j ->
              check (field "correct" j = Json.Bool true) (mode ^ ": an output check failed");
              check (num "failed" j = 0.0 && num "attempted" j > 0.0)
                (Printf.sprintf "%s: %g of %g operations failed" mode (num "failed" j)
                   (num "attempted" j));
              let expected = if traced then Declared.per_layer else Declared.end_to_end in
              check
                (named (field "metrics" j) = List.map (fun (n, u, _) -> (n, u)) expected)
                (mode ^ ": metrics differ from BENCHMARK.json");
              if traced then
                check (value j "cache.verify_rejects" = 0.0) (mode ^ ": cache verify rejects")
              else
                List.iter
                  (fun (n, _, _) ->
                     check (value j n > 0.0) (Printf.sprintf "%s: %s is %g" mode n (value j n)))
                  expected;
              let seconds = num "seconds" j in
              let d1 = Workload.digest workload ~seed:1 ~seconds in
              check (num "seed" j = 1.0 && str "digest" j = d1) (mode ^ ": not seed 1's inputs");
              if not traced then begin
                let d2 = Workload.digest workload ~seed:2 ~seconds in
                check (Workload.digest workload ~seed:1 ~seconds = d1)
                  (workload ^ ": digest not repeatable");
                check (d1 <> d2) (workload ^ ": seeds 1 and 2 give the same inputs");
                Printf.printf "%s digest seed 1 %s\n%s digest seed 2 %s\n" workload d1 workload d2
              end)
         [ false; true ])
    Declared.workloads;
  (* the counts seed 1 must reproduce exactly *)
  List.iter
    (fun (workload, name) ->
       Option.iter
         (fun j -> Printf.printf "%s %s %s\n" workload name (Json.number (value j name)))
         (record workload false))
    [ ("cosim_session", "netproto.modeled_ms_per_cycle");
      ("cosim_session", "netproto.messages_per_cycle");
      ("deliver_cold", "cache.hit_ratio");
      ("deliver_cold", "modgen.builds");
      ("sim_sweep", "sim.evals_per_cycle") ];
  (match Json.read_file Sys.argv.(2) with
   | trace -> check (Json.to_list (field "traceEvents" trace) <> []) "empty Chrome trace"
   | exception Json.Parse_error e -> check false ("Chrome trace does not parse: " ^ e));
  (* the cold generator stays inside every schema and coupled
     constraint *)
  List.iter
    (fun seed ->
       Array.iter
         (fun p ->
            check
              (Gen.coupled_ok p.Gen.ip p.Gen.assignment
               && Jhdl.Ip_module.validate p.Gen.ip p.Gen.assignment = Ok p.Gen.assignment)
              ("cold point breaks its schema or a coupled constraint: " ^ p.Gen.descriptor))
         (Gen.cold_points (Gen.state ~seed ~tag:"cold") 3000))
    [ 1; 2 ];
  if !failures > 0 then exit 1
