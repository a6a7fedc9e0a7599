(* The end-to-end benchmark: one workload, one seed, one process.

     run.exe --workload W --seed N [--seconds S] [--trace 0|1]
             [--trace-file FILE] [--json FILE] [--rev REV] [--quick]

   Prints every metric as "name value unit", then, as the last line, a
   JSON object with "correct", "attempted", "failed" and "metrics":
   the end-to-end metrics untraced, the per-layer metrics with
   --trace 1. --trace-file writes the first requests' spans as Chrome
   trace events (and implies --trace 1); --json writes the full record
   compare.exe reads. Exits 1 when an output check failed, 2 on bad
   arguments. *)

open E2e

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 in
  let trace = ref 0 and trace_file = ref "" and json = ref "" in
  let rev = ref "unknown" and quick = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " Declared.workloads);
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S run length the phases are sized for (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 traced run: per-layer metrics");
      ("--trace-file", Arg.Set_string trace_file, "FILE write Chrome trace events (implies --trace 1)");
      ("--json", Arg.Set_string json, "FILE write the full run record");
      ("--rev", Arg.Set_string rev, "REV source revision to record");
      ("--quick", Arg.Set quick, " smoke-sized run: --seconds 0.1, one set-up") ]
  in
  let usage = "run.exe --workload W --seed N [options]" in
  let bad msg = prerr_endline ("run.exe: " ^ msg); Arg.usage spec usage; exit 2 in
  (try Arg.parse_argv Sys.argv spec (fun a -> bad ("unexpected argument " ^ a)) usage with
   | Arg.Bad msg -> prerr_string msg; exit 2
   | Arg.Help msg -> print_string msg; exit 0);
  if not (List.mem !workload Declared.workloads) then bad "unknown --workload";
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  if !quick then seconds := 0.1;
  if !seconds <= 0.0 then bad "--seconds must be positive";
  let traced = !trace = 1 || !trace_file <> "" in
  let tr = if traced then Some (Trace.create ()) else None in
  let opts =
    { Measure.seed = !seed; seconds = !seconds; setups = (if !quick || traced then 1 else 5);
      trace = tr }
  in
  let r = Report.create () in
  Workload.run !workload r opts;
  (match (tr, !trace_file) with
   | Some t, file when file <> "" -> Trace.write_chrome t file
   | _ -> ());
  if !json <> "" then begin
    let oc = open_out_bin !json in
    output_string oc
      (Json.to_string
         (Report.record r ~rev:!rev ~workload:!workload ~seed:!seed ~seconds:!seconds
            ~trace:traced));
    output_char oc '\n';
    close_out oc
  end;
  Printf.printf "digest %s\n" r.Report.digest;
  List.iter (fun (k, v) -> Printf.printf "failed %s %d\n" k v) (Report.failures r);
  List.iter
    (fun (name, v, u, _) -> Printf.printf "%s %s %s\n" name (Json.number v) u)
    (Report.extras r);
  List.iter
    (fun (name, v, u) -> Printf.printf "%s %s %s\n" name (Json.number v) u)
    (Report.metrics r);
  Option.iter (Printf.eprintf "output check failed: %s\n") r.Report.first_mismatch;
  print_endline (Report.result_line r);
  if not (Report.correct r) then exit 1
