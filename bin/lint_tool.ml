(* Rule-based netlist lint over catalog designs: the CI-facing face of
   the lint engine.

   Usage: lint_tool --ip FirFilter --param taps=edge3 --json
          lint_tool --all --fail-on warning
          lint_tool --broken            (deliberately bad demo design)
          lint_tool --rules             (print the registry and exit) *)

open Jhdl
open Cmdliner

(* a deliberately broken design exercising the three analysis families:
   a doubly-driven net, a LUT-gated clock and a cone of dead logic *)
let broken_design () =
  let top = Cell.root ~name:"broken_top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let a = Wire.create top ~name:"a" 1 in
  let b = Wire.create top ~name:"b" 1 in
  let clash = Wire.create top ~name:"clash" 1 in
  let gated_clk = Wire.create top ~name:"gated_clk" 1 in
  let q = Wire.create top ~name:"q" 1 in
  let dead = Wire.create top ~name:"dead" 1 in
  (* contention: two buffers fight over one net *)
  let _ = Cell.prim top ~name:"drv0" Prim.Buf ~conns:[ ("I", a); ("O", clash) ] in
  let _ =
    Cell.prim top ~name:"drv1" ~allow_contention:true Prim.Buf
      ~conns:[ ("I", b); ("O", clash) ]
  in
  (* gated clock: clk AND b feeds a flip-flop's clock pin *)
  let _ =
    Cell.prim top ~name:"clk_gate"
      (Prim.Lut (Lut_init.and_all ~inputs:2))
      ~conns:[ ("I0", clk); ("I1", b); ("O", gated_clk) ]
  in
  let _ =
    Cell.prim top ~name:"ff"
      (Prim.Ff
         { clock_enable = false;
           async_clear = false;
           sync_reset = false;
           init = Bit.Zero })
      ~conns:[ ("C", gated_clk); ("D", clash); ("Q", q) ]
  in
  (* dead logic: an inverter whose output reaches no design output *)
  let _ = Cell.prim top ~name:"dead_inv" Prim.Inv ~conns:[ ("I", a); ("O", dead) ] in
  let design = Design.create top in
  Design.add_port design "clk" Types.Input clk;
  Design.add_port design "a" Types.Input a;
  Design.add_port design "b" Types.Input b;
  Design.add_port design "q" Types.Output q;
  design

let print_rules () =
  List.iter
    (fun (r : Lint.rule_info) ->
       Printf.printf "%s  %-9s %-24s %s\n" r.Lint.id
         (Lint.severity_to_string r.Lint.default_severity)
         r.Lint.name r.Lint.doc)
    (Lint.rules @ Deep_lint.rules)

let load_baseline path =
  if not (Sys.file_exists path) then Error (Printf.sprintf "no such baseline file %s" path)
  else begin
    let ic = open_in path in
    let keys = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && not (String.length line > 0 && line.[0] = '#') then
           keys := line :: !keys
       done
     with End_of_file -> ());
    close_in ic;
    Ok !keys
  end

let apply_baseline baseline report =
  match baseline with
  | None -> report
  | Some keys ->
    { report with
      Lint.diagnostics =
        List.filter
          (fun d -> not (List.mem (Lint.key d) keys))
          report.Lint.diagnostics }

let run_lint all broken ip_name params json rules_only deep fail_on disabled
    fanout_threshold max_diagnostics baseline_path metrics_format cache_cap =
  if rules_only then begin
    print_rules ();
    0
  end
  else begin
    let module Metrics = Jhdl_metrics.Metrics in
    let registry =
      if Option.is_some metrics_format then Metrics.create "analysis"
      else Metrics.nil
    in
    (* the verdict cache only answers for runs at the default analysis
       configuration — a verdict computed under different rule settings
       must never be served for another *)
    let cacheable =
      (not deep) && disabled = []
      && fanout_threshold = Lint.default_config.Lint.fanout_threshold
      && max_diagnostics = Lint.default_config.Lint.max_diagnostics
    in
    let cache =
      if cache_cap > 0 && cacheable then
        Some
          (Cache_store.create ~metrics:registry ~name:"lint"
             ~cap_entries:cache_cap ~cap_bytes:max_int ())
      else None
    in
    let result =
      match metrics_format with
      | Some f when f <> "text" && f <> "json" ->
        Error (Printf.sprintf "--metrics formats: text, json (got %s)" f)
      | _ ->
        (match Lint.severity_of_string fail_on with
      | None -> Error (Printf.sprintf "--fail-on expects info, warning or error, got %s" fail_on)
      | Some fail_severity ->
        let baseline =
          match baseline_path with
          | None -> Ok None
          | Some path -> Result.map Option.some (load_baseline path)
        in
        (match baseline with
         | Error message -> Error message
         | Ok baseline ->
           let config =
             { Lint.default_config with
               Lint.disabled;
               fanout_threshold;
               max_diagnostics }
           in
           let lint d =
             let base = Lint.run ~config d in
             if deep then
               Deep_lint.merge ~max_diagnostics base
                 (Deep_lint.run ~config ~metrics:registry d)
             else base
           in
           let raw_reports =
             if broken then Ok [ lint (broken_design ()) ]
             else if all then
               Cli_common.collect
                 (fun ip ->
                    match cache with
                    | Some store ->
                      (* content-addressed by generator invocation: the
                         verdict store skips elaboration on a repeat *)
                      Result.map_error Catalog.elaboration_error_to_string
                        (Catalog.lint_verdict ~cache:store ip)
                    | None ->
                      Result.map
                        (fun built -> lint built.Ip_module.design)
                        (Cli_common.elaborate ip []))
                 Catalog.all
             else
               (match Catalog.find ip_name with
                | None -> Error (Printf.sprintf "unknown IP %s" ip_name)
                | Some ip ->
                  Result.map
                    (fun built -> [ lint built.Ip_module.design ])
                    (Cli_common.elaborate ip params))
           in
           (match raw_reports with
            | Error message -> Error message
            | Ok raw_reports ->
              let reports = List.map (apply_baseline baseline) raw_reports in
              List.iter
                (fun r ->
                   if json then print_string (Lint.to_json r)
                   else print_string (Lint.to_text r))
                reports;
              let failing =
                List.exists
                  (fun r ->
                     match Lint.worst r with
                     | None -> false
                     | Some w -> Lint.compare_severity w fail_severity >= 0)
                  reports
              in
              Ok failing)))
    in
    match result with
    | Error message ->
      Printf.eprintf "lint_tool: %s\n" message;
      2
    | Ok failing ->
      (match metrics_format with
       | Some "json" -> print_string (Metrics.to_json registry)
       | Some _ -> print_string (Metrics.to_text registry)
       | None -> ());
      if failing then 1 else 0
  end

let all_arg =
  Arg.(value & flag & info [ "all" ] ~doc:"Lint every catalog IP at its default parameters.")

let broken_arg =
  Arg.(
    value & flag
    & info [ "broken" ]
        ~doc:"Lint a deliberately broken demo design (contention, gated \
              clock, dead logic).")

let ip_arg =
  Arg.(
    value
    & opt string "VirtexKCMMultiplier"
    & info [ "ip" ] ~doc:"IP module name from the catalog.")

let param_arg =
  Arg.(
    value & opt_all string []
    & info [ "param"; "p" ] ~doc:"Generator parameter as name=value.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the stable JSON report instead of text.")

let rules_arg =
  Arg.(value & flag & info [ "rules" ] ~doc:"List the rule registry and exit.")

let deep_arg =
  Arg.(
    value & flag
    & info [ "deep" ]
        ~doc:"Also run the BDD-backed analysis rules (L5xx): provable \
              constants the const-propagator misses, redundant cell \
              pairs, unobservable cones.")

let fail_on_arg =
  Arg.(
    value & opt string "error"
    & info [ "fail-on" ]
        ~doc:"Exit non-zero when a finding of this severity (or worse) \
              survives: info, warning or error.")

let disable_arg =
  Arg.(
    value & opt_all string []
    & info [ "disable" ] ~doc:"Rule id to skip (repeatable).")

let fanout_arg =
  Arg.(
    value & opt int Lint.default_config.Lint.fanout_threshold
    & info [ "fanout-threshold" ] ~doc:"High-fanout (L203) trigger.")

let max_arg =
  Arg.(
    value & opt int Lint.default_config.Lint.max_diagnostics
    & info [ "max-diagnostics" ] ~doc:"Cap on reported findings per design.")

let baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ]
        ~doc:"Suppress findings whose key (rule id + primary location) \
              appears in this file, one per line.")

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "text") (some string) None
    & info [ "metrics" ]
        ~doc:
          "Dump analysis counters after the reports: with $(b,--deep) the \
           BDD manager's (nodes allocated, apply/memo cache hits, budget \
           cuts), with $(b,--cache-cap) the verdict store's \
           $(b,lint.cache_*) rows. $(b,--metrics) for aligned text, \
           $(b,--metrics=json) for one JSON object per metric.")

let cache_cap_arg =
  Arg.(
    value & opt int 0
    & info [ "cache-cap" ]
        ~doc:"With $(b,--all), serve verdicts through a bounded \
              content-addressed store of this many entries (0 disables). \
              Only runs at the default analysis configuration are \
              cacheable.")

let cmd =
  let doc = "rule-based lint over JHDL module-generator designs" in
  Cmd.v
    (Cmd.info "lint_tool" ~doc)
    Term.(
      const run_lint $ all_arg $ broken_arg $ ip_arg $ param_arg $ json_arg
      $ rules_arg $ deep_arg $ fail_on_arg $ disable_arg $ fanout_arg
      $ max_arg $ baseline_arg $ metrics_arg $ cache_cap_arg)

let () = exit (Cmd.eval' cmd)
