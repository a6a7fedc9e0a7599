(* Run a customer Verilog testbench against a catalog IP through the
   PLI wrapper — the Section 4.2 flow as a command-line tool.

   Usage:
     cosim_tool --ip VirtexKCMMultiplier -p constant=-56 -p product_width=19 \
       --bind x=multiplicand --bind p=product --tb bench.v [--network dsl]

   The testbench subset is documented in lib/netproto/verilog_tb.mli. *)

open Jhdl
open Cmdliner

let network_of = function
  | "loopback" -> Some Network.loopback
  | "lan" -> Some Network.lan
  | "campus" -> Some Network.campus
  | "dsl" -> Some Network.dsl
  | "modem" -> Some Network.modem
  | _ -> None

let build_applet ip params =
  let applet =
    Applet.create ~ip ~license:(License.of_tier License.Evaluator)
      ~user:"cosim-tool" ()
  in
  let rec apply = function
    | [] -> Ok ()
    | (name, text) :: rest ->
      (match Applet.exec applet (Applet.Set_param (name, text)) with
       | Ok _ -> apply rest
       | Error m -> Error m)
  in
  match apply params with
  | Error _ as e -> Result.map (fun () -> applet) e
  | Ok () ->
    (match Applet.exec applet Applet.Build with
     | Ok _ -> Ok applet
     | Error m -> Error m)

let read_binary path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s
  with Sys_error m -> Error m

let write_binary path contents =
  try
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc;
    Ok ()
  with Sys_error m -> Error m

let run ip_name params binds tb_path network_name fault_name fault_rate retries
    seed crash_at checkpoint_every resume_path checkpoint_path chaos
    metrics_format trace_last =
  match (chaos, metrics_format) with
  | _, Some other when other <> "text" && other <> "json" ->
    Printf.eprintf "cosim_tool: --metrics formats: text, json (got %s)\n" other;
    2
  | Some name, _ -> Cli_common.run_chaos name seed metrics_format
  | None, _ ->
  match tb_path with
  | None ->
    Printf.eprintf "cosim_tool: --tb is required (unless running --chaos)\n";
    2
  | Some tb_path ->
  let ( let* ) = Result.bind in
  let result =
    let* () =
      if trace_last < 0 then Error "--trace must be non-negative" else Ok ()
    in
    let want_metrics = Option.is_some metrics_format in
    let sim_reg = if want_metrics then Metrics.create "sim" else Metrics.nil in
    let cosim_reg =
      if want_metrics then Metrics.create "cosim" else Metrics.nil
    in
    (* the tracer lives even when only --trace is given, so it is minted
       from its own live registry rather than the possibly-nil cosim one *)
    let tracer =
      if trace_last > 0 then
        Some
          (Metrics.tracer
             ~capacity:(max Metrics.default_trace_capacity trace_last)
             (Metrics.create "trace"))
      else None
    in
    let* ip =
      Option.to_result ~none:(Printf.sprintf "unknown IP %s" ip_name)
        (Catalog.find ip_name)
    in
    let* network =
      Option.to_result
        ~none:"networks: loopback, lan, campus, dsl, modem"
        (network_of network_name)
    in
    let* fault_kind =
      Option.to_result
        ~none:"faults: drop, corrupt, duplicate, latency, disconnect, \
               session-crash"
        (Fault.kind_of_string fault_name)
    in
    let* () =
      if fault_rate < 0.0 || fault_rate >= 1.0 then
        Error "--fault-rate must be in [0, 1)"
      else Ok ()
    in
    let* () =
      if retries < 1 then Error "--retries must be at least 1" else Ok ()
    in
    let* () =
      if crash_at < 0 then Error "--crash-at must be at least 1" else Ok ()
    in
    let* () =
      if checkpoint_every < 0 then Error "--checkpoint-every must be positive"
      else Ok ()
    in
    let faults =
      if fault_rate > 0.0 then Some (Fault.only fault_kind ~rate:fault_rate ~seed)
      else None
    in
    let retry = { Cosim.default_retry with Cosim.max_attempts = retries } in
    let* params = Cli_common.(collect (split_eq "--param")) params in
    (* the one form check (a repeated field included) before the applet
       applies any field *)
    let* (_ : (string * Ip_module.param_value) list) =
      Ip_module.parse_params ip params
    in
    let* binds = Cli_common.(collect (split_eq "--bind")) binds in
    let bindings =
      List.map
        (fun (signal, port) -> { Verilog_tb.signal; box = "dut"; port })
        binds
    in
    let* source =
      try
        let ic = open_in tb_path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Ok s
      with Sys_error m -> Error m
    in
    let* program = Verilog_tb.parse source in
    let* applet = build_applet ip params in
    (match Applet.simulator applet with
     | Some sim -> Simulator.register_metrics sim sim_reg
     | None -> ());
    let* endpoint =
      Option.to_result ~none:"applet has no simulator"
        (Endpoint.of_applet ~metrics:cosim_reg ~name:"dut" applet)
    in
    (* resume before anything touches the wire, so the session's opening
       checkpoint captures the restored state *)
    let* () =
      match resume_path with
      | None -> Ok ()
      | Some path ->
        let* blob = read_binary path in
        (match Endpoint.restore endpoint blob with
         | Ok () ->
           Printf.printf "resumed from %s (%d bytes)\n" path
             (String.length blob);
           Ok ()
         | Error reason -> Error (Printf.sprintf "resume: %s" reason))
    in
    let session =
      if checkpoint_every > 0 then
        Some
          { Cosim.default_session_policy with
            Cosim.checkpoint_every }
      else None
    in
    let cosim = Cosim.create () in
    Cosim.attach cosim ?faults ~retry ?session ~metrics:cosim_reg ?tracer
      endpoint network;
    if crash_at > 0 then Cosim.crash_at cosim ~box:"dut" ~exchange:crash_at;
    let* result =
      try Ok (Verilog_tb.run program ~cosim ~bindings)
      with Cosim.Exchange_failed reason ->
        Error (Printf.sprintf "channel gave out: %s" reason)
    in
    List.iter print_endline result.Verilog_tb.transcript;
    let passed =
      List.filter (fun c -> c.Verilog_tb.passed) result.Verilog_tb.checks
    in
    List.iter
      (fun c ->
         if not c.Verilog_tb.passed then
           Printf.printf "FAIL $check %s: expected %s, got %s\n"
             c.Verilog_tb.check_signal
             (Bits.to_string c.Verilog_tb.expected)
             (Bits.to_string c.Verilog_tb.actual))
      result.Verilog_tb.checks;
    Printf.printf
      "%d/%d checks passed, %d cycles, %d protocol messages (%d bytes)\n"
      (List.length passed)
      (List.length result.Verilog_tb.checks)
      result.Verilog_tb.cycles_run
      (Cosim.total_messages cosim) (Cosim.total_bytes cosim);
    (match faults with
     | None -> ()
     | Some config ->
       Printf.printf
         "fault model %s: %d injected, %d retries, %d bytes retransmitted\n"
         (Fault.describe config)
         (Cosim.total_faults_injected cosim)
         (Cosim.total_retries cosim)
         (Cosim.total_retransmitted_bytes cosim));
    if Option.is_some session then
      Printf.printf
        "session: %d crash(es), %d resume(s), %d checkpoint(s), %d message(s) \
         replayed\n"
        (Cosim.total_session_crashes cosim)
        (Cosim.total_resumes cosim)
        (Cosim.total_checkpoints cosim)
        (Cosim.total_replayed_messages cosim);
    let* () =
      match checkpoint_path with
      | None -> Ok ()
      | Some path ->
        (match Endpoint.snapshot endpoint with
         | Error reason -> Error (Printf.sprintf "checkpoint: %s" reason)
         | Ok blob ->
           let* () = write_binary path blob in
           Printf.printf "checkpoint written to %s (%d bytes)\n" path
             (String.length blob);
           Ok ())
    in
    (match metrics_format with
     | Some "json" -> print_string (Metrics.all_to_json [ sim_reg; cosim_reg ])
     | Some _ -> print_string (Metrics.all_to_text [ sim_reg; cosim_reg ])
     | None -> ());
    (match tracer with
     | Some tr -> print_string (Metrics.trace_to_text ~last:trace_last tr)
     | None -> ());
    Ok (List.length passed = List.length result.Verilog_tb.checks)
  in
  match result with
  | Ok true -> 0
  | Ok false -> 1
  | Error message ->
    Printf.eprintf "cosim_tool: %s\n" message;
    2

let ip_arg =
  Arg.(
    value
    & opt string "VirtexKCMMultiplier"
    & info [ "ip" ] ~doc:"Catalog IP to evaluate.")

let param_arg =
  Arg.(
    value & opt_all string []
    & info [ "param"; "p" ] ~doc:"Generator parameter as name=value.")

let bind_arg =
  Arg.(
    value & opt_all string []
    & info [ "bind" ] ~doc:"Testbench signal binding as signal=port.")

let tb_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "tb" ]
        ~doc:"Verilog testbench file (required unless $(b,--chaos) runs a \
              scenario instead).")

let network_arg =
  Arg.(
    value & opt string "lan"
    & info [ "network" ] ~doc:"Channel model: loopback, lan, campus, dsl, modem.")

let fault_arg =
  Arg.(
    value & opt string "drop"
    & info [ "fault" ]
        ~doc:"Fault kind to inject: drop, corrupt, duplicate, latency, \
              disconnect.")

let fault_rate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "fault-rate" ]
        ~doc:"Probability in [0,1) that a message suffers the fault; 0 \
              disables injection.")

let retries_arg =
  Arg.(
    value & opt int Jhdl.Cosim.default_retry.Jhdl.Cosim.max_attempts
    & info [ "retries" ]
        ~doc:"Attempts per exchange, including the first; 1 disables \
              recovery.")

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ]
        ~doc:"Fault-stream seed; identical seeds replay identical runs.")

let crash_at_arg =
  Arg.(
    value & opt int 0
    & info [ "crash-at" ]
        ~doc:"Kill the endpoint process as its Nth exchange starts \
              (deterministic); 0 disables. Recovery needs \
              $(b,--checkpoint-every).")

let checkpoint_every_arg =
  Arg.(
    value & opt int 0
    & info [ "checkpoint-every" ]
        ~doc:"Arm the crash-safe session layer and checkpoint the endpoint \
              every N data exchanges; 0 leaves the session layer off.")

let resume_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "resume" ]
        ~doc:"Restore the endpoint from this checkpoint file before the \
              testbench runs. The blob must come from the same design \
              (signature-checked).")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ]
        ~doc:"Write the endpoint's final state to this file after the run.")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ]
        ~doc:"Run one chaos scenario (deterministic under $(b,--seed)) \
              instead of a testbench: smoke, crash-burst, loss-spike, \
              slow-clients, quota-storm, republish-load. Exit 0 when every \
              recovery invariant holds.")

let metrics_format_arg =
  Arg.(
    value
    & opt ~vopt:(Some "text") (some string) None
    & info [ "metrics" ]
        ~doc:"Dump simulator and channel metrics after the run: \
              $(b,--metrics) for aligned text, $(b,--metrics=json) for one \
              JSON object per metric.")

let trace_arg =
  Arg.(
    value & opt int 0
    & info [ "trace" ]
        ~doc:"Record channel events in a bounded ring buffer and print the \
              last N after the run; 0 disables tracing.")

let cmd =
  let doc = "drive a black-box IP with a Verilog testbench (PLI wrapper)" in
  Cmd.v
    (Cmd.info "cosim_tool" ~doc)
    Term.(
      const run $ ip_arg $ param_arg $ bind_arg $ tb_arg $ network_arg
      $ fault_arg $ fault_rate_arg $ retries_arg $ seed_arg $ crash_at_arg
      $ checkpoint_every_arg $ resume_arg $ checkpoint_arg $ chaos_arg
      $ metrics_format_arg $ trace_arg)

let () = exit (Cmd.eval' cmd)
