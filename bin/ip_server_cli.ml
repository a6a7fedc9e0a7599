(* Interactive vendor server console: publish IP, register users, serve
   applet pages and inspect the access log — the vendor-side half of the
   paper's delivery story, driven from a prompt.

   Usage: ip_server_cli [--vendor NAME]
   Commands:
     catalog                        list published IP and versions
     publish <ip>                   publish or bump a catalog IP
     register <user> <tier>         create/update an account
     token <user>                   show a user's license token
     get <user> <ip> [link]         serve the IP page (link: modem|isdn|dsl|lan10|lan100)
     secure <user> <ip>             serve with encrypted jars
     log                            access log
     quit

   `get` and `secure` run through the overload-aware path: an admission
   controller and a download circuit breaker front the server, and
   rejections carry retry-after hints; `secure` then seals what
   arrived. The console clock is deterministic (one second per serving
   command). `--chaos SCENARIO` skips the console entirely
   and plays a seeded fault storm against a fresh delivery stack,
   exiting 0 only when every recovery invariant holds.              *)

open Jhdl

let link_of = function
  | "modem" -> Some Download.modem_56k
  | "isdn" -> Some Download.isdn_128k
  | "dsl" | "" -> Some Download.dsl_1m
  | "lan10" -> Some Download.lan_10m
  | "lan100" -> Some Download.lan_100m
  | _ -> None

let tier_of = function
  | "passive" -> Some License.Passive
  | "evaluator" -> Some License.Evaluator
  | "licensed" -> Some License.Licensed
  | "vendor" -> Some License.Vendor
  | _ -> None

let show_session (session : Server.session) =
  Printf.printf "served v%d; tools: %s\n" session.Server.version
    (String.concat ", "
       (List.map Feature.name (Applet.features session.Server.applet)));
  Printf.printf "fetched %d jar(s) in %.2f s: %s\n"
    (List.length session.Server.fetched)
    session.Server.download_seconds
    (String.concat ", "
       (List.map (fun j -> j.Jar.jar_name) session.Server.fetched));
  if session.Server.failed <> [] then begin
    Printf.printf "DEGRADED: %s never arrived (%d transfer attempts)\n"
      (String.concat ", "
         (List.map (fun j -> j.Jar.jar_name) session.Server.failed))
      session.Server.fetch_attempts;
    Printf.printf "unavailable tools: %s\n"
      (String.concat ", " (List.map Feature.name session.Server.unavailable))
  end

(* lossy-link settings shared by every get/secure command of a session *)
type delivery = {
  faults : Fault.config option;
  policy : Download.fetch_policy;
}

(* the console's deterministic clock: one second per serving command,
   so the breaker's probe schedule and retry-after hints replay exactly *)
let console_clock = ref 0.0

let handle server admission delivery registry tracer line =
  let trace ?value label =
    match tracer with
    | Some tr -> Metrics.trace tr ?value label
    | None -> ()
  in
  (* `get` and `secure` share one path: the overload-aware front door
     on the console clock, then the command's own display *)
  let serve ~user ~ip_name ~link command k =
    let now = !console_clock in
    console_clock := now +. 1.0;
    match
      Server.user_request server ~admission ~now ~user ~ip_name ~link
        ?faults:delivery.faults ~policy:delivery.policy ()
    with
    | Ok session -> k session
    | Error rejection ->
      trace (command ^ "_error");
      print_endline ("ERROR: " ^ rejection.Server.rej_reason);
      (match rejection.Server.rej_retry_after_s with
       | Some s -> Printf.printf "retry after %.1f s\n" s
       | None -> ())
  in
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> ()
  | [ "catalog" ] ->
    List.iter
      (fun (name, version) -> Printf.printf "  %s (v%d)\n" name version)
      (Server.catalog server)
  | [ "publish"; ip_name ] ->
    (match Catalog.find ip_name with
     | Some ip ->
       Printf.printf "published %s as v%d\n" ip.Ip_module.ip_name
         (Server.publish server ip)
     | None ->
       Printf.printf "unknown IP %s; choices: %s\n" ip_name
         (String.concat ", "
            (List.map (fun ip -> ip.Ip_module.ip_name) Catalog.all)))
  | [ "register"; user; tier_name ] ->
    (match tier_of tier_name with
     | Some tier ->
       Server.register_user server ~user ~tier;
       Printf.printf "registered %s as %s\n" user tier_name
     | None -> print_endline "tiers: passive, evaluator, licensed, vendor")
  | [ "token"; user ] ->
    (match Server.user_token server ~user with
     | Some token -> print_endline token
     | None -> Printf.printf "unknown user %s\n" user)
  | "get" :: user :: ip_name :: rest ->
    let link_name = match rest with [ l ] -> l | _ -> "" in
    (match link_of link_name with
     | None -> print_endline "links: modem, isdn, dsl, lan10, lan100"
     | Some link ->
       serve ~user ~ip_name ~link "request" (fun session ->
         trace "request_ok" ~value:(List.length session.Server.fetched);
         show_session session))
  | [ "secure"; user; ip_name ] ->
    serve ~user ~ip_name ~link:Download.dsl_1m "secure" (fun session ->
      let sealed = Server.seal server session in
      trace "secure_ok" ~value:(List.length sealed);
      show_session session;
      List.iter
        (fun s ->
           Printf.printf "  sealed %s (%d bytes, digest %s)\n"
             s.Secure_channel.jar_name
             (String.length s.Secure_channel.ciphertext)
             s.Secure_channel.digest)
        sealed)
  | [ "log" ] ->
    List.iter (fun l -> print_endline ("  " ^ l)) (Server.access_log server)
  | [ "metrics" ] ->
    if Metrics.is_nil registry then
      print_endline "metrics are off (start with --metrics)"
    else print_string (Metrics.to_text registry)
  | [ "help" ] ->
    print_endline
      "commands: catalog, publish <ip>, register <user> <tier>, token <user>,\n\
      \          get <user> <ip> [link], secure <user> <ip>, log, metrics, quit"
  | _ -> print_endline "unrecognized command (try `help`)"

open Cmdliner

let vendor_arg =
  Arg.(
    value
    & opt string "BYU Configurable Computing Lab"
    & info [ "vendor" ] ~doc:"Vendor name for the server.")

let fault_arg =
  Arg.(
    value & opt string "drop"
    & info [ "fault" ]
        ~doc:"Fault kind on the download link: drop, corrupt, duplicate, \
              latency, disconnect.")

let fault_rate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "fault-rate" ]
        ~doc:"Probability in [0,1) that a jar transfer suffers the fault; \
              0 keeps the link clean.")

let retries_arg =
  Arg.(
    value & opt int Download.default_fetch_policy.Download.max_attempts
    & info [ "retries" ] ~doc:"Transfer attempts per jar, including the first.")

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~doc:"Fault-stream seed (same seed, same faults).")

let run vendor fault_name fault_rate retries seed chaos metrics_format
    trace_last cache_cap =
  match Fault.kind_of_string fault_name with
  | None ->
    prerr_endline "faults: drop, corrupt, duplicate, latency, disconnect";
    2
  | Some _
    when (match metrics_format with
          | None | Some "text" | Some "json" -> false
          | Some _ -> true) ->
    prerr_endline "--metrics formats: text, json";
    2
  | Some _ when Option.is_some chaos ->
    Cli_common.run_chaos (Option.get chaos) seed metrics_format
  | Some _ when cache_cap < 1 ->
    prerr_endline "--cache-cap must be at least 1";
    2
  | Some kind when fault_rate >= 0.0 && fault_rate < 1.0 && retries >= 1
                && trace_last >= 0 ->
    let delivery =
      { faults =
          (if fault_rate > 0.0 then Some (Fault.only kind ~rate:fault_rate ~seed)
           else None);
        policy =
          { Download.default_fetch_policy with Download.max_attempts = retries } }
    in
    let registry =
      if Option.is_some metrics_format then Metrics.create "webserver"
      else Metrics.nil
    in
    let tracer =
      if trace_last > 0 then
        Some
          (Metrics.tracer
             ~capacity:(max Metrics.default_trace_capacity trace_last)
             (Metrics.create "trace"))
      else None
    in
    (* the overload-aware front door: breaker + admission share the
       registry, so --metrics dumps fold in their counters *)
    let breaker =
      Breaker.create ~metrics:registry ~name:"download" ~seed ()
    in
    let server =
      Server.create ~vendor ~delivery_cap:cache_cap ~breaker
        ~metrics:registry ()
    in
    let admission = Admission.create ~metrics:registry () in
    console_clock := 0.0;
    List.iter (fun ip -> ignore (Server.publish server ip)) Catalog.all;
    Printf.printf "IP delivery server for %s (type `help`)\n" vendor;
    (match delivery.faults with
     | Some config ->
       Printf.printf "download link faults: %s, %d attempt(s) per jar\n"
         (Fault.describe config) retries
     | None -> ());
    let finish () =
      (match metrics_format with
       | Some "json" -> print_string (Metrics.all_to_json [ registry ])
       | Some _ -> print_string (Metrics.all_to_text [ registry ])
       | None -> ());
      (match tracer with
       | Some tr -> print_string (Metrics.trace_to_text ~last:trace_last tr)
       | None -> ());
      0
    in
    let rec loop () =
      print_string "server> ";
      match read_line () with
      | exception End_of_file -> finish ()
      | "quit" | "exit" -> finish ()
      | line ->
        handle server admission delivery registry tracer line;
        loop ()
    in
    loop ()
  | Some _ ->
    prerr_endline
      "--fault-rate must be in [0,1), --retries at least 1, --trace \
       non-negative";
    2

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ]
        ~doc:"Run one chaos scenario (deterministic under $(b,--seed)) \
              instead of the console: smoke, crash-burst, loss-spike, \
              slow-clients, quota-storm, republish-load. Exit 0 when every \
              recovery invariant holds.")

let metrics_format_arg =
  Arg.(
    value
    & opt ~vopt:(Some "text") (some string) None
    & info [ "metrics" ]
        ~doc:"Collect server metrics and dump them on exit: $(b,--metrics) \
              for aligned text, $(b,--metrics=json) for one JSON object per \
              metric. Also enables the $(b,metrics) console command.")

let trace_arg =
  Arg.(
    value & opt int 0
    & info [ "trace" ]
        ~doc:"Record request events in a bounded ring buffer and print the \
              last N on exit; 0 disables tracing.")

let cache_cap_arg =
  Arg.(
    value & opt int 256
    & info [ "cache-cap" ]
        ~doc:"Entry capacity of the server's content-addressed delivery \
              cache (elaborated designs, lint verdicts, netlists, jar \
              bundles). With $(b,--metrics), its counters dump as the \
              $(b,delivery.cache_*) rows.")

let cmd =
  let doc = "run the vendor's IP delivery web server console" in
  Cmd.v (Cmd.info "ip_server_cli" ~doc)
    Term.(
      const run $ vendor_arg $ fault_arg $ fault_rate_arg $ retries_arg
      $ seed_arg $ chaos_arg $ metrics_format_arg $ trace_arg
      $ cache_cap_arg)

let () = exit (Cmd.eval' cmd)
