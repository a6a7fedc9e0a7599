(* Web server tests: per-license serving, browser caching, updates. *)

module Server = Jhdl_webserver.Server
module Catalog = Jhdl_applet.Catalog
module License = Jhdl_applet.License
module Applet = Jhdl_applet.Applet
module Feature = Jhdl_applet.Feature
module Jar = Jhdl_bundle.Jar
module Download = Jhdl_bundle.Download

let fresh_server () =
  let server = Server.create ~vendor:"test-vendor" () in
  let _ = Server.publish server Catalog.kcm in
  let _ = Server.publish server Catalog.fir in
  Server.register_user server ~user:"alice" ~tier:License.Licensed;
  Server.register_user server ~user:"bob" ~tier:License.Passive;
  server

(* the one front door, its refusal reduced to the reason *)
let serve server ~user ~ip_name ~link ?faults ?policy () =
  Result.map_error
    (fun rejection -> rejection.Server.rej_reason)
    (Server.user_request server ~now:0.0 ~user ~ip_name ~link ?faults ?policy
       ())

let request ?(user = "alice") ?(ip = "VirtexKCMMultiplier") server =
  match serve server ~user ~ip_name:ip ~link:Download.dsl_1m () with
  | Ok session -> session
  | Error message -> Alcotest.failf "request failed: %s" message

let test_unknown_user () =
  let server = fresh_server () in
  match
    serve server ~user:"mallory" ~ip_name:"VirtexKCMMultiplier"
      ~link:Download.dsl_1m ()
  with
  | Error message ->
    Alcotest.(check bool) "names the user" true
      (String.length message > 0)
  | Ok _ -> Alcotest.fail "should fail"

let test_unknown_ip () =
  let server = fresh_server () in
  match
    serve server ~user:"alice" ~ip_name:"Cordic" ~link:Download.dsl_1m ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should fail"

let test_catalog () =
  let server = fresh_server () in
  Alcotest.(check (list (pair string int))) "two entries at v1"
    [ ("VirtexKCMMultiplier", 1); ("FirFilter", 1) ]
    (Server.catalog server)

let test_license_drives_applet () =
  let server = fresh_server () in
  let alice = request server in
  let bob = request ~user:"bob" server in
  Alcotest.(check bool) "alice can netlist" true
    (List.mem Feature.Netlister (Applet.features alice.Server.applet));
  Alcotest.(check bool) "bob cannot" false
    (List.mem Feature.Netlister (Applet.features bob.Server.applet));
  Alcotest.(check bool) "bob's jar set is smaller" true
    (List.length bob.Server.jars < List.length alice.Server.jars)

let test_first_visit_fetches_everything () =
  let server = fresh_server () in
  let session = request server in
  Alcotest.(check int) "cache empty: all jars fetched"
    (List.length session.Server.jars)
    (List.length session.Server.fetched);
  Alcotest.(check bool) "download takes time" true
    (session.Server.download_seconds > 1.0)

let test_revisit_hits_cache () =
  let server = fresh_server () in
  let _ = request server in
  let second = request server in
  Alcotest.(check int) "nothing re-fetched" 0
    (List.length second.Server.fetched);
  Alcotest.(check bool) "instant" true (second.Server.download_seconds < 0.001)

let test_update_refetches_applet_jar_only () =
  let server = fresh_server () in
  let _ = request server in
  let v = Server.publish server Catalog.kcm in
  Alcotest.(check int) "version bumped" 2 v;
  let session = request server in
  Alcotest.(check int) "served the new version" 2 session.Server.version;
  Alcotest.(check (list string)) "only the applet jar moved"
    [ "Applet.jar" ]
    (List.map (fun j -> j.Jar.jar_name) session.Server.fetched)

let test_cache_is_per_user () =
  let server = fresh_server () in
  let _ = request server in
  (* bob's first visit still downloads everything *)
  let bob = request ~user:"bob" server in
  Alcotest.(check bool) "bob fetched jars" true
    (List.length bob.Server.fetched > 0)

let test_access_log () =
  let server = fresh_server () in
  let _ = request server in
  let _ = request ~user:"bob" server in
  Alcotest.(check int) "two entries" 2 (List.length (Server.access_log server))

(* the log keeps the newest 1 024 lines: bob's three requests come
   first, so 1 024 of alice's push every one of them out *)
let test_access_log_is_bounded () =
  let server = fresh_server () in
  for _ = 1 to 3 do
    ignore (request ~user:"bob" server)
  done;
  for _ = 1 to 1024 do
    ignore (request server)
  done;
  let log = Server.access_log server in
  Alcotest.(check int) "newest 1 024 lines" 1024 (List.length log);
  Alcotest.(check bool) "oldest lines dropped" true
    (List.for_all (String.starts_with ~prefix:"alice ") log)

let test_served_applet_works () =
  let server = fresh_server () in
  let session = request server in
  let applet = session.Server.applet in
  (match Applet.exec applet Applet.Build with
   | Ok _ -> ()
   | Error message -> Alcotest.failf "build failed: %s" message);
  match Applet.exec applet (Applet.Netlist "VHDL") with
  | Ok text -> Alcotest.(check bool) "vhdl produced" true (String.length text > 500)
  | Error message -> Alcotest.failf "netlist failed: %s" message

(* sealing is a step after serving: serve, then seal what arrived *)
let secure server ~user =
  Result.map
    (fun session -> (session, Server.seal server session))
    (serve server ~user ~ip_name:"VirtexKCMMultiplier" ~link:Download.dsl_1m ())

let test_secure_request () =
  let server = fresh_server () in
  match secure server ~user:"alice" with
  | Error message -> Alcotest.fail message
  | Ok (session, sealed) ->
    Alcotest.(check int) "one sealed jar per fetched jar"
      (List.length session.Server.fetched)
      (List.length sealed);
    let token = Option.get (Server.user_token server ~user:"alice") in
    List.iter
      (fun s ->
         match Jhdl_webserver.Secure_channel.open_sealed ~token s with
         | Ok _ -> ()
         | Error m -> Alcotest.fail m)
      sealed;
    (* another user's token cannot open alice's jars *)
    Server.register_user server ~user:"mallory" ~tier:License.Passive;
    let bad = Option.get (Server.user_token server ~user:"mallory") in
    (match sealed with
     | s :: _ ->
       Alcotest.(check bool) "cross-user decryption fails" true
         (Result.is_error (Jhdl_webserver.Secure_channel.open_sealed ~token:bad s))
     | [] -> Alcotest.fail "expected sealed jars")

(* regression: the secure path once lost the plain request's error in
   a dead Result.map branch, so the unknown-user path crashed instead of
   reporting — it must propagate the message *)
let test_secure_request_unknown_user () =
  let server = fresh_server () in
  match secure server ~user:"mallory" with
  | Error message ->
    Alcotest.(check bool) "error mentions the user" true
      (let needle = "mallory" in
       let hl = String.length message and nl = String.length needle in
       let rec scan i =
         i + nl <= hl && (String.sub message i nl = needle || scan (i + 1))
       in
       scan 0)
  | Ok _ -> Alcotest.fail "unknown user must be refused"

(* {1 lossy delivery: degraded sessions and cache hygiene} *)

module Fault = Jhdl_faults.Fault

let faulty_request server ~seed =
  serve server ~user:"alice" ~ip_name:"VirtexKCMMultiplier"
    ~link:Download.modem_56k
    ~faults:(Fault.only Fault.Disconnect ~rate:0.6 ~seed)
    ~policy:Download.single_attempt ()

(* scan seeds for a run where an optional jar failed but the page still
   loaded — the graceful-degradation path *)
let find_degraded_session () =
  let rec scan seed =
    if seed > 500 then None
    else
      match faulty_request (fresh_server ()) ~seed with
      | Ok session when session.Server.failed <> [] -> Some (seed, session)
      | Ok _ | Error _ -> scan (seed + 1)
  in
  scan 0

let test_degraded_session_grays_out_tools () =
  match find_degraded_session () with
  | None -> Alcotest.fail "no degraded session in 500 seeds"
  | Some (_, session) ->
    (* only non-essential jars can fail in an Ok session *)
    List.iter
      (fun jar ->
         Alcotest.(check bool)
           (jar.Jar.jar_name ^ " is not an essential jar") false
           (List.mem jar.Jar.jar_name
              [ "JHDLBase.jar"; "Virtex.jar"; "Applet.jar" ]))
      session.Server.failed;
    Alcotest.(check bool) "lost jars gray out tools" true
      (session.Server.unavailable <> []);
    Alcotest.(check bool) "the rest of the page still works" true
      (List.length (Applet.features session.Server.applet)
       > List.length session.Server.unavailable);
    Alcotest.(check bool) "attempts were spent" true
      (session.Server.fetch_attempts >= List.length session.Server.fetched)

let test_failed_jar_is_refetched_on_revisit () =
  match find_degraded_session () with
  | None -> Alcotest.fail "no degraded session in 500 seeds"
  | Some (seed, _) ->
    (* replay the degraded visit on a fresh server, then revisit over a
       clean link: the failed jar must not be served from cache *)
    let server = fresh_server () in
    (match faulty_request server ~seed with
     | Error m -> Alcotest.failf "replay diverged: %s" m
     | Ok degraded ->
       let failed_names =
         List.map (fun j -> j.Jar.jar_name) degraded.Server.failed
       in
       let second = request server in
       Alcotest.(check bool) "no failures on the clean link" true
         (second.Server.failed = []);
       List.iter
         (fun name ->
            Alcotest.(check bool) (name ^ " re-fetched") true
              (List.exists
                 (fun j -> j.Jar.jar_name = name)
                 second.Server.fetched))
         failed_names)

let test_essential_failure_is_an_error () =
  (* certain disconnection with one attempt: the base jar cannot arrive,
     so the page must refuse to load rather than serve a broken applet *)
  let server = fresh_server () in
  match
    serve server ~user:"alice" ~ip_name:"VirtexKCMMultiplier"
      ~link:Download.modem_56k
      ~faults:(Fault.only Fault.Disconnect ~rate:0.999 ~seed:3)
      ~policy:Download.single_attempt ()
  with
  | Error message ->
    Alcotest.(check bool) "error says what is missing" true
      (String.length message > 0)
  | Ok _ -> Alcotest.fail "essential jar loss must fail the request"

(* {1 bounded browser cache} *)

(* with the default cap nothing is ever evicted; with a tight cap the
   LRU drops components, they get transferred again, and the evictions
   are visible in the session stats *)
let test_lru_cache_eviction_and_refetch () =
  let unbounded = fresh_server () in
  let s1 = request unbounded in
  let s2 = request unbounded in
  Alcotest.(check int) "default cap: revisit is all cache hits" 0
    (List.length s2.Server.fetched);
  Alcotest.(check (list string)) "default cap: nothing evicted" []
    (List.map Jhdl_bundle.Partition.component_name s2.Server.evicted);
  Alcotest.(check int) "default cap: no evictions counted" 0
    (Server.cache_evictions unbounded);
  let tiny = Server.create ~vendor:"tiny" ~cache_cap:1 () in
  let _ = Server.publish tiny Catalog.kcm in
  Server.register_user tiny ~user:"alice" ~tier:License.Licensed;
  let t1 = request tiny in
  Alcotest.(check int) "first visit fetches the full set"
    (List.length s1.Server.fetched)
    (List.length t1.Server.fetched);
  Alcotest.(check bool) "filling a one-entry cache evicts" true
    (List.length t1.Server.evicted > 0);
  let t2 = request tiny in
  Alcotest.(check bool) "revisit must re-transfer evicted components" true
    (List.length t2.Server.fetched > 0);
  Alcotest.(check bool) "evictions surface in server stats" true
    (Server.cache_evictions tiny
     >= List.length t1.Server.evicted + List.length t2.Server.evicted);
  Alcotest.(check bool) "bad cap rejected" true
    (try
       let _ = Server.create ~vendor:"x" ~cache_cap:0 () in
       false
     with Invalid_argument _ -> true)

(* {1 supervised session manager} *)

module Session_manager = Jhdl_webserver.Session_manager
module Endpoint = Jhdl_netproto.Endpoint
module Simulator = Jhdl_sim.Simulator
module Snapshot = Jhdl_sim.Snapshot
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Types = Jhdl_circuit.Types
module Counter = Jhdl_modgen.Counter
module Protocol = Jhdl_netproto.Protocol

let counter_endpoint name =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let q = Wire.create top ~name:"q" 8 in
  let _ = Counter.up_counter top ~clk ~q () in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "q" Types.Output q;
  let clock =
    match Design.find_port d "clk" with
    | Some p -> p.Design.port_wire
    | None -> assert false
  in
  Endpoint.of_simulator ~name (Simulator.create ~clock d)

let manager_config =
  { Session_manager.heartbeat_timeout_s = 10.0;
    idle_timeout_s = 60.0;
    max_sessions_per_user = 2 }

let open_ok manager ~user ~now endpoint =
  match Session_manager.open_session manager ~user ~now endpoint with
  | Ok key -> key
  | Error r ->
    Alcotest.failf "open_session failed: %s" r.Session_manager.rej_reason

let test_session_quota () =
  let m = Session_manager.create ~config:manager_config () in
  let _ = open_ok m ~user:"alice" ~now:0.0 (counter_endpoint "a1") in
  let _ = open_ok m ~user:"alice" ~now:0.0 (counter_endpoint "a2") in
  let _ = open_ok m ~user:"bob" ~now:0.0 (counter_endpoint "b1") in
  (match
     Session_manager.open_session m ~user:"alice" ~now:0.0
       (counter_endpoint "a3")
   with
   | Error r ->
     Alcotest.(check bool) "refusal names the quota" true
       (String.length r.Session_manager.rej_reason > 0)
   | Ok _ -> Alcotest.fail "third alice session must be refused");
  let stats = Session_manager.stats m in
  Alcotest.(check int) "three live" 3 stats.Session_manager.live;
  Alcotest.(check int) "one rejection" 1
    stats.Session_manager.quota_rejections

let test_session_timeouts_reap_with_checkpoints () =
  let m = Session_manager.create ~config:manager_config () in
  let quiet = open_ok m ~user:"alice" ~now:0.0 (counter_endpoint "quiet") in
  let chatty = open_ok m ~user:"bob" ~now:0.0 (counter_endpoint "chatty") in
  (* the chatty session keeps its heartbeat fresh; the quiet one stops *)
  (match Session_manager.heartbeat m ~now:8.0 chatty with
   | Ok () -> ()
   | Error reason -> Alcotest.failf "heartbeat failed: %s" reason);
  let reaped = Session_manager.tick m ~now:11.0 in
  (match reaped with
   | [ r ] ->
     Alcotest.(check string) "the quiet session was reaped" quiet
       r.Session_manager.reaped_key;
     (match r.Session_manager.reason with
      | Session_manager.Heartbeat_lost -> ()
      | Session_manager.Idle -> Alcotest.fail "expected heartbeat loss");
     (match r.Session_manager.checkpoint with
      | Ok blob ->
        Alcotest.(check bool) "parting checkpoint is a real blob" true
          (String.length blob > 0)
      | Error reason -> Alcotest.failf "no parting checkpoint: %s" reason)
   | other -> Alcotest.failf "expected one reap, got %d" (List.length other));
  Alcotest.(check (list string)) "chatty survives" [ chatty ]
    (Session_manager.live_sessions m);
  (* heartbeats alone do not count as activity forever: idle reaps too *)
  let rec beat t =
    if t <= 70.0 then begin
      (match Session_manager.heartbeat m ~now:t chatty with
       | Ok () -> ()
       | Error reason -> Alcotest.failf "heartbeat failed: %s" reason);
      beat (t +. 5.0)
    end
  in
  beat 10.0;
  Alcotest.(check int) "heartbeats keep it alive" 0
    (List.length (Session_manager.tick m ~now:70.0));
  let stats = Session_manager.stats m in
  Alcotest.(check int) "one heartbeat reap" 1
    stats.Session_manager.reaped_heartbeat

let test_session_shutdown_reports_preserved () =
  let m = Session_manager.create ~config:manager_config () in
  let alive_key = open_ok m ~user:"alice" ~now:0.0 (counter_endpoint "alive") in
  let doomed = counter_endpoint "doomed" in
  let doomed_key = open_ok m ~user:"bob" ~now:0.0 doomed in
  (* advance the live one so its checkpoint carries real state *)
  (match Session_manager.endpoint m alive_key with
   | Some e ->
     let _ =
       Endpoint.handle_packet e { Protocol.seq = 0; payload = Protocol.Cycle 5 }
     in
     ()
   | None -> Alcotest.fail "no endpoint for live session");
  Endpoint.crash doomed;
  let report = Session_manager.shutdown m in
  (match report.Session_manager.preserved with
   | [ (key, blob) ] ->
     Alcotest.(check string) "live session preserved" alive_key key;
     (* the preserved blob restores into a fresh simulator of the design *)
     let twin = counter_endpoint "twin" in
     (match Endpoint.restore twin blob with
      | Ok () -> ()
      | Error reason -> Alcotest.failf "preserved blob rejected: %s" reason);
     (match
        Endpoint.handle twin (Protocol.Get_outputs [ "q" ])
      with
      | Protocol.Outputs_are [ (_, v) ] ->
        Alcotest.(check (option int)) "preserved state is the real state"
          (Some 5) (Jhdl_logic.Bits.to_int v)
      | _ -> Alcotest.fail "expected outputs")
   | other -> Alcotest.failf "expected one preserved, got %d" (List.length other));
  (match report.Session_manager.lost with
   | [ (key, _) ] ->
     Alcotest.(check string) "crashed session reported lost" doomed_key key
   | other -> Alcotest.failf "expected one lost, got %d" (List.length other));
  Alcotest.(check int) "registry emptied" 0
    (Session_manager.stats m).Session_manager.live

let suite =
  [ Alcotest.test_case "unknown user" `Quick test_unknown_user;
    Alcotest.test_case "lru cache eviction and refetch" `Quick
      test_lru_cache_eviction_and_refetch;
    Alcotest.test_case "session quota" `Quick test_session_quota;
    Alcotest.test_case "session timeouts reap with checkpoints" `Quick
      test_session_timeouts_reap_with_checkpoints;
    Alcotest.test_case "session shutdown reports preserved" `Quick
      test_session_shutdown_reports_preserved;
    Alcotest.test_case "secure request unknown user" `Quick
      test_secure_request_unknown_user;
    Alcotest.test_case "degraded session grays out tools" `Quick
      test_degraded_session_grays_out_tools;
    Alcotest.test_case "failed jar refetched on revisit" `Quick
      test_failed_jar_is_refetched_on_revisit;
    Alcotest.test_case "essential failure is an error" `Quick
      test_essential_failure_is_an_error;
    Alcotest.test_case "secure request" `Quick test_secure_request;
    Alcotest.test_case "unknown ip" `Quick test_unknown_ip;
    Alcotest.test_case "catalog" `Quick test_catalog;
    Alcotest.test_case "license drives applet" `Quick test_license_drives_applet;
    Alcotest.test_case "first visit fetches all" `Quick
      test_first_visit_fetches_everything;
    Alcotest.test_case "revisit hits cache" `Quick test_revisit_hits_cache;
    Alcotest.test_case "update refetches applet jar" `Quick
      test_update_refetches_applet_jar_only;
    Alcotest.test_case "cache is per user" `Quick test_cache_is_per_user;
    Alcotest.test_case "access log" `Quick test_access_log;
    Alcotest.test_case "access log keeps the newest lines" `Quick
      test_access_log_is_bounded;
    Alcotest.test_case "served applet works" `Quick test_served_applet_works ]
