(* Overload-control tests: admission queues and the brownout ladder,
   circuit breakers, reap-before-quota supervision, typed failure
   accounting on the server, the atomic-admission property, and the
   chaos recovery invariants across seeds. *)

module Admission = Jhdl_resilience.Admission
module Breaker = Jhdl_resilience.Breaker
module Chaos = Jhdl_chaos.Chaos
module Server = Jhdl_webserver.Server
module Session_manager = Jhdl_webserver.Session_manager
module Catalog = Jhdl_applet.Catalog
module Ip_module = Jhdl_applet.Ip_module
module License = Jhdl_applet.License
module Download = Jhdl_bundle.Download
module Fault = Jhdl_faults.Fault
module Metrics = Jhdl_metrics.Metrics
module Store = Jhdl_cache.Store
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Types = Jhdl_circuit.Types
module Simulator = Jhdl_sim.Simulator
module Counter = Jhdl_modgen.Counter
module Endpoint = Jhdl_netproto.Endpoint

let counter_value registry name =
  match List.assoc_opt name (Metrics.snapshot registry) with
  | Some (Metrics.Counter_sample n) -> n
  | _ -> Alcotest.failf "no counter %s in the registry" name

let shed_reason = Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt (Admission.shed_reason_name r))
    ( = )

let counter_endpoint () =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let q = Wire.create top ~name:"q" 8 in
  let _ = Counter.up_counter top ~clk ~q () in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "q" Types.Output q;
  Endpoint.of_simulator ~name:"counter"
    (Simulator.create
       ~clock:(match Design.find_port d "clk" with
               | Some p -> p.Design.port_wire
               | None -> assert false)
       d)

(* {1 admission} *)

let submit ?(tier = License.Licensed) ?(user = "alice") ?deadline_s adm ~now cls
  =
  Admission.submit adm ~now ~cls ~tier ~user ?deadline_s ()

let test_admit_now_roundtrip () =
  let adm = Admission.create () in
  match
    Admission.admit_now adm ~now:0.0 ~cls:Admission.Browse
      ~tier:License.Evaluator ~user:"alice" ()
  with
  | Error _ -> Alcotest.fail "an empty controller must admit"
  | Ok ticket ->
    Admission.complete adm ~now:0.5 ticket;
    let s = Admission.stats adm in
    Alcotest.(check int) "submitted" 1 s.Admission.submitted;
    Alcotest.(check int) "completed" 1 s.Admission.completed;
    Alcotest.(check int) "inflight drained" 0 s.Admission.inflight;
    Alcotest.(check bool) "accounting closes" true
      (Admission.accounting_closes adm)

let small_queues =
  { Admission.default_config with
    Admission.browse = { Admission.queue_cap = 4; deadline_budget_s = 0.0 };
    download = { Admission.queue_cap = 4; deadline_budget_s = 0.0 };
    elaborate = { Admission.queue_cap = 4; deadline_budget_s = 0.0 };
    cosim = { Admission.queue_cap = 4; deadline_budget_s = 0.0 } }

let test_queue_cap_sheds () =
  let adm = Admission.create ~config:small_queues () in
  for _ = 1 to 4 do
    match submit adm ~now:0.0 Admission.Elaborate with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "under capacity must queue"
  done;
  match submit adm ~now:0.0 Admission.Elaborate with
  | Ok _ -> Alcotest.fail "queue is full, fifth submit must shed"
  | Error shed ->
    Alcotest.check shed_reason "typed as queue-full" Admission.Queue_full
      shed.Admission.shed_reason;
    Alcotest.(check bool) "carries a retry hint" true
      (shed.Admission.retry_after_s <> None);
    Alcotest.(check bool) "accounting closes" true
      (Admission.accounting_closes adm)

let test_tier_preemption () =
  let config =
    { small_queues with
      Admission.download = { Admission.queue_cap = 1; deadline_budget_s = 0.0 }
    }
  in
  let adm = Admission.create ~config () in
  (match submit ~tier:License.Passive ~user:"lurker" adm ~now:0.0
           Admission.Jar_download
   with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "first download must queue");
  (* the paying customer preempts the passive one from the full queue *)
  (match submit ~tier:License.Licensed ~user:"customer" adm ~now:0.1
           Admission.Jar_download
   with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "higher tier must preempt, not shed");
  (match Admission.shed_log adm with
   | [ shed ] ->
     Alcotest.check shed_reason "the passive request was tier-shed"
       Admission.Tier_shed shed.Admission.shed_reason;
     Alcotest.(check string) "and it was the lurker's" "lurker"
       shed.Admission.shed_ticket.Admission.user
   | sheds -> Alcotest.failf "expected exactly one shed, got %d"
                (List.length sheds));
  (* a passive newcomer cannot preempt the licensed holder *)
  match submit ~tier:License.Passive ~user:"lurker" adm ~now:0.2
          Admission.Jar_download
  with
  | Ok _ -> Alcotest.fail "a lower tier must not displace a higher one"
  | Error shed ->
    Alcotest.check shed_reason "sheds as queue-full" Admission.Queue_full
      shed.Admission.shed_reason

let test_deadline_expiry () =
  let adm = Admission.create ~config:small_queues () in
  (match submit ~deadline_s:1.0 adm ~now:0.0 Admission.Jar_download with
   | Ok ticket ->
     Alcotest.(check (float 1e-9)) "absolute deadline" 1.0
       ticket.Admission.deadline
   | Error _ -> Alcotest.fail "must queue with a live deadline");
  (* the dispatcher reaches it only after the deadline passed *)
  (match Admission.start adm ~now:2.0 with
   | Some _ -> Alcotest.fail "expired work must be shed, not served"
   | None -> ());
  (match Admission.shed_log adm with
   | [ shed ] ->
     Alcotest.check shed_reason "typed as deadline-expired"
       Admission.Deadline_expired shed.Admission.shed_reason
   | _ -> Alcotest.fail "expected exactly one shed");
  Alcotest.(check bool) "accounting closes" true
    (Admission.accounting_closes adm)

let brownout = Alcotest.testable
    (fun fmt l -> Format.pp_print_string fmt (Admission.brownout_name l))
    ( = )

let test_brownout_ladder () =
  (* 16 queue slots in all; default thresholds 0.5 / 0.75 / 0.9 *)
  let adm = Admission.create ~config:small_queues () in
  Alcotest.check brownout "empty controller serves fully"
    Admission.Full_service (Admission.brownout adm);
  let fill cls n =
    for _ = 1 to n do
      match submit adm ~now:0.0 cls with
      | Ok _ -> ()
      | Error shed ->
        Alcotest.failf "unexpected shed while filling: %s"
          (Admission.shed_reason_name shed.Admission.shed_reason)
    done
  in
  fill Admission.Elaborate 4;
  fill Admission.Cosim_exchange 4;
  Alcotest.check brownout "8/16 queued serves stale" Admission.Serve_stale
    (Admission.brownout adm);
  fill Admission.Jar_download 4;
  Alcotest.check brownout "12/16 queued is catalog-only" Admission.Catalog_only
    (Admission.brownout adm);
  (* the ladder has dropped downloads; browsing still gets through *)
  (match submit adm ~now:0.0 Admission.Jar_download with
   | Ok _ -> Alcotest.fail "catalog-only must shed downloads"
   | Error shed ->
     Alcotest.check shed_reason "typed as brownout"
       Admission.Brownout_rejected shed.Admission.shed_reason);
  fill Admission.Browse 3;
  Alcotest.check brownout "15/16 queued rejects all" Admission.Reject_all
    (Admission.brownout adm);
  match submit adm ~now:0.0 Admission.Browse with
  | Ok _ -> Alcotest.fail "reject-all must shed even browsing"
  | Error shed ->
    Alcotest.check shed_reason "typed as brownout" Admission.Brownout_rejected
      shed.Admission.shed_reason;
    Alcotest.(check bool) "with a retry hint" true
      (shed.Admission.retry_after_s <> None)

let test_admit_now_respects_backlog () =
  let adm = Admission.create ~config:small_queues () in
  (match submit ~user:"first" adm ~now:0.0 Admission.Jar_download with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "must queue");
  (* the synchronous path must not jump ahead of queued work *)
  (match
     Admission.admit_now adm ~now:0.1 ~cls:Admission.Jar_download
       ~tier:License.Licensed ~user:"second" ()
   with
   | Ok _ -> Alcotest.fail "admit_now must not overtake the backlog"
   | Error shed ->
     Alcotest.check shed_reason "sheds as queue-full" Admission.Queue_full
       shed.Admission.shed_reason);
  match Admission.start adm ~now:0.2 with
  | Some ticket ->
    Alcotest.(check string) "the queued request serves first" "first"
      ticket.Admission.user
  | None -> Alcotest.fail "the backlog must still be servable"

(* {1 breakers} *)

let breaker_state = Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (Breaker.state_name s))
    ( = )

let test_breaker_lifecycle () =
  let b = Breaker.create ~name:"dl" ~seed:11 () in
  Alcotest.check breaker_state "starts closed" Breaker.Closed
    (Breaker.state b);
  Breaker.on_failure b ~now:0.0;
  Breaker.on_failure b ~now:0.1;
  Alcotest.check breaker_state "below threshold stays closed" Breaker.Closed
    (Breaker.state b);
  Breaker.on_failure b ~now:0.2;
  Alcotest.check breaker_state "third consecutive failure trips"
    Breaker.Open (Breaker.state b);
  Alcotest.(check int) "opened once" 1 (Breaker.times_opened b);
  Alcotest.(check bool) "open refuses" false (Breaker.allow b ~now:0.3);
  (match Breaker.retry_after_s b ~now:0.3 with
   | Some s ->
     (* probe at 0.2 + 2 s ± 25%, so the hint sits inside [1.2, 2.4] *)
     Alcotest.(check bool) "retry hint within the jittered window" true
       (s >= 1.2 && s <= 2.4)
   | None -> Alcotest.fail "an open breaker must hint a retry");
  (* past the worst-case probe delay the breaker half-opens *)
  Alcotest.(check bool) "probe admitted" true (Breaker.allow b ~now:3.0);
  Alcotest.check breaker_state "probing" Breaker.Half_open (Breaker.state b);
  Breaker.on_success b ~now:3.0;
  Alcotest.check breaker_state "one probe success is not enough"
    Breaker.Half_open (Breaker.state b);
  Breaker.on_success b ~now:3.1;
  Alcotest.check breaker_state "two probe successes close it"
    Breaker.Closed (Breaker.state b)

let test_breaker_probe_failure_reopens () =
  let b = Breaker.create ~name:"dl" ~seed:11 () in
  Breaker.on_failure b ~now:0.0;
  Breaker.on_failure b ~now:0.1;
  Breaker.on_failure b ~now:0.2;
  ignore (Breaker.allow b ~now:3.0);
  Alcotest.check breaker_state "probing" Breaker.Half_open (Breaker.state b);
  Breaker.on_failure b ~now:3.0;
  Alcotest.check breaker_state "a failed probe re-opens" Breaker.Open
    (Breaker.state b);
  Alcotest.(check int) "counted as a second trip" 2 (Breaker.times_opened b)

let drive_breaker b =
  Breaker.on_failure b ~now:0.0;
  Breaker.on_failure b ~now:0.1;
  Breaker.on_failure b ~now:0.2;
  ignore (Breaker.allow b ~now:3.0);
  Breaker.on_success b ~now:3.0;
  Breaker.on_success b ~now:3.1;
  Breaker.on_failure b ~now:4.0;
  Breaker.on_failure b ~now:4.1;
  Breaker.on_failure b ~now:4.2;
  List.map
    (fun (t, s) -> Printf.sprintf "%.6f %s" t (Breaker.state_name s))
    (Breaker.history b)

let test_breaker_probe_determinism () =
  let a = drive_breaker (Breaker.create ~name:"dl" ~seed:7 ()) in
  let b = drive_breaker (Breaker.create ~name:"dl" ~seed:7 ()) in
  Alcotest.(check (list string)) "same seed, same transition history" a b;
  Alcotest.(check bool) "and the run actually transitioned" true
    (List.length a >= 4)

(* {1 session supervision} *)

let test_reap_before_quota () =
  let config =
    { Session_manager.heartbeat_timeout_s = 5.0;
      idle_timeout_s = 0.0;
      max_sessions_per_user = 1 }
  in
  let sm = Session_manager.create ~config () in
  (match Session_manager.open_session sm ~user:"eve" ~now:0.0
           (counter_endpoint ())
   with
   | Ok _ -> ()
   | Error r ->
     Alcotest.failf "first open failed: %s" r.Session_manager.rej_reason);
  (* quota genuinely full: typed refusal with the expiry-based hint *)
  (match Session_manager.open_session sm ~user:"eve" ~now:1.0
           (counter_endpoint ())
   with
   | Ok _ -> Alcotest.fail "quota of one must reject a live second session"
   | Error r ->
     (match r.Session_manager.rej_retry_after_s with
      | Some s ->
        Alcotest.(check (float 1e-6))
          "hint is the soonest heartbeat expiry" 4.0 s
      | None -> Alcotest.fail "quota refusal must hint a retry"));
  (* the regression: once the heartbeat lapses, the dead session is
     reaped before the quota check and admission succeeds *)
  (match Session_manager.open_session sm ~user:"eve" ~now:10.0
           (counter_endpoint ())
   with
   | Ok _ -> ()
   | Error r ->
     Alcotest.failf "dead session blocked a live user's admission: %s"
       r.Session_manager.rej_reason);
  let s = Session_manager.stats sm in
  Alcotest.(check int) "one quota rejection" 1 s.Session_manager.quota_rejections;
  Alcotest.(check int) "one heartbeat reap" 1 s.Session_manager.reaped_heartbeat;
  match Session_manager.reap_report sm with
  | [ reaped ] ->
    Alcotest.(check string) "reported as heartbeat-lost" "heartbeat lost"
      (Session_manager.reap_reason_name reaped.Session_manager.reason)
  | report ->
    Alcotest.failf "expected one reaped session in the report, got %d"
      (List.length report)

(* {1 server failure accounting} *)

let fresh_counted_server () =
  let registry = Metrics.create "t" in
  let server = Server.create ~vendor:"test-vendor" ~metrics:registry () in
  ignore (Server.publish server Catalog.kcm);
  Server.register_user server ~user:"alice" ~tier:License.Licensed;
  (registry, server)

let test_failure_paths_counted () =
  let registry, server = fresh_counted_server () in
  (match Server.user_request server ~now:0.0 ~user:"mallory"
           ~ip_name:"VirtexKCMMultiplier" ~link:Download.dsl_1m ()
   with
   | Error r ->
     Alcotest.(check bool) "plain failures carry no shed reason" true
       (r.Server.rej_shed = None)
   | Ok _ -> Alcotest.fail "unknown user must fail");
  (match Server.user_request server ~now:1.0 ~user:"alice" ~ip_name:"Nope"
           ~link:Download.dsl_1m ()
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown IP must fail");
  (match
     Result.map (Server.seal server)
       (Server.user_request server ~now:0.0 ~user:"mallory"
          ~ip_name:"VirtexKCMMultiplier" ~link:Download.dsl_1m ())
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "secure request for an unknown user must fail");
  Alcotest.(check int) "every refusal counted" 3
    (counter_value registry "request_failures_total");
  (* overload sheds count too, and carry hint + typed reason *)
  let admission =
    Admission.create
      ~config:{ Admission.default_config with Admission.max_inflight = 1 } ()
  in
  (match
     Admission.admit_now admission ~now:0.0 ~cls:Admission.Browse
       ~tier:License.Vendor ~user:"holder" ()
   with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "the slot holder must be admitted");
  (match Server.user_request server ~admission ~now:2.0 ~user:"alice"
           ~ip_name:"VirtexKCMMultiplier" ~link:Download.dsl_1m ()
   with
   | Ok _ -> Alcotest.fail "a saturated controller must shed"
   | Error r ->
     Alcotest.(check bool) "shed reason is typed" true
       (r.Server.rej_shed = Some Admission.Queue_full);
     Alcotest.(check bool) "with a retry hint" true
       (r.Server.rej_retry_after_s <> None));
  Alcotest.(check int) "the shed counted as a failure too" 4
    (counter_value registry "request_failures_total")

(* the schema checks each parameter on its own, so a form can pass it
   and still name a point the generator refuses (more CORDIC
   iterations than bits); that refusal is typed and counted, never
   raised out of the server *)
let test_generator_raise_is_a_refusal () =
  let registry = Metrics.create "t" in
  let server = Server.create ~vendor:"test-vendor" ~metrics:registry () in
  ignore (Server.publish server Catalog.cordic);
  Server.register_user server ~user:"alice" ~tier:License.Licensed;
  (match
     Server.user_request server ~now:0.0 ~user:"alice"
       ~ip_name:"CordicRotator"
       ~params:[ ("width", "10"); ("iterations", "27") ]
       ~link:Download.dsl_1m ()
   with
   | Ok _ -> Alcotest.fail "27 iterations over 10 bits must be refused"
   | Error r ->
     Alcotest.(check string) "the generator's message, typed"
       "failed to elaborate CordicRotator: Invalid_argument(\"Cordic.create: \
        iterations must be in 1..width\")"
       r.Server.rej_reason;
     Alcotest.(check bool) "a plain failure, not a shed" true
       (r.Server.rej_shed = None));
  Alcotest.(check int) "counted" 1
    (counter_value registry "request_failures_total");
  Alcotest.(check int) "nothing cached" 0
    (Store.stats (Server.delivery_cache server).Jhdl_cache.Delivery.designs)
      .Store.live_entries;
  (* refusals before the download tell the download breaker nothing:
     three in a row (a malformed field, an unknown IP, a generator
     refusal) must not open it against the next customer *)
  let breaker = Breaker.create ~name:"download" ~seed:9 () in
  let server = Server.create ~vendor:"test-vendor" ~breaker () in
  ignore (Server.publish server Catalog.cordic);
  Server.register_user server ~user:"eve" ~tier:License.Licensed;
  Server.register_user server ~user:"bob" ~tier:License.Licensed;
  List.iteri
    (fun i (ip_name, params) ->
       match
         Server.user_request server ~now:(0.1 *. float_of_int i) ~user:"eve"
           ~ip_name ~params ~link:Download.dsl_1m ()
       with
       | Ok _ -> Alcotest.failf "refusal %d was served" i
       | Error r ->
         Alcotest.(check bool) "refused, not shed" true
           (r.Server.rej_shed = None))
    [ ("CordicRotator", [ ("width", "banana") ]);
      ("NoSuchIP", []);
      ("CordicRotator", [ ("width", "10"); ("iterations", "27") ]) ];
  Alcotest.(check string) "the breaker stays closed" "closed"
    (Breaker.state_name (Breaker.state breaker));
  match
    Server.user_request server ~now:0.5 ~user:"bob" ~ip_name:"CordicRotator"
      ~link:Download.dsl_1m ()
  with
  | Ok _ -> ()
  | Error r ->
    Alcotest.failf "another user's valid request was refused: %s"
      r.Server.rej_reason

(* a repeated form field is refused before the download, so the
   download breaker never hears of it *)
let test_repeated_field_is_a_refusal () =
  let breaker = Breaker.create ~name:"download" ~seed:9 () in
  let server = Server.create ~vendor:"test-vendor" ~breaker () in
  ignore (Server.publish server Catalog.kcm);
  Server.register_user server ~user:"eve" ~tier:License.Licensed;
  Server.register_user server ~user:"bob" ~tier:License.Licensed;
  for i = 0 to 2 do
    match
      Server.user_request server ~now:(0.1 *. float_of_int i) ~user:"eve"
        ~ip_name:"VirtexKCMMultiplier"
        ~params:[ ("multiplicand_width", "4"); ("multiplicand_width", "8") ]
        ~link:Download.dsl_1m ()
    with
    | Ok _ -> Alcotest.failf "repeated field %d was served" i
    | Error r ->
      Alcotest.(check string) "names the field"
        "bad parameters for VirtexKCMMultiplier: parameter multiplicand_width \
         given twice"
        r.Server.rej_reason;
      Alcotest.(check bool) "refused, not shed" true (r.Server.rej_shed = None)
  done;
  Alcotest.(check string) "the breaker stays closed" "closed"
    (Breaker.state_name (Breaker.state breaker));
  match
    Server.user_request server ~now:0.5 ~user:"bob" ~ip_name:"VirtexKCMMultiplier"
      ~params:[ ("multiplicand_width", "8") ] ~link:Download.dsl_1m ()
  with
  | Ok _ -> ()
  | Error r ->
    Alcotest.failf "another user's valid request was refused: %s" r.Server.rej_reason

(* whatever a form holds, the front door answers with a session or a
   typed refusal: each field is a schema parameter (or a stray name)
   with a value in or just outside its range, or junk *)
let prop_user_request_never_raises =
  let server = Server.create ~vendor:"test-vendor" () in
  List.iter (fun ip -> ignore (Server.publish server ip)) Catalog.all;
  Server.register_user server ~user:"alice" ~tier:License.Licensed;
  let value_gen = function
    | Ip_module.Int_param { min_value; max_value; _ } ->
      QCheck.Gen.(map string_of_int (int_range (min_value - 2) (max_value + 2)))
    | Ip_module.Bool_param _ ->
      QCheck.Gen.oneofl [ "true"; "false"; "maybe" ]
    | Ip_module.Choice_param { choices; _ } ->
      QCheck.Gen.oneofl ("none" :: choices)
  in
  let field_gen ip =
    QCheck.Gen.(
      frequency
        [ ( 9,
            oneofl ip.Ip_module.params >>= fun (name, kind) ->
            map (fun v -> (name, v)) (value_gen kind) );
          (1, pair (oneofl [ "bogus"; "" ]) (string_size (int_bound 4))) ])
  in
  let form_gen =
    QCheck.Gen.(
      oneofl Catalog.all >>= fun ip ->
      map (fun fields -> (ip, fields)) (list_size (int_bound 4) (field_gen ip)))
  in
  let print (ip, fields) =
    Printf.sprintf "%s {%s}" ip.Ip_module.ip_name
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) fields))
  in
  QCheck.Test.make ~count:150 ~name:"user_request never raises on any form"
    (QCheck.make ~print form_gen)
    (fun (ip, params) ->
       match
         Server.user_request server ~now:0.0 ~user:"alice"
           ~ip_name:ip.Ip_module.ip_name ~params
           ~link:Download.dsl_1m ()
       with
       | Ok _ | Error _ -> true)

let test_server_breaker_trips_and_recovers () =
  let registry = Metrics.create "t" in
  let breaker = Breaker.create ~metrics:registry ~name:"download" ~seed:9 () in
  let server =
    Server.create ~vendor:"test-vendor" ~cache_cap:1 ~breaker ~metrics:registry
      ()
  in
  ignore (Server.publish server Catalog.kcm);
  Server.register_user server ~user:"alice" ~tier:License.Licensed;
  let faults = Fault.only Fault.Drop ~rate:0.97 ~seed:5 in
  let policy =
    { Download.default_fetch_policy with Download.max_attempts = 1 }
  in
  let now = ref 0.0 in
  let attempts = ref 0 in
  while Breaker.state breaker <> Breaker.Open && !attempts < 12 do
    incr attempts;
    now := !now +. 0.1;
    ignore
      (Server.user_request server ~now:!now ~user:"alice"
         ~ip_name:"VirtexKCMMultiplier" ~link:Download.dsl_1m ~faults ~policy
         ())
  done;
  Alcotest.check breaker_state "the download storm trips the breaker"
    Breaker.Open (Breaker.state breaker);
  (* open circuit: fast fail, typed shed, retry hint, counted *)
  let before = counter_value registry "request_failures_total" in
  (match Server.user_request server ~now:(!now +. 0.01) ~user:"alice"
           ~ip_name:"VirtexKCMMultiplier" ~link:Download.dsl_1m ()
   with
   | Ok _ -> Alcotest.fail "an open breaker must refuse"
   | Error r ->
     Alcotest.(check bool) "typed as breaker-open" true
       (r.Server.rej_shed = Some Admission.Breaker_open);
     Alcotest.(check bool) "with a retry hint" true
       (r.Server.rej_retry_after_s <> None));
  Alcotest.(check int) "the refusal counted" (before + 1)
    (counter_value registry "request_failures_total");
  (* past the worst-case probe delay, clean probes close the circuit *)
  let probe request_now =
    match Server.user_request server ~now:request_now ~user:"alice"
            ~ip_name:"VirtexKCMMultiplier" ~link:Download.dsl_1m ()
    with
    | Ok _ -> ()
    | Error r -> Alcotest.failf "clean probe failed: %s" r.Server.rej_reason
  in
  probe (!now +. 2.6);
  probe (!now +. 2.7);
  Alcotest.check breaker_state "the breaker recovered" Breaker.Closed
    (Breaker.state breaker)

(* {1 the atomic-admission property} *)

let prop_shed_leaves_no_trace =
  QCheck.Test.make ~count:40
    ~name:"a shed request leaves the server digest byte-identical"
    QCheck.(pair (int_bound 1000) (int_range 0 5))
    (fun (seed, warmups) ->
       let make () =
         let server = Server.create ~vendor:"twin" () in
         ignore (Server.publish server Catalog.kcm);
         ignore (Server.publish server Catalog.fir);
         Server.register_user server ~user:"alice" ~tier:License.Licensed;
         Server.register_user server ~user:"bob" ~tier:License.Passive;
         server
       in
       let a = make () and b = make () in
       let users = [| "alice"; "bob" |] in
       let ips = [| "VirtexKCMMultiplier"; "FirFilter" |] in
       (* identical random warm-up traffic on both twins *)
       let warm server =
         for i = 0 to warmups - 1 do
           ignore
             (Server.user_request server ~now:(float_of_int i)
                ~user:users.((seed + i) mod 2)
                ~ip_name:ips.((seed + (3 * i)) mod 2)
                ~link:Download.dsl_1m ())
         done
       in
       warm a;
       warm b;
       (* a saturated controller: one held slot, max_inflight 1 *)
       let admission =
         Admission.create
           ~config:{ Admission.default_config with Admission.max_inflight = 1 }
           ()
       in
       (match
          Admission.admit_now admission ~now:0.0 ~cls:Admission.Browse
            ~tier:License.Vendor ~user:"holder" ()
        with
        | Ok _ -> ()
        | Error _ -> QCheck.Test.fail_report "holder not admitted");
       (* the shed request hits only twin [a]; twin [b] never sees it *)
       match
         Server.user_request a ~admission ~now:100.0
           ~user:users.(seed mod 2) ~ip_name:ips.(seed mod 2)
           ~link:Download.dsl_1m ()
       with
       | Ok _ -> QCheck.Test.fail_report "the saturated controller admitted"
       | Error r ->
         r.Server.rej_shed <> None
         && String.equal (Server.state_digest a) (Server.state_digest b))

(* {1 chaos invariants} *)

let chaos_seeds = [ 1; 2; 3; 42; 1234 ]

let test_chaos_invariants () =
  List.iter
    (fun scenario ->
       List.iter
         (fun seed ->
            let report = Chaos.run ~seed scenario in
            List.iter
              (fun inv ->
                 Alcotest.(check bool)
                   (Printf.sprintf "%s seed %d: %s (%s)"
                      scenario.Chaos.scenario_name seed inv.Chaos.inv_name
                      inv.Chaos.inv_detail)
                   true inv.Chaos.inv_pass)
              report.Chaos.invariants;
            (* shed requests never exceed the typed tallies *)
            let typed =
              List.fold_left
                (fun acc (_, n) -> acc + n)
                0 report.Chaos.shed_by_reason
            in
            Alcotest.(check int)
              (Printf.sprintf "%s seed %d: sheds all typed"
                 scenario.Chaos.scenario_name seed)
              typed
              (report.Chaos.offered - report.Chaos.ok - report.Chaos.failed))
         chaos_seeds)
    Chaos.scenarios

let test_chaos_replay_bit_identical () =
  List.iter
    (fun scenario ->
       List.iter
         (fun seed ->
            let first = Chaos.report_to_text (Chaos.run ~seed scenario) in
            let second = Chaos.report_to_text (Chaos.run ~seed scenario) in
            Alcotest.(check string)
              (Printf.sprintf "%s seed %d replays bit-identical"
                 scenario.Chaos.scenario_name seed)
              first second)
         chaos_seeds)
    Chaos.scenarios

let suite =
  [ Alcotest.test_case "admit-now roundtrip closes accounting" `Quick
      test_admit_now_roundtrip;
    Alcotest.test_case "full queues shed with a hint" `Quick
      test_queue_cap_sheds;
    Alcotest.test_case "higher tiers preempt lower ones" `Quick
      test_tier_preemption;
    Alcotest.test_case "queued work sheds on deadline expiry" `Quick
      test_deadline_expiry;
    Alcotest.test_case "the brownout ladder degrades in steps" `Quick
      test_brownout_ladder;
    Alcotest.test_case "admit-now respects the backlog" `Quick
      test_admit_now_respects_backlog;
    Alcotest.test_case "breaker lifecycle closed-open-half-open" `Quick
      test_breaker_lifecycle;
    Alcotest.test_case "a failed probe re-opens the breaker" `Quick
      test_breaker_probe_failure_reopens;
    Alcotest.test_case "probe schedule is seed-deterministic" `Quick
      test_breaker_probe_determinism;
    Alcotest.test_case "expired sessions reap before the quota check" `Quick
      test_reap_before_quota;
    Alcotest.test_case "every request refusal is counted" `Quick
      test_failure_paths_counted;
    Alcotest.test_case "a generator raise is a typed refusal" `Quick
      test_generator_raise_is_a_refusal;
    Alcotest.test_case "a repeated form field is a typed refusal" `Quick
      test_repeated_field_is_a_refusal;
    Alcotest.test_case "server breaker trips and recovers" `Quick
      test_server_breaker_trips_and_recovers;
    Alcotest.test_case "chaos invariants hold across seeds" `Slow
      test_chaos_invariants;
    Alcotest.test_case "chaos replays are bit-identical" `Slow
      test_chaos_replay_bit_identical ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_shed_leaves_no_trace; prop_user_request_never_raises ]
