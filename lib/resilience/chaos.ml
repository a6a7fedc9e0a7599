module Admission = Jhdl_resilience.Admission
module Breaker = Jhdl_resilience.Breaker
module Server = Jhdl_webserver.Server
module Session_manager = Jhdl_webserver.Session_manager
module Catalog = Jhdl_applet.Catalog
module License = Jhdl_applet.License
module Download = Jhdl_bundle.Download
module Cosim = Jhdl_netproto.Cosim
module Network = Jhdl_netproto.Network
module Endpoint = Jhdl_netproto.Endpoint
module Fault = Jhdl_faults.Fault
module Prng = Jhdl_faults.Prng
module Metrics = Jhdl_metrics.Metrics
module Cell = Jhdl_circuit.Cell
module Wire = Jhdl_circuit.Wire
module Design = Jhdl_circuit.Design
module Types = Jhdl_circuit.Types
module Simulator = Jhdl_sim.Simulator
module Counter = Jhdl_modgen.Counter

let log_src = Logs.Src.create "jhdl.chaos" ~doc:"chaos scenario scheduler"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* scenario grammar                                                    *)
(* ------------------------------------------------------------------ *)

type event =
  | Crash_burst of int
  | Fault_spike of float
  | Slow_clients of float
  | Quota_storm of int
  | Republish

let event_name = function
  | Crash_burst n -> Printf.sprintf "crash-burst(%d)" n
  | Fault_spike r -> Printf.sprintf "fault-spike(%.2f)" r
  | Slow_clients s -> Printf.sprintf "slow-clients(%.2fs)" s
  | Quota_storm n -> Printf.sprintf "quota-storm(%d)" n
  | Republish -> "republish"

type phase = {
  label : string;
  duration_s : float;
  load_rps : float;
  events : event list;
}

type scenario = {
  scenario_name : string;
  scenario_doc : string;
  phases : phase list;
}

let calm label duration_s load_rps =
  { label; duration_s; load_rps; events = [] }

let scenarios =
  [ { scenario_name = "smoke";
      scenario_doc = "sub-second pinned-seed storm: every event at once";
      phases =
        [ calm "baseline" 2.0 8.0;
          { label = "storm";
            duration_s = 2.0;
            load_rps = 30.0;
            events =
              [ Fault_spike 0.25; Crash_burst 2; Quota_storm 9; Republish ] };
          calm "recovery" 4.0 8.0 ] };
    { scenario_name = "crash-burst";
      scenario_doc = "endpoint processes die repeatedly mid-cosim";
      phases =
        [ calm "baseline" 3.0 8.0;
          { label = "storm";
            duration_s = 3.0;
            load_rps = 10.0;
            events = [ Crash_burst 5 ] };
          calm "recovery" 4.0 8.0 ] };
    { scenario_name = "loss-spike";
      scenario_doc = "download path loses and corrupts under load";
      phases =
        [ calm "baseline" 3.0 8.0;
          { label = "storm";
            duration_s = 4.0;
            load_rps = 12.0;
            events = [ Fault_spike 0.35 ] };
          calm "recovery" 4.0 8.0 ] };
    { scenario_name = "slow-clients";
      scenario_doc = "trickling clients stall service while load spikes";
      phases =
        [ calm "baseline" 3.0 8.0;
          { label = "storm";
            duration_s = 4.0;
            load_rps = 40.0;
            events = [ Slow_clients 0.15 ] };
          calm "recovery" 4.0 8.0 ] };
    { scenario_name = "quota-storm";
      scenario_doc = "a burst of users exhausts the session quota";
      phases =
        [ calm "baseline" 3.0 8.0;
          { label = "storm";
            duration_s = 3.0;
            load_rps = 10.0;
            events = [ Quota_storm 24 ] };
          calm "recovery" 4.0 8.0 ] };
    { scenario_name = "republish-load";
      scenario_doc = "the vendor republishes while the link degrades";
      phases =
        [ calm "baseline" 3.0 8.0;
          { label = "storm";
            duration_s = 4.0;
            load_rps = 30.0;
            events = [ Republish; Fault_spike 0.15 ] };
          calm "recovery" 4.0 8.0 ] } ]

let scenario_names () = List.map (fun s -> s.scenario_name) scenarios

let find_scenario name =
  List.find_opt (fun s -> String.equal s.scenario_name name) scenarios

let sweep ?label ~load_rps ~fault_rate () =
  let name =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "sweep-%.0frps-%.2floss" load_rps fault_rate
  in
  { scenario_name = name;
    scenario_doc = "parametric load x fault-rate storm (bench R1)";
    phases =
      [ calm "baseline" 3.0 8.0;
        { label = "storm";
          duration_s = 4.0;
          load_rps;
          events =
            (if fault_rate > 0.0 then [ Fault_spike fault_rate ] else []) };
        calm "recovery" 4.0 8.0 ] }

(* ------------------------------------------------------------------ *)
(* reports                                                             *)
(* ------------------------------------------------------------------ *)

type invariant = {
  inv_name : string;
  inv_pass : bool;
  inv_detail : string;
}

type phase_tally = {
  pt_label : string;
  pt_offered : int;
  pt_ok : int;
  pt_shed : int;
  pt_failed : int;
}

type report = {
  rep_scenario : string;
  rep_seed : int;
  offered : int;
  ok : int;
  failed : int;
  shed_by_reason : (Admission.shed_reason * int) list;
  phase_tallies : phase_tally list;
  baseline_goodput : float;
  recovery_goodput : float;
  p95_queue_wait_ms : float;
  breaker_opened : int;
  cosim_breaker_opened : int;
  resumes : int;
  session_crashes : int;
  sessions_opened : int;
  sessions_reaped : int;
  sessions_preserved : int;
  sessions_lost : int;
  quota_rejections : int;
  invariants : invariant list;
}

let passed report = List.for_all (fun i -> i.inv_pass) report.invariants

(* ------------------------------------------------------------------ *)
(* the world under test                                                *)
(* ------------------------------------------------------------------ *)

let ip_name = "VirtexKCMMultiplier"
let service_interval = 0.05 (* the server serves 20 requests per second *)

(* admission tuned so storms genuinely shed: short deadline budgets,
   bounded queues, the default brownout ladder *)
let chaos_admission_config =
  { Admission.default_config with
    Admission.browse = { Admission.queue_cap = 16; deadline_budget_s = 0.5 };
    download = { Admission.queue_cap = 32; deadline_budget_s = 1.0 };
    elaborate = { Admission.queue_cap = 4; deadline_budget_s = 10.0 };
    cosim = { Admission.queue_cap = 16; deadline_budget_s = 1.0 } }

let dl_breaker_config =
  { Breaker.failure_threshold = 3;
    open_for_s = 1.0;
    probe_jitter = 0.25;
    half_open_successes = 2 }

let sm_config =
  { Session_manager.heartbeat_timeout_s = 3.0;
    idle_timeout_s = 10.0;
    max_sessions_per_user = 2 }

(* the customer mix: every tier represented, so tier-aware shedding has
   victims and survivors *)
let users =
  [ ("pas-1", License.Passive);
    ("pas-2", License.Passive);
    ("eval-1", License.Evaluator);
    ("eval-2", License.Evaluator);
    ("lic-1", License.Licensed);
    ("lic-2", License.Licensed) ]

let counter_endpoint ~name =
  let top = Cell.root ~name:"chaos_top" () in
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

type world = {
  seed : int;
  rng_mix : Prng.t; (* request-class draws *)
  rng_user : Prng.t; (* which customer arrives *)
  server : Server.t;
  dl_breaker : Breaker.t;
  adm : Admission.t;
  sm : Session_manager.t;
  cosim : Cosim.t;
  cs_breaker : Breaker.t;
  storm_endpoint : Endpoint.t;
  steady_keys : string list;
  phase_bounds : (float * float * string) list; (* (start, end], label *)
  (* per-phase fault posture, reset as each phase opens *)
  mutable faults_base : Fault.config option;
  mutable policy : Download.fetch_policy option;
  mutable stall_s : float;
  mutable pending_crashes : int;
  (* engine state *)
  mutable next_service_at : float;
  mutable req_index : int;
  mutable waits_ms : float list;
  mutable ok_times : float list; (* submitted_at of successful requests *)
  mutable failed_times : float list;
}

let make_world ?(metrics = Metrics.nil) ~seed scenario =
  let rng = Prng.create seed in
  let rng_mix = Prng.split rng in
  let rng_user = Prng.split rng in
  let dl_breaker =
    Breaker.create ~config:dl_breaker_config ~metrics ~name:"download"
      ~seed:(seed + 1) ()
  in
  (* a tiny browser-cache cap keeps the download path hot: revisits
     re-fetch jars instead of hitting a warm cache, so fault spikes
     reach the wire (and the breaker) on every request *)
  let server =
    Server.create ~vendor:"chaos-vendor" ~cache_cap:1 ~breaker:dl_breaker
      ~metrics ()
  in
  let _ = Server.publish server Catalog.kcm in
  List.iter (fun (user, tier) -> Server.register_user server ~user ~tier) users;
  let adm = Admission.create ~config:chaos_admission_config ~metrics () in
  let sm = Session_manager.create ~config:sm_config ~metrics () in
  let cosim = Cosim.create () in
  let cs_breaker = Breaker.create ~metrics ~name:"cosim" ~seed:(seed + 2) () in
  let dut = counter_endpoint ~name:"dut" in
  Cosim.attach cosim
    ~faults:{ Fault.none with Fault.drop_rate = 0.05; seed = seed + 3 }
    ~session:
      { Cosim.resume_attempts = 3; checkpoint_every = 8; heartbeat_every = 0 }
    ~breaker:cs_breaker ~metrics dut Network.campus;
  let storm_endpoint = counter_endpoint ~name:"storm" in
  (* two paying customers hold steady supervised sessions for the whole
     run; the conservation invariant must find them preserved *)
  let steady_keys =
    List.filter_map
      (fun user ->
         match
           Session_manager.open_session sm ~user ~now:0.0 storm_endpoint
         with
         | Ok key -> Some key
         | Error _ -> None)
      [ "lic-1"; "lic-2" ]
  in
  let phase_bounds =
    let _, bounds =
      List.fold_left
        (fun (t0, acc) p ->
           (t0 +. p.duration_s, (t0, t0 +. p.duration_s, p.label) :: acc))
        (0.0, []) scenario.phases
    in
    List.rev bounds
  in
  { seed;
    rng_mix;
    rng_user;
    server;
    dl_breaker;
    adm;
    sm;
    cosim;
    cs_breaker;
    storm_endpoint;
    steady_keys;
    phase_bounds;
    faults_base = None;
    policy = None;
    stall_s = 0.0;
    pending_crashes = 0;
    next_service_at = service_interval;
    req_index = 0;
    waits_ms = [];
    ok_times = [];
    failed_times = [] }

(* per-request fault config: the spike's rates with a seed derived from
   the request index, so one request's retry count never shifts
   another's faults — and the whole storm replays from [seed] *)
let request_faults w =
  match w.faults_base with
  | None -> None
  | Some base -> Some { base with Fault.seed = (w.seed * 7919) + w.req_index }

let draw_class w =
  match Prng.int w.rng_mix 10 with
  | 0 | 1 | 2 | 3 | 4 | 5 | 6 -> Admission.Jar_download
  | 7 | 8 -> Admission.Browse
  | _ -> Admission.Cosim_exchange

let draw_user w = List.nth users (Prng.int w.rng_user (List.length users))

(* dispatch one started ticket against the real stack *)
let dispatch w ~now (ticket : Admission.ticket) =
  w.waits_ms <- ((now -. ticket.Admission.submitted_at) *. 1e3) :: w.waits_ms;
  let ok () = w.ok_times <- ticket.Admission.submitted_at :: w.ok_times in
  let failed () =
    w.failed_times <- ticket.Admission.submitted_at :: w.failed_times
  in
  match ticket.Admission.cls with
  | Admission.Browse ->
    ignore (Server.catalog w.server);
    Admission.complete w.adm ~now ticket;
    ok ()
  | Admission.Elaborate ->
    (match Server.publish_checked w.server Catalog.kcm with
     | Ok _ -> ok ()
     | Error _ -> failed ());
    Admission.complete w.adm ~now ticket
  | Admission.Cosim_exchange ->
    if w.pending_crashes > 0 then begin
      w.pending_crashes <- w.pending_crashes - 1;
      Cosim.crash_at w.cosim ~box:"dut" ~exchange:1
    end;
    (match Cosim.cycle w.cosim with
     | () -> ok ()
     | exception Cosim.Exchange_failed _ -> failed ());
    Admission.complete w.adm ~now ticket
  | Admission.Jar_download ->
    (match
       Server.serve_admitted w.server ~admission:w.adm ~ticket ~now ~ip_name
         ~link:Download.dsl_1m ?faults:(request_faults w) ?policy:w.policy ()
     with
     | Ok _ -> ok ()
     | Error { Server.rej_shed = Some _; _ } ->
       (* given up inside the server with a typed reason; it is in the
          shed log, not the failure tally *)
       ()
     | Error _ -> failed ())

let run_services w ~until =
  while w.next_service_at <= until do
    let snow = w.next_service_at in
    (match Admission.start w.adm ~now:snow with
     | Some ticket -> dispatch w ~now:snow ticket
     | None -> ());
    w.next_service_at <- snow +. service_interval +. w.stall_s
  done

let apply_events w ~now phase =
  List.iter
    (fun ev ->
       Log.info (fun m -> m "phase %s: %s" phase.label (event_name ev));
       match ev with
       | Fault_spike rate ->
         w.faults_base <-
           Some
             { Fault.none with
               Fault.drop_rate = rate;
               corrupt_rate = rate *. 0.5;
               seed = 0 };
         (* a saturated path does not get browser-grade retries *)
         w.policy <- Some Download.single_attempt
       | Slow_clients stall -> w.stall_s <- stall
       | Crash_burst n -> w.pending_crashes <- w.pending_crashes + n
       | Quota_storm n ->
         (* three storm users hammer open_session and then never
            heartbeat: quota rejections now, reaps later *)
         for i = 0 to n - 1 do
           let user = Printf.sprintf "storm-%d" (i mod 3) in
           ignore
             (Session_manager.open_session w.sm ~user ~now
                w.storm_endpoint)
         done
       | Republish ->
         (match
            Admission.submit w.adm ~now ~cls:Admission.Elaborate
              ~tier:License.Vendor ~user:"vendor" ()
          with
          | Ok _ -> ()
          | Error _ -> ()))
    phase.events

let run_phase w ~phase_start phase =
  (* each phase resets the fault posture; events re-arm it *)
  w.faults_base <- None;
  w.policy <- None;
  w.stall_s <- 0.0;
  apply_events w ~now:phase_start phase;
  let n =
    max 1 (int_of_float (Float.round (phase.duration_s *. phase.load_rps)))
  in
  let interval = phase.duration_s /. float_of_int n in
  for i = 0 to n - 1 do
    let now = phase_start +. (interval *. float_of_int (i + 1)) in
    ignore (Session_manager.tick w.sm ~now);
    List.iter
      (fun key -> ignore (Session_manager.heartbeat w.sm ~now key))
      w.steady_keys;
    run_services w ~until:now;
    let cls = draw_class w in
    let user, tier = draw_user w in
    w.req_index <- w.req_index + 1;
    ignore (Admission.submit w.adm ~now ~cls ~tier ~user ())
  done;
  phase_start +. phase.duration_s

(* after the last phase: keep the service clock running until every
   queued request was served or shed (deadlines clear stragglers) *)
let drain w ~from =
  let now = ref from in
  let guard = ref 0 in
  let open_work () =
    let st = Admission.stats w.adm in
    st.Admission.queued + st.Admission.inflight > 0
  in
  while open_work () && !guard < 100_000 do
    incr guard;
    now := !now +. service_interval;
    run_services w ~until:!now
  done

(* ------------------------------------------------------------------ *)
(* invariants                                                          *)
(* ------------------------------------------------------------------ *)

let inv name pass detail =
  { inv_name = name; inv_pass = pass; inv_detail = detail }

let accounting_invariant w ~offered ~ok ~failed =
  let st = Admission.stats w.adm in
  let shed = Admission.shed_total w.adm in
  let pass =
    Admission.accounting_closes w.adm
    && st.Admission.queued = 0
    && st.Admission.inflight = 0
    && st.Admission.submitted = offered
    && ok + failed + shed = offered
  in
  inv "accounting-closes" pass
    (Printf.sprintf
       "submitted=%d ok=%d failed=%d shed=%d queued=%d inflight=%d"
       st.Admission.submitted ok failed shed st.Admission.queued
       st.Admission.inflight)

let conservation_invariant ~sm_stats ~reaped
    ~(shutdown : Session_manager.shutdown_report) =
  let preserved = List.length shutdown.Session_manager.preserved in
  let lost = List.length shutdown.Session_manager.lost in
  let pass = sm_stats.Session_manager.opened = reaped + preserved + lost in
  inv "sessions-conserved" pass
    (Printf.sprintf "opened=%d reaped=%d preserved=%d lost=%d"
       sm_stats.Session_manager.opened reaped preserved lost)

(* every Open episode must end within the probe budget (plus the grace
   of one serving gap); the run must not end with a stuck-open circuit *)
let breaker_invariant name b ~grace =
  let cfg = Breaker.config b in
  let budget =
    (cfg.Breaker.open_for_s *. (1.0 +. cfg.Breaker.probe_jitter)) +. grace
  in
  let rec episodes = function
    | (t_open, Breaker.Open) :: rest ->
      (match rest with
       | (t_next, _) :: _ -> t_next -. t_open <= budget && episodes rest
       | [] -> false)
    | _ :: rest -> episodes rest
    | [] -> true
  in
  let pass = Breaker.state b <> Breaker.Open && episodes (Breaker.history b) in
  inv
    (Printf.sprintf "breaker-%s-recovers" name)
    pass
    (Printf.sprintf "opened=%d final=%s budget=%.2fs" (Breaker.times_opened b)
       (Breaker.state_name (Breaker.state b))
       budget)

let goodput_invariant ~baseline ~recovery =
  let pass = baseline <= 0.0 || recovery >= 0.9 *. baseline in
  inv "goodput-recovered" pass
    (Printf.sprintf "baseline=%.3f recovery=%.3f floor=%.3f" baseline recovery
       (0.9 *. baseline))

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let percentile_95 samples =
  match List.sort compare samples with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    List.nth sorted (int_of_float (0.95 *. float_of_int (n - 1)))

let count_in times ~lo ~hi =
  List.length (List.filter (fun t -> t > lo && t <= hi) times)

let run ?metrics ~seed scenario =
  let w = make_world ?metrics ~seed scenario in
  let t_end =
    List.fold_left (fun t0 phase -> run_phase w ~phase_start:t0 phase) 0.0
      scenario.phases
  in
  drain w ~from:t_end;
  let shutdown = Session_manager.shutdown w.sm in
  let sm_stats = Session_manager.stats w.sm in
  let reaped = List.length (Session_manager.reap_report w.sm) in
  let st = Admission.stats w.adm in
  let shed_log = Admission.shed_log w.adm in
  let ok = List.length w.ok_times in
  let failed = List.length w.failed_times in
  let offered = st.Admission.submitted in
  let shed_times =
    List.map (fun s -> s.Admission.shed_ticket.Admission.submitted_at) shed_log
  in
  let phase_tallies =
    List.map
      (fun (lo, hi, label) ->
         let shed = count_in shed_times ~lo ~hi in
         let ok = count_in w.ok_times ~lo ~hi in
         let failed = count_in w.failed_times ~lo ~hi in
         { pt_label = label;
           pt_offered = ok + failed + shed;
           pt_ok = ok;
           pt_shed = shed;
           pt_failed = failed })
      w.phase_bounds
  in
  let goodput_of ~lo ~hi =
    let ok = count_in w.ok_times ~lo ~hi in
    let total =
      ok + count_in w.failed_times ~lo ~hi + count_in shed_times ~lo ~hi
    in
    if total = 0 then 1.0 else float_of_int ok /. float_of_int total
  in
  let baseline_goodput =
    match w.phase_bounds with
    | (lo, hi, _) :: _ -> goodput_of ~lo ~hi
    | [] -> 1.0
  in
  let recovery_goodput =
    (* the steady state after recovery: the back half of the final calm
       phase, past the breaker's last probe *)
    match List.rev w.phase_bounds with
    | (lo, hi, _) :: _ -> goodput_of ~lo:((lo +. hi) /. 2.0) ~hi
    | [] -> 1.0
  in
  let invariants =
    [ accounting_invariant w ~offered ~ok ~failed;
      conservation_invariant ~sm_stats ~reaped ~shutdown;
      breaker_invariant "download" w.dl_breaker ~grace:2.0;
      breaker_invariant "cosim" w.cs_breaker ~grace:2.0;
      goodput_invariant ~baseline:baseline_goodput ~recovery:recovery_goodput
    ]
  in
  { rep_scenario = scenario.scenario_name;
    rep_seed = seed;
    offered;
    ok;
    failed;
    shed_by_reason = st.Admission.shed_by_reason;
    phase_tallies;
    baseline_goodput;
    recovery_goodput;
    p95_queue_wait_ms = percentile_95 w.waits_ms;
    breaker_opened = Breaker.times_opened w.dl_breaker;
    cosim_breaker_opened = Breaker.times_opened w.cs_breaker;
    resumes = Cosim.total_resumes w.cosim;
    session_crashes = Cosim.total_session_crashes w.cosim;
    sessions_opened = sm_stats.Session_manager.opened;
    sessions_reaped = reaped;
    sessions_preserved = List.length shutdown.Session_manager.preserved;
    sessions_lost = List.length shutdown.Session_manager.lost;
    quota_rejections = sm_stats.Session_manager.quota_rejections;
    invariants }

let report_to_text r =
  let buf = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "chaos %s (seed %d)" r.rep_scenario r.rep_seed;
  line "  offered %d | ok %d | failed %d | shed %d" r.offered r.ok r.failed
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.shed_by_reason);
  List.iter
    (fun (reason, n) ->
       if n > 0 then
         line "    shed %-17s %d" (Admission.shed_reason_name reason) n)
    r.shed_by_reason;
  List.iter
    (fun pt ->
       line "  phase %-10s offered %3d | ok %3d | shed %3d | failed %3d"
         pt.pt_label pt.pt_offered pt.pt_ok pt.pt_shed pt.pt_failed)
    r.phase_tallies;
  line "  goodput baseline %.3f -> recovery %.3f | p95 queue wait %.1f ms"
    r.baseline_goodput r.recovery_goodput r.p95_queue_wait_ms;
  line
    "  breaker: download opened %d, cosim opened %d | crashes %d, resumes %d"
    r.breaker_opened r.cosim_breaker_opened r.session_crashes r.resumes;
  line
    "  sessions: opened %d, reaped %d, preserved %d, lost %d, quota-rejected %d"
    r.sessions_opened r.sessions_reaped r.sessions_preserved r.sessions_lost
    r.quota_rejections;
  List.iter
    (fun i ->
       line "  %s %-20s %s"
         (if i.inv_pass then "PASS" else "FAIL")
         i.inv_name i.inv_detail)
    r.invariants;
  Buffer.contents buf
