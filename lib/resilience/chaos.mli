(** Chaos scenario scheduler for the delivery stack.

    A scenario is a timed sequence of {!phase}s — each a duration, an
    offered load, and a set of fault {!event}s — played against a real
    world: a {!Jhdl_webserver.Server} with a download circuit breaker,
    an {!Jhdl_resilience.Admission} controller (queued dispatch at a
    fixed service rate, so overload genuinely backs up), a
    {!Jhdl_webserver.Session_manager} under heartbeat supervision, and
    a live co-simulation link with its own breaker and crash-safe
    session layer.

    Everything is deterministic: the clock is simulated, every random
    choice draws from a {!Jhdl_faults.Prng} stream derived from the run
    seed, and per-request fault seeds are derived from the request
    index — so [run ~seed] replays bit-for-bit, and
    {!report_to_text} of two same-seed runs compares byte-equal.

    After the storm the engine checks the recovery invariants the
    design doc tabulates (DESIGN §14): typed accounting closes, no
    session vanishes unreported, breakers recover within their probe
    budget, and goodput returns to at least 90% of the no-fault
    baseline. *)

module Admission = Jhdl_resilience.Admission
module Breaker = Jhdl_resilience.Breaker

(** {1 Scenario grammar} *)

type event =
  | Crash_burst of int
      (** endpoint process deaths injected into the co-simulation link
          during the phase (the session layer must resume each) *)
  | Fault_spike of float
      (** download-path loss/corruption at this rate, with
          single-attempt fetches (a saturated CDN does not retry) *)
  | Slow_clients of float
      (** each request holds the server this many extra seconds
          (trickling clients shrink effective service capacity) *)
  | Quota_storm of int
      (** this many session-open attempts from a burst of storm
          users, who then never heartbeat again *)
  | Republish
      (** an [Elaborate] republication of the catalog rides the load *)

type phase = {
  label : string;
  duration_s : float;
  load_rps : float;  (** offered request rate during the phase *)
  events : event list;  (** applied as the phase opens *)
}

type scenario = {
  scenario_name : string;
  scenario_doc : string;
  phases : phase list;
      (** convention: first phase calm (baseline), last phase calm
          (recovery) — the goodput invariant compares the two *)
}

(** The named scenarios: ["smoke"] (sub-second, every event at once),
    ["crash-burst"], ["loss-spike"], ["slow-clients"], ["quota-storm"],
    ["republish-load"]. *)
val scenarios : scenario list

val scenario_names : unit -> string list
val find_scenario : string -> scenario option

(** [sweep ~load_rps ~fault_rate ()] — the parametric bench scenario
    (section R1): calm baseline, a storm phase offering [load_rps]
    under a [fault_rate] loss spike, calm recovery. *)
val sweep : ?label:string -> load_rps:float -> fault_rate:float -> unit ->
  scenario

(** {1 Reports} *)

type invariant = {
  inv_name : string;
  inv_pass : bool;
  inv_detail : string;
}

type phase_tally = {
  pt_label : string;
  pt_offered : int;
  pt_ok : int;  (** completed successfully *)
  pt_shed : int;  (** shed with a typed reason *)
  pt_failed : int;  (** admitted but failed downstream *)
}

type report = {
  rep_scenario : string;
  rep_seed : int;
  offered : int;
  ok : int;
  failed : int;
  shed_by_reason : (Admission.shed_reason * int) list;
      (** [Admission.all_reasons] order *)
  phase_tallies : phase_tally list;
  baseline_goodput : float;  (** ok fraction of the first (calm) phase *)
  recovery_goodput : float;
      (** ok fraction of the second half of the last (calm) phase —
          the steady state after the breaker's final probe closed *)
  p95_queue_wait_ms : float;
  breaker_opened : int;  (** download breaker trips *)
  cosim_breaker_opened : int;
  resumes : int;  (** co-simulation resume handshakes *)
  session_crashes : int;
  sessions_opened : int;
  sessions_reaped : int;
  sessions_preserved : int;
  sessions_lost : int;
  quota_rejections : int;
  invariants : invariant list;
}

(** [run ?metrics ~seed scenario] — play the scenario against a fresh
    world and audit the invariants. Same seed, same report. *)
val run : ?metrics:Jhdl_metrics.Metrics.t -> seed:int -> scenario -> report

(** [passed report] — every invariant held. *)
val passed : report -> bool

(** [report_to_text report] — deterministic rendering: tallies, the
    per-phase table, and one PASS/FAIL line per invariant. *)
val report_to_text : report -> string
