module Prng = Jhdl_faults.Prng
module Metrics = Jhdl_metrics.Metrics

type state =
  | Closed
  | Open
  | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type config = {
  failure_threshold : int;
  open_for_s : float;
  probe_jitter : float;
  half_open_successes : int;
}

let default_config =
  { failure_threshold = 3;
    open_for_s = 2.0;
    probe_jitter = 0.25;
    half_open_successes = 2 }

type bm = {
  bm_opened : Metrics.counter;
  bm_transitions : Metrics.counter;
  bm_probes : Metrics.counter;
}

type t = {
  breaker_name : string;
  cfg : config;
  rng : Prng.t;
  mutable st : state;
  mutable consecutive_failures : int;
  mutable probe_successes : int;
  mutable probe_at : float; (* next probe time while open *)
  mutable opened_count : int;
  mutable transition_log : (float * state) list; (* newest first *)
  bm : bm;
}

let create ?(config = default_config) ?(metrics = Metrics.nil) ~name ~seed () =
  if config.failure_threshold < 1 then
    invalid_arg "Breaker.create: failure_threshold must be positive";
  if config.half_open_successes < 1 then
    invalid_arg "Breaker.create: half_open_successes must be positive";
  if config.open_for_s <= 0.0 then
    invalid_arg "Breaker.create: open_for_s must be positive";
  if config.probe_jitter < 0.0 || config.probe_jitter >= 1.0 then
    invalid_arg "Breaker.create: probe_jitter must be in [0, 1)";
  let bm =
    { bm_opened = Metrics.counter metrics (name ^ ".breaker_opened_total");
      bm_transitions =
        Metrics.counter metrics (name ^ ".breaker_transitions_total");
      bm_probes = Metrics.counter metrics (name ^ ".breaker_probes_total") }
  in
  let t =
    { breaker_name = name;
      cfg = config;
      rng = Prng.create seed;
      st = Closed;
      consecutive_failures = 0;
      probe_successes = 0;
      probe_at = 0.0;
      opened_count = 0;
      transition_log = [];
      bm }
  in
  Metrics.probe metrics (name ^ ".breaker_state") (fun () ->
      match t.st with Closed -> 0 | Half_open -> 1 | Open -> 2);
  t

let name t = t.breaker_name
let config t = t.cfg
let state t = t.st

let transition t ~now st =
  if t.st <> st then begin
    t.st <- st;
    t.transition_log <- (now, st) :: t.transition_log;
    Metrics.incr t.bm.bm_transitions
  end

(* probe delay: open_for_s * (1 ± probe_jitter), drawn from the seeded
   stream so replays schedule identical probes *)
let schedule_probe t ~now =
  let jitter =
    t.cfg.probe_jitter *. ((2.0 *. Prng.float t.rng) -. 1.0)
  in
  t.probe_at <- now +. (t.cfg.open_for_s *. (1.0 +. jitter))

let trip t ~now =
  t.opened_count <- t.opened_count + 1;
  Metrics.incr t.bm.bm_opened;
  t.probe_successes <- 0;
  schedule_probe t ~now;
  transition t ~now Open

let allow t ~now =
  match t.st with
  | Closed | Half_open -> true
  | Open ->
    if now >= t.probe_at then begin
      transition t ~now Half_open;
      Metrics.incr t.bm.bm_probes;
      true
    end
    else false

let retry_after_s t ~now =
  match t.st with
  | Closed | Half_open -> None
  | Open -> Some (Float.max 0.0 (t.probe_at -. now))

let on_success t ~now =
  match t.st with
  | Closed -> t.consecutive_failures <- 0
  | Open ->
    (* a success while open means the caller bypassed [allow]; treat it
       as a probe result *)
    transition t ~now Half_open;
    t.probe_successes <- 1;
    if t.probe_successes >= t.cfg.half_open_successes then begin
      t.consecutive_failures <- 0;
      transition t ~now Closed
    end
  | Half_open ->
    t.probe_successes <- t.probe_successes + 1;
    if t.probe_successes >= t.cfg.half_open_successes then begin
      t.consecutive_failures <- 0;
      transition t ~now Closed
    end

let on_failure t ~now =
  match t.st with
  | Closed ->
    t.consecutive_failures <- t.consecutive_failures + 1;
    if t.consecutive_failures >= t.cfg.failure_threshold then trip t ~now
  | Half_open -> trip t ~now
  | Open -> schedule_probe t ~now

let times_opened t = t.opened_count
let history t = List.rev t.transition_log
