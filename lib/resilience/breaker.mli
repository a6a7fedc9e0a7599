(** Circuit breakers for the delivery path.

    A breaker sits in front of a dependency that can fail repeatedly
    under a fault storm — the jar download path
    ({!Jhdl_bundle.Download.fetch_jars}), the server's request
    handling, a co-simulation channel — and converts cascades of slow
    failures into fast, typed refusals: after [failure_threshold]
    consecutive failures the breaker {e opens}; while open, calls are
    refused with a retry-after hint; after a seeded probe delay it
    admits a probe ({e half-open}); [half_open_successes] consecutive
    probe successes close it again, and any probe failure re-opens it.

    Probe scheduling is deterministic: the delay is
    [open_for_s * (1 ± probe_jitter)] with the jitter drawn from a
    {!Jhdl_faults.Prng} stream seeded at {!create}, so a chaos run
    replays its breaker transitions bit-for-bit. Time is the caller's
    ([~now]), as everywhere in the supervision stack. *)

type state =
  | Closed
  | Open
  | Half_open

val state_name : state -> string

type config = {
  failure_threshold : int;  (** consecutive failures that trip the breaker *)
  open_for_s : float;  (** base probe delay while open *)
  probe_jitter : float;
      (** seeded jitter as a fraction of [open_for_s], in [0, 1) *)
  half_open_successes : int;  (** probe successes needed to close *)
}

(** [default_config] — trips after 3 consecutive failures, probes after
    2 s ± 25%, closes after 2 probe successes. *)
val default_config : config

type t

(** [create ?config ?metrics ~name ~seed ()] — a closed breaker. A live
    [metrics] registry gains, under [<name>.] prefixes:
    [breaker_opened_total], [breaker_transitions_total],
    [breaker_probes_total] counters and a [breaker_state] probe
    (0 closed, 1 half-open, 2 open). Raises [Invalid_argument] on a
    non-positive threshold or success count, non-positive [open_for_s],
    or jitter outside [0, 1). *)
val create :
  ?config:config ->
  ?metrics:Jhdl_metrics.Metrics.t ->
  name:string ->
  seed:int ->
  unit ->
  t

val name : t -> string
val config : t -> config
val state : t -> state

(** [allow t ~now] — may a call proceed? [Closed] and [Half_open]
    always allow; [Open] refuses until the probe is due, at which point
    the breaker transitions to [Half_open] and allows the probe. *)
val allow : t -> now:float -> bool

(** [retry_after_s t ~now] — seconds until the next probe is due;
    [None] unless the breaker is open. *)
val retry_after_s : t -> now:float -> float option

val on_success : t -> now:float -> unit
val on_failure : t -> now:float -> unit

(** [times_opened t] — how often the breaker tripped. *)
val times_opened : t -> int

(** [history t] — every state transition as [(when, new state)],
    oldest first. Deterministic under a fixed seed; the chaos
    invariants read recovery times off it. *)
val history : t -> (float * state) list
