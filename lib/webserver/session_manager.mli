(** Supervised co-simulation sessions on the vendor server.

    The delivery server keeps a registry of live black-box endpoints —
    one per customer co-simulation — and supervises them the way an
    operator would: heartbeat and idle timeouts reap abandoned sessions
    (checkpointing each on the way out), per-user quotas stop one
    customer from monopolizing the simulation farm, and a graceful
    shutdown checkpoints everything that is still alive and reports
    exactly what was preserved.

    Time is the caller's: every operation that ages sessions takes
    [~now] (seconds, any consistent clock), so supervision is
    deterministic in tests and benches. *)

type config = {
  heartbeat_timeout_s : float;
      (** reap a session this long after its last heartbeat; 0 disables *)
  idle_timeout_s : float;
      (** reap a session this long after its last activity; 0 disables *)
  max_sessions_per_user : int;  (** concurrent live sessions per user *)
}

(** [default_config] — 30 s heartbeat timeout, 300 s idle timeout,
    4 sessions per user. *)
val default_config : config

type t

(** Raises [Invalid_argument] when the quota is not positive. A live
    [metrics] registry gains probes over the supervisor's tallies:
    [sessions_live], [sessions_opened_total], [quota_rejections_total],
    [reaped_heartbeat_total], [reaped_idle_total]. *)
val create : ?config:config -> ?metrics:Jhdl_metrics.Metrics.t -> unit -> t

(** A typed refusal: the reason plus, when the server can predict it,
    how long until retrying is worthwhile. *)
type rejection = {
  rej_reason : string;
  rej_retry_after_s : float option;
      (** for quota refusals: seconds until the user's soonest session
          expires on its own ([None] when both timeouts are off) *)
}

(** [open_session t ~user ~now endpoint] — register a live endpoint
    under [user]. Heartbeat- and idle-expired sessions are reaped
    {e before} the quota check (and land in {!reap_report}), so a dead
    session can never block a live user's admission. A typed
    [rejection] (counted in {!stats}, with a [rej_retry_after_s] hint)
    when the user's quota is genuinely full. Returns the session key. *)
val open_session :
  t -> user:string -> now:float -> Jhdl_netproto.Endpoint.t ->
  (string, rejection) result

(** [heartbeat t ~now key] — the client pinged: refreshes both the
    heartbeat and activity clocks. [Error _] for unknown keys. *)
val heartbeat : t -> now:float -> string -> (unit, string) result

(** [activity t ~now key] — the session did real work (an exchange
    reached its endpoint): refreshes the idle clock only. *)
val activity : t -> now:float -> string -> (unit, string) result

val live_sessions : t -> string list
val endpoint : t -> string -> Jhdl_netproto.Endpoint.t option

type reap_reason =
  | Heartbeat_lost
  | Idle

val reap_reason_name : reap_reason -> string

type reaped = {
  reaped_key : string;
  reason : reap_reason;
  checkpoint : (string, string) result;
      (** the parting snapshot blob, or why none could be taken (e.g.
          the endpoint had crashed) *)
}

(** [tick t ~now] — supervision pass: reap every session whose
    heartbeat or idle clock has expired, checkpointing each. Reaped
    sessions leave the registry. *)
val tick : t -> now:float -> reaped list

(** [reap_report t] — every session ever reaped (by {!tick} or by the
    pre-admission pass inside {!open_session}), oldest first. Together
    with {!shutdown}'s report this accounts for every session that ever
    left the registry — the chaos suite's conservation invariant. *)
val reap_report : t -> reaped list

type shutdown_report = {
  preserved : (string * string) list;  (** (session key, snapshot blob) *)
  lost : (string * string) list;  (** (session key, failure reason) *)
}

(** [shutdown t] — graceful stop: checkpoint every live session and
    empty the registry. The report says exactly what state survived. *)
val shutdown : t -> shutdown_report

type stats = {
  live : int;
  opened : int;  (** sessions ever opened *)
  quota_rejections : int;
  reaped_heartbeat : int;
  reaped_idle : int;
}

val stats : t -> stats
