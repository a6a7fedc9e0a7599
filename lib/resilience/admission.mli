(** Admission control for the delivery path.

    The vendor's server is the single machine that must survive
    misbehaving traffic (the paper's architecture runs elaboration and
    co-simulation vendor-side), so every request passes an admission
    controller before it costs anything: bounded per-class queues,
    deadline budgets with shed-on-expiry, tier-aware load shedding
    (lower {!Jhdl_applet.License.tier}s shed first) and a brownout
    ladder that degrades service in steps instead of falling over.

    Time is the caller's ([~now], seconds on any consistent clock), the
    same discipline as {!Jhdl_webserver.Session_manager}: admission
    decisions are a pure function of the request sequence and the
    clock, so overload runs replay deterministically.

    Accounting is typed and closed: every submitted request is, at any
    moment, queued, in flight, completed, or shed with a
    {!shed_reason} — {!accounting_closes} checks the identity and the
    chaos suite asserts it after every storm. *)

(** The four request classes of the delivery path. *)
type request_class =
  | Browse  (** catalog listing: cheap, last to be shed *)
  | Jar_download  (** serving an applet page and its jar set *)
  | Elaborate  (** publish / republish: lint-gated elaboration *)
  | Cosim_exchange  (** black-box co-simulation traffic *)


(** The brownout ladder, in degradation order. *)
type brownout_level =
  | Full_service
  | Serve_stale
      (** downloads may be answered from the user's browser cache even
          when the cached component version is stale *)
  | Catalog_only  (** only [Browse] is admitted *)
  | Reject_all  (** everything is shed with a retry-after hint *)

val brownout_name : brownout_level -> string

type shed_reason =
  | Queue_full  (** the class queue was at capacity *)
  | Deadline_expired  (** the request's deadline passed while it waited *)
  | Brownout_rejected  (** the ladder had shed this class entirely *)
  | Tier_shed  (** preempted from the queue by a higher-tier request *)
  | Breaker_open
      (** refused by an open circuit breaker after admission (recorded
          here so the typed accounting still closes) *)

val all_reasons : shed_reason list
val shed_reason_name : shed_reason -> string

type class_config = {
  queue_cap : int;  (** bounded queue length; at least 1 *)
  deadline_budget_s : float;
      (** default deadline budget for the class; 0 disables deadlines *)
}

type config = {
  browse : class_config;
  download : class_config;
  elaborate : class_config;
  cosim : class_config;
  max_inflight : int;  (** concurrent started requests; at least 1 *)
  serve_stale_at : float;  (** occupancy fraction entering [Serve_stale] *)
  catalog_only_at : float;  (** occupancy fraction entering [Catalog_only] *)
  reject_at : float;  (** occupancy fraction entering [Reject_all] *)
  retry_after_s : float;  (** hint attached to overload rejections *)
}

val default_config : config

(** An admitted request. The ticket is the unit of accounting: it must
    eventually reach {!complete} or {!give_up}. *)
type ticket = {
  id : int;  (** global submission order *)
  cls : request_class;
  tier : Jhdl_applet.License.tier;
  user : string;
  submitted_at : float;
  deadline : float;  (** absolute; [infinity] when deadlines are off *)
}

(** One shed request, with its typed reason and the retry hint the
    rejection carried. *)
type shed = {
  shed_ticket : ticket;
  shed_reason : shed_reason;
  retry_after_s : float option;
}

type t

(** A live [metrics] registry gains [admitted_total], [shed_total],
    per-reason [shed_*_total] counters, a [queue_wait_ms] histogram
    (observed when a request starts service), per-class
    [queue_depth_*] probes, an [inflight] probe and a [brownout_level]
    probe (0 = full service .. 3 = reject all). Raises
    [Invalid_argument] on non-positive queue capacities or
    [max_inflight], or a non-monotonic brownout ladder. *)
val create : ?config:config -> ?metrics:Jhdl_metrics.Metrics.t -> unit -> t

val config : t -> config

(** [brownout t] — the ladder rung the current occupancy selects: the
    total queued over the total queue capacity, against the config's
    thresholds. *)
val brownout : t -> brownout_level

(** [submit t ~now ~cls ~tier ~user ?deadline_s ()] — enqueue one
    request. [deadline_s] overrides the class's default budget.
    Sheds (with a retry-after hint) when the ladder has dropped the
    class, when the deadline budget is already non-positive, or when
    the class queue is full — unless a strictly lower-tier request is
    queued in the same class, in which case that request is preempted
    ([Tier_shed]) and this one takes its place: paying customers are
    the last to brown out. *)
val submit :
  t ->
  now:float ->
  cls:request_class ->
  tier:Jhdl_applet.License.tier ->
  user:string ->
  ?deadline_s:float ->
  unit ->
  (ticket, shed) result

(** [start t ~now] — dequeue the next request to serve, in global
    submission order across classes, honoring [max_inflight]. Requests
    whose deadline passed while queued are shed ([Deadline_expired])
    and skipped. Observes the queue-wait histogram for the returned
    ticket. [None] when every queue is empty or the inflight cap is
    reached. *)
val start : t -> now:float -> ticket option

(** [admit_now t ~now ~cls ~tier ~user ?deadline_s ()] — the
    synchronous path ({!Jhdl_webserver.Server.user_request}): submit
    and immediately start, bypassing the queue when it is empty.
    Sheds like {!submit}; additionally sheds [Queue_full] when the
    inflight cap is reached, and will not jump ahead of an existing
    backlog (backlogged classes shed the newcomer instead). *)
val admit_now :
  t ->
  now:float ->
  cls:request_class ->
  tier:Jhdl_applet.License.tier ->
  user:string ->
  ?deadline_s:float ->
  unit ->
  (ticket, shed) result

(** [complete t ~now ticket] — the request finished (successfully or
    with an application error); closes its accounting. Raises
    [Invalid_argument] for tickets that are not in flight. *)
val complete : t -> now:float -> ticket -> unit

(** [give_up t ~now ticket reason ?retry_after_s ()] — a started
    request was refused downstream (e.g. by an open breaker): shed it
    with a typed reason so the accounting closes. *)
val give_up :
  t ->
  now:float ->
  ticket ->
  shed_reason ->
  ?retry_after_s:float ->
  unit ->
  unit

type stats = {
  submitted : int;
  admitted : int;  (** accepted into a queue (or straight to service) *)
  started : int;
  completed : int;
  queued : int;  (** waiting right now *)
  inflight : int;  (** started but not yet completed *)
  shed_by_reason : (shed_reason * int) list;  (** [all_reasons] order *)
}

val stats : t -> stats
val shed_total : t -> int

(** [shed_log t] — every shed request, oldest first. *)
val shed_log : t -> shed list

(** [accounting_closes t] — the conservation identity every storm must
    preserve: [submitted = queued + inflight + completed + shed]. *)
val accounting_closes : t -> bool
