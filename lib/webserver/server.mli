(** The vendor's web server, simulated.

    Carries the three delivery advantages of Section 1.1: (1) customers
    install nothing — an applet arrives with its jar set; (2) the vendor
    updates executables centrally — republishing bumps versions and the
    next request serves the latest code, with the browser cache
    re-fetching only changed archives; (3) the executable served is
    customized to the requesting user's license. *)

type t

(** [create ~vendor ?cache_cap ?metrics ()] — an empty server.
    [cache_cap] bounds each user's browser cache to that many component
    entries (LRU: a full cache drops its least recently used component,
    which must then be transferred again); the default admits every
    component, reproducing an unbounded cache. Raises
    [Invalid_argument] when the cap is not positive.

    [delivery_cap] / [delivery_bytes] bound the server-side
    content-addressed delivery cache ({!delivery_cache}): elaborated
    designs, lint verdicts, exported netlists and jar bundles, each
    keyed by collision-safe descriptors
    ({!Jhdl_sim.Snapshot.signature64} discipline — hits are
    descriptor-verified, so a hash collision degrades to a miss, never
    a wrong artifact).

    [breaker] guards the jar download path of {!user_request}: requests
    fail fast with a retry-after hint while it is open; an essential
    download failure counts against it and a served page closes it.

    A live [metrics] registry gains the request-path instruments:
    [requests_total] / [request_failures_total],
    [cache_hits_total] / [cache_misses_total] /
    [cache_evictions_total], a [download_ms] per-request histogram,
    the [catalog_entries] probe, the aggregate [delivery.cache_*]
    rows of the delivery cache, and the jar-level
    {!Jhdl_bundle.Download.metrics} counters. *)
val create :
  vendor:string -> ?cache_cap:int ->
  ?delivery_cap:int -> ?delivery_bytes:int ->
  ?breaker:Jhdl_resilience.Breaker.t ->
  ?metrics:Jhdl_metrics.Metrics.t ->
  unit -> t

(** [breaker server] — the download-path breaker, when one was armed. *)
val breaker : t -> Jhdl_resilience.Breaker.t option

(** [cache_evictions server] — total LRU evictions across all user
    caches since the server started. *)
val cache_evictions : t -> int

(** [delivery_cache server] — the server-side content-addressed
    delivery cache, for inspection and for sharing its verdict store
    with catalog listings ({!Jhdl_applet.Catalog.lint_verdict}). *)
val delivery_cache : t -> Jhdl_applet.Ip_module.built Jhdl_cache.Delivery.t

(** [publish server ip] — put an IP on the catalog (version 1), or bump
    its version (and the applet jar's) when already present. Returns the
    new version. The lint gate applies: raises [Invalid_argument] when
    the IP's default elaboration has error-severity lint findings. *)
val publish : t -> Jhdl_applet.Ip_module.t -> int

(** [publish_checked server ?now ip] — like {!publish}, but the lint
    gate's refusal (error-severity findings at the default parameters,
    or an elaboration failure) comes back as [Error message] instead of
    an exception. The verdict is served from the delivery cache when a
    catalog listing (or earlier publication) already linted the same
    generator invocation; [now] stamps the cache recency. *)
val publish_checked :
  t -> ?now:float -> Jhdl_applet.Ip_module.t -> (int, string) result

val catalog : t -> (string * int) list
(** [(ip name, current version)] *)

(** [register_user server ~user ~tier] — create or update an account. *)
val register_user : t -> user:string -> tier:Jhdl_applet.License.tier -> unit

(** One served applet page: the assembled executable plus what the
    browser had to download to run it. *)
type session = {
  applet : Jhdl_applet.Applet.t;
  version : int;
  jars : Jhdl_bundle.Jar.t list;  (** full jar set the page references *)
  fetched : Jhdl_bundle.Jar.t list;  (** cache misses the browser tried to transfer *)
  failed : Jhdl_bundle.Jar.t list;
      (** fetched jars that never arrived (retries exhausted) *)
  unavailable : Jhdl_applet.Feature.t list;
      (** licensed tools greyed out because their jar failed *)
  evicted : Jhdl_bundle.Partition.component list;
      (** components this request's cache traffic pushed out of the
          bounded LRU (empty with the default cap) *)
  elaborated : (Jhdl_applet.Ip_module.built * string) option;
      (** when the request carried parameters: the server-side build
          and its EDIF export, both served from the delivery cache *)
  fetch_attempts : int;  (** total transfer attempts across all jars *)
  download_seconds : float;  (** includes retries, backoff and dead bytes *)
}

(** [access_log server] — one line per served request, oldest first:
    the newest 1 024, so a long-running server's log stays bounded. *)
val access_log : t -> string list

(** A typed refusal. Overload rejections (admission sheds, open
    breaker) carry both a retry-after hint and the
    {!Jhdl_resilience.Admission.shed_reason} they were accounted
    under; plain failures (unknown user or IP, a refused form,
    essential download loss) carry neither. *)
type rejection = {
  rej_reason : string;
  rej_retry_after_s : float option;
  rej_shed : Jhdl_resilience.Admission.shed_reason option;
}

(** {1 The request path}

    One front door serves every page: {!user_request}. {!serve_admitted}
    is the same path for a ticket a queued dispatcher already admitted,
    and {!seal} is a step applied to a served session, not a second way
    in. Every refusal counts in [request_failures_total]. *)

(** [user_request server ?admission ?params ~now ~user ~ip_name ~link
    ?deadline_s ?faults ?policy ()] — serve the IP evaluation page to
    [user] over [link]. Unknown users and IPs are refused. The per-user
    browser cache persists across requests: revisits after a republish
    fetch only the bumped applet jar; [now] stamps cache recency.

    [params] requests a server-side elaboration at the given
    (name, form-field string) parameter point
    ({!Jhdl_applet.Ip_module.parse_params}); the build and its EDIF
    export land in [session.elaborated], served from the delivery
    cache on repeats. A malformed or out-of-range form is refused, and
    so is a point the generator cannot build (the
    {!Jhdl_applet.Catalog.elaboration_error_to_string} message); a
    generator's raise never escapes.

    [faults] makes the link lossy (seeded, deterministic); [policy]
    governs per-jar retries ({!Jhdl_bundle.Download.default_fetch_policy}
    by default). The session degrades gracefully: when an optional jar
    (the viewer classes) is lost, the applet still launches and
    [unavailable] lists the greyed-out tools; losing an essential jar
    (base / technology / applet glue) is a refusal. Failed components
    are evicted from the browser cache so a revisit re-fetches them.

    Overload control: with [admission], the request is admitted as a
    [Jar_download] (shed requests are refused before costing anything,
    with the controller's retry-after hint); under the [Serve_stale]
    brownout rung a stale browser-cache entry answers instead of
    re-fetching. With a download breaker armed ({!create}'s
    [breaker]), an open circuit fails the request fast — and, when
    admitted, the ticket is given up as [Breaker_open] so the typed
    accounting still closes. The breaker counts only requests that
    reached the download: a refused form, an unknown IP or a generator
    refusal tells it nothing. *)
val user_request :
  t ->
  ?admission:Jhdl_resilience.Admission.t ->
  ?params:(string * string) list ->
  now:float ->
  user:string ->
  ip_name:string ->
  link:Jhdl_bundle.Download.link ->
  ?deadline_s:float ->
  ?faults:Jhdl_faults.Fault.config ->
  ?policy:Jhdl_bundle.Download.fetch_policy ->
  unit ->
  (session, rejection) result

(** [serve_admitted server ~admission ~ticket ~now ~ip_name ~link
    ?faults ?policy ()] — {!user_request} for the ticket's user, whose
    download slot a queued dispatcher already admitted
    ({!Jhdl_resilience.Admission.start}). The ticket's accounting is
    always closed. The chaos load scheduler drives this path. *)
val serve_admitted :
  t ->
  admission:Jhdl_resilience.Admission.t ->
  ticket:Jhdl_resilience.Admission.ticket ->
  now:float ->
  ip_name:string ->
  link:Jhdl_bundle.Download.link ->
  ?faults:Jhdl_faults.Fault.config ->
  ?policy:Jhdl_bundle.Download.fetch_policy ->
  unit ->
  (session, rejection) result

(** [state_digest server] — canonical rendering of all durable server
    state (catalog and component versions, accounts with their cache
    contents, eviction count, access log), accounts sorted by user.
    The atomic-admission property test pins that shed requests leave
    it byte-identical. *)
val state_digest : t -> string

(** {1 Encrypted delivery (Section 4.3 hardening)} *)

(** [user_token server ~user] — the license token the loader uses with
    {!Secure_channel}; [None] for unknown users. *)
val user_token : t -> user:string -> string option

(** [seal server session] — the jars of a served [session] that
    actually arrived, sealed under its user's license token (failed
    jars are not sealed). The session's timing is unchanged (the
    stream cipher is size-preserving). *)
val seal : t -> session -> Secure_channel.sealed list
