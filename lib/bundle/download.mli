(** Applet download-time model.

    "Since the binaries are loaded by the browser the first time the web
    page is accessed, large binaries may require an unreasonable amount of
    time and network bandwidth" (Section 4.4). Time to fetch a jar set
    over HTTP/1.0-style transfers: one round trip of latency per file
    plus payload over bandwidth. *)

type link = {
  bandwidth_bits_per_s : float;
  latency_s : float;  (** one-way propagation *)
}

(** Named link presets used by the benches. *)
val modem_56k : link

val isdn_128k : link
val dsl_1m : link
val lan_10m : link
val lan_100m : link

val link_name : link -> string

(** [jars_seconds link jars] — sequential HTTP/1.0 fetches. *)
val jars_seconds : link -> Jar.t list -> float

(** [update_seconds link ~changed ()] — bytes actually transferred on a
    revisit after a vendor update: the browser cache keeps unchanged
    jars, so only [changed] is re-fetched (the paper's "customers always
    access the latest revisions" advantage, priced). *)
val update_seconds : link -> changed:Jar.t list -> unit -> float

(** {1 Faulty links: retried, resumable fetches}

    The consumer links of Table 1 lose connections mid-transfer. A
    [fetch] models one jar over such a link: drops and disconnects kill
    the transfer at a seeded-random byte offset and the retry resumes
    there (HTTP Range); corruption is only caught by the archive
    checksum after the whole payload arrived, so it restarts from zero;
    latency spikes stretch the connection setup. Deterministic: same
    fault seed, same outcome. *)

type fetch_policy = {
  max_attempts : int;  (** total tries per jar, including the first *)
  base_backoff_s : float;  (** wait before the first retry *)
  backoff_cap_s : float;  (** backoff doubles per retry up to this cap *)
}

(** [default_fetch_policy] — 5 attempts, 0.5 s base backoff capped at
    8 s (browser-ish). *)
val default_fetch_policy : fetch_policy

(** [single_attempt] — no retries: the first fault fails the jar. *)
val single_attempt : fetch_policy

type fetch = {
  fetch_jar : Jar.t;
  delivered : bool;  (** arrived intact within [max_attempts] *)
  attempts : int;
  bytes_on_wire : int;
      (** everything transferred, including dead partial payloads —
          [>= compressed_size] when retries happened *)
  fetch_seconds : float;  (** setup + payload + backoff, all attempts *)
}

(** Download instruments, minted once per registry (a per-call mint
    would collide on names): jar/delivery/failure/attempt/byte counters
    plus a per-jar transfer-time histogram in milliseconds. *)
type metrics

(** [metrics registry] registers [jars_fetched_total],
    [jars_delivered_total], [jars_failed_total], [fetch_attempts_total],
    [fetch_bytes_total] and [jar_fetch_ms] on [registry]. *)
val metrics : Jhdl_metrics.Metrics.t -> metrics

(** [fetch_jars ?faults ?policy ?metrics link jars] — fetch a jar set
    sequentially. Each jar draws from its own split of the fault seed,
    so one jar's retry count never shifts another's faults. Without
    [faults] this degenerates to {!jars_seconds}'s timing with every jar
    delivered. [metrics] is updated once per jar fetched. *)
val fetch_jars :
  ?faults:Jhdl_faults.Fault.config ->
  ?policy:fetch_policy ->
  ?metrics:metrics ->
  link ->
  Jar.t list ->
  fetch list

val fetch_total_seconds : fetch list -> float
val fetch_total_bytes : fetch list -> int

(** [fetch_failures fetches] — jars that never arrived. *)
val fetch_failures : fetch list -> Jar.t list

val fetch_attempts : fetch list -> int
