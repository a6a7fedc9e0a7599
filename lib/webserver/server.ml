module Applet = Jhdl_applet.Applet
module Ip_module = Jhdl_applet.Ip_module
module Catalog = Jhdl_applet.Catalog
module License = Jhdl_applet.License
module Feature = Jhdl_applet.Feature
module Partition = Jhdl_bundle.Partition
module Jar = Jhdl_bundle.Jar
module Download = Jhdl_bundle.Download
module Lint = Jhdl_lint.Lint
module Metrics = Jhdl_metrics.Metrics
module Admission = Jhdl_resilience.Admission
module Breaker = Jhdl_resilience.Breaker
module Store = Jhdl_cache.Store
module Delivery = Jhdl_cache.Delivery
module Snapshot = Jhdl_sim.Snapshot
module Edif = Jhdl_netlist.Edif

let log_src = Logs.Src.create "jhdl.webserver" ~doc:"IP delivery server"

module Log = (val Logs.src_log log_src : Logs.LOG)

type entry = {
  ip : Ip_module.t;
  mutable version : int;
}

type account = {
  tier : License.tier;
  (* browser cache: a bounded LRU store of downloaded component
     versions, keyed by component name *)
  cache : int Store.t;
}

(* request-path instruments; nil unless [create] got a live registry *)
type server_metrics = {
  sm_requests : Metrics.counter;
  sm_request_failures : Metrics.counter;
  sm_cache_hits : Metrics.counter;
  sm_cache_misses : Metrics.counter;
  sm_cache_evictions : Metrics.counter;
      (* browser-cache LRU drops, across every account *)
  sm_download_ms : Metrics.histogram; (* per-request download time *)
  sm_download : Download.metrics; (* jar-level counters, same registry *)
}

type t = {
  vendor : string;
  cache_cap : int;
  mutable entries : (string * entry) list;
  accounts : (string, account) Hashtbl.t;
  (* component versions: base libraries move slowly, applet jars bump
     with each publication *)
  component_versions : (Partition.component, int) Hashtbl.t;
  (* the content-addressed delivery cache: elaborated designs, lint
     verdicts, exported netlists and jar bundles *)
  delivery : Ip_module.built Delivery.t;
  log : string array; (* ring of the newest lines *)
  mutable logged : int; (* lines ever logged; the next goes to [logged mod length] *)
  breaker : Breaker.t option; (* guards the jar download path *)
  sm : server_metrics;
}

(* lines the access log keeps: the newest, so a long-running server's
   memory stays bounded *)
let access_log_lines = 1024

let log_line server line =
  server.log.(server.logged mod access_log_lines) <- line;
  server.logged <- server.logged + 1

let create ~vendor ?cache_cap ?(delivery_cap = 256)
    ?(delivery_bytes = 64 * 1024 * 1024) ?breaker ?(metrics = Metrics.nil) ()
    =
  let cache_cap =
    match cache_cap with
    | None -> List.length Partition.all_components
    | Some cap when cap >= 1 -> cap
    | Some cap ->
      invalid_arg
        (Printf.sprintf "Server.create: cache_cap %d must be positive" cap)
  in
  let component_versions = Hashtbl.create 4 in
  List.iter
    (fun c -> Hashtbl.replace component_versions c 1)
    Partition.all_components;
  let sm =
    { sm_requests = Metrics.counter metrics "requests_total";
      sm_request_failures = Metrics.counter metrics "request_failures_total";
      sm_cache_hits = Metrics.counter metrics "cache_hits_total";
      sm_cache_misses = Metrics.counter metrics "cache_misses_total";
      sm_cache_evictions = Metrics.counter metrics "cache_evictions_total";
      sm_download_ms = Metrics.histogram metrics "download_ms";
      sm_download = Download.metrics metrics }
  in
  let delivery =
    Delivery.create ~metrics ~name:"delivery" ~cap_entries:delivery_cap
      ~cap_bytes:delivery_bytes ()
  in
  let server =
    { vendor; cache_cap; entries = []; accounts = Hashtbl.create 8;
      component_versions; delivery; log = Array.make access_log_lines "";
      logged = 0; breaker; sm }
  in
  Metrics.probe metrics "catalog_entries" (fun () ->
      List.length server.entries);
  server

let cache_evictions server = Metrics.count server.sm.sm_cache_evictions

let delivery_cache server = server.delivery

let publish_unchecked server ip =
  let name = ip.Ip_module.ip_name in
  match List.assoc_opt name server.entries with
  | Some entry ->
    entry.version <- entry.version + 1;
    Hashtbl.replace server.component_versions Partition.Applet
      (1 + Hashtbl.find server.component_versions Partition.Applet);
    Log.info (fun m -> m "republished %s as v%d" name entry.version);
    entry.version
  | None ->
    server.entries <- server.entries @ [ (name, { ip; version = 1 }) ];
    1

(* publication gate: a module whose default elaboration carries
   error-severity lint findings never reaches the catalog. The verdict
   is content-addressed through the delivery cache, so republishing an
   unchanged generator (or publishing one a catalog listing already
   linted) skips re-elaboration. *)
let publish_checked server ?(now = 0.) ip =
  match Catalog.lint_verdict ~cache:server.delivery.Delivery.verdicts ~now ip with
  | Error e -> Error (Catalog.elaboration_error_to_string e)
  | Ok report ->
    (match Lint.errors report with
     | [] -> Ok (publish_unchecked server ip)
     | first :: _ as errors ->
       Log.warn (fun m ->
         m "refused %s: %d lint error(s)" ip.Ip_module.ip_name
           (List.length errors));
       Error
         (Printf.sprintf "%s refused: %d lint error(s), first %s: %s"
            ip.Ip_module.ip_name (List.length errors) first.Lint.rule_id
            first.Lint.message))

let publish server ip =
  match publish_checked server ip with
  | Ok version -> version
  | Error message -> invalid_arg ("publish: " ^ message)

let catalog server =
  List.map (fun (name, e) -> (name, e.version)) server.entries

let register_user server ~user ~tier =
  let account =
    match Hashtbl.find_opt server.accounts user with
    | Some account -> { account with tier }
    | None ->
      { tier;
        (* per-account browser cache; the shared server-level counters
           do the metric accounting, so the store itself stays
           unregistered *)
        cache =
          Store.create ~cap_entries:server.cache_cap ~cap_bytes:max_int () }
  in
  Hashtbl.replace server.accounts user account

let component_descriptor = Partition.component_name

let component_of_name name =
  List.find
    (fun c -> String.equal (Partition.component_name c) name)
    Partition.all_components

type session = {
  applet : Applet.t;
  version : int;
  jars : Jar.t list;
  fetched : Jar.t list;
  failed : Jar.t list;
  unavailable : Feature.t list;
  evicted : Partition.component list;
  elaborated : (Ip_module.built * string) option;
      (* server-side build + EDIF export, when the request carried
         parameters; both served from the delivery cache *)
  fetch_attempts : int;
  download_seconds : float;
}

(* no applet can run at all without the core classes, the technology
   library and the applet glue *)
let essential_components = [ Partition.Base; Partition.Virtex; Partition.Applet ]

let component_of_jar jar =
  List.find_opt
    (fun c -> (Partition.jar_of c).Jar.jar_name = jar.Jar.jar_name)
    Partition.all_components

(* server-side elaboration of a parameterized request: the built module
   and its EDIF export are both content-addressed by the generator
   invocation, so repeat requests at the same parameter point skip
   elaboration and export entirely. A generator that cannot build the
   point answers a typed refusal, and nothing is cached. *)
let elaborate_cached server ~now entry assignment =
  let descriptor =
    Delivery.generator_descriptor ~generator:entry.ip.Ip_module.ip_name
      ~params:
        (List.map
           (fun (k, v) -> (k, Ip_module.param_to_string v))
           assignment)
  in
  let designs = server.delivery.Delivery.designs in
  let built =
    match Store.find designs ~now ~descriptor with
    | Some built -> Ok built
    | None ->
      Result.map
        (fun built ->
           ignore
             (Store.add designs ~now ~descriptor
                ~bytes:(String.length (Snapshot.descriptor built.Ip_module.design))
                built
              : string list);
           built)
        (Catalog.elaborate entry.ip assignment)
  in
  Result.map
    (fun built ->
       ( built,
         Delivery.netlist_keyed server.delivery ~now ~kind:"edif" ~descriptor
           (fun () -> Edif.of_design built.Ip_module.design) ))
    built

(* Where a request that got no page stopped: before its download (an
   unknown IP, a malformed form, a generator refusal) or in it (an
   essential jar never arrived). Only the second says anything about
   the download path, so only it reaches the breaker. *)
type refusal =
  | Refused of string
  | Lost of string

let page server account ~stale_ok ~now ?params ~user ~ip_name ~link ?faults
    ?policy () =
  match List.assoc_opt ip_name server.entries with
  | None -> Error (Refused (Printf.sprintf "no IP named %s on this server" ip_name))
  | Some entry ->
    (* parameterized requests elaborate server-side before anything
       ships; both the build and its export come from the delivery
       cache *)
    let elaborated =
      match params with
      | None -> Ok None
      | Some fields ->
        (match Ip_module.parse_params entry.ip fields with
         | Error message ->
           Error (Printf.sprintf "bad parameters for %s: %s" ip_name message)
         | Ok assignment ->
           (match elaborate_cached server ~now entry assignment with
            | Ok elaborated -> Ok (Some elaborated)
            | Error e -> Error (Catalog.elaboration_error_to_string e)))
    in
    match elaborated with
    | Error message -> Error (Refused message)
    | Ok elaborated ->
      let applet =
        Applet.create ~ip:entry.ip ~license:(License.of_tier account.tier)
          ~user ()
      in
      let components = Applet.jar_components applet in
      (* the jar set for a component/version mix is itself a delivery
         artifact: repeat sessions share one bundle entry *)
      let bundle_descriptor =
        "bundle:"
        ^ String.concat ","
            (List.map
               (fun c ->
                  Printf.sprintf "%s@v%d" (Partition.component_name c)
                    (Hashtbl.find server.component_versions c))
               components)
      in
      let jars =
        Store.find_or_add server.delivery.Delivery.bundles ~now
          ~descriptor:bundle_descriptor
          ~bytes:(fun jars ->
            List.fold_left (fun acc j -> acc + Jar.compressed_size j) 0 jars)
          (fun () -> Partition.jars_for components)
      in
      let evicted = ref [] in
      let fetched_components =
        List.filter
          (fun component ->
             let current = Hashtbl.find server.component_versions component in
             let descriptor = component_descriptor component in
             (* under the serve-stale brownout rung, any cached version
                answers the request — the customer gets a possibly
                outdated jar instantly instead of queueing on a
                saturated download path *)
             let miss, record_version =
               match Store.peek account.cache ~descriptor with
               | Some cached when cached = current -> (false, current)
               | Some cached when stale_ok -> (false, cached)
               | Some _ | None -> (true, current)
             in
             Metrics.incr
               (if miss then server.sm.sm_cache_misses
                else server.sm.sm_cache_hits);
             (* hits refresh recency (stale hits keep their stale
                version, so full service refetches later); misses enter
                at the front, and a full cache drops its least recently
                used entry *)
             if miss then begin
               let dropped =
                 Store.add account.cache ~now ~descriptor ~bytes:0
                   record_version
               in
               Metrics.add server.sm.sm_cache_evictions
                 (List.length dropped);
               evicted := !evicted @ List.map component_of_name dropped
             end
             else
               ignore (Store.find account.cache ~now ~descriptor : int option);
             miss)
          components
      in
      let fetched = Partition.jars_for fetched_components in
      let fetches =
        Download.fetch_jars ?faults ?policy ~metrics:server.sm.sm_download
          link fetched
      in
      let failed = Download.fetch_failures fetches in
      let failed_components = List.filter_map component_of_jar failed in
      (* a failed transfer must not poison the cache: the revisit
         re-fetches the component instead of assuming it is present *)
      List.iter
        (fun c ->
           ignore
             (Store.remove account.cache
                ~descriptor:(component_descriptor c)
               : bool))
        failed_components;
      let download_seconds = Download.fetch_total_seconds fetches in
      let fetch_attempts = Download.fetch_attempts fetches in
      Metrics.observe server.sm.sm_download_ms
        (int_of_float (download_seconds *. 1e3));
      if List.exists (fun c -> List.mem c essential_components) failed_components
      then
        Error
          (Lost
             (Printf.sprintf "download failed for %s: %s did not arrive"
                ip_name
                (String.concat ", " (List.map (fun j -> j.Jar.jar_name) failed))))
      else begin
        (* the page still loads: tools whose jars never arrived are
           greyed out, everything else works *)
        let unavailable =
          List.filter
            (fun feature ->
               List.exists
                 (fun c -> List.mem c failed_components)
                 (Feature.components [ feature ]))
            (Applet.features applet)
        in
        Log.info (fun m ->
          m "GET /applets/%s for %s (%s)" ip_name user
            (License.tier_name account.tier));
        log_line server
          (Printf.sprintf "%s GET /applets/%s v%d (%s license, %d jar(s), %.1f s)"
             user ip_name entry.version
             (License.tier_name account.tier)
             (List.length fetched) download_seconds);
        Ok
          { applet; version = entry.version; jars; fetched; failed;
            unavailable; evicted = !evicted; elaborated; fetch_attempts;
            download_seconds }
      end

type rejection = {
  rej_reason : string;
  rej_retry_after_s : float option;
  rej_shed : Admission.shed_reason option;
}

let breaker server = server.breaker

let reject server ?retry_after_s ?shed reason =
  Metrics.incr server.sm.sm_request_failures;
  Error
    { rej_reason = reason;
      rej_retry_after_s = retry_after_s;
      rej_shed = shed }

(* How a request holds its admission slot: it has none (no
   controller), asks for one now (with its deadline), or was started by
   a queued dispatcher. *)
type admit =
  | Unmetered
  | Admit_now of Admission.t * float option
  | Admitted of Admission.t * Admission.ticket

(* The one request path: {!user_request} and {!serve_admitted} differ
   only in the [admit] they pass. The account is looked up once, and a
   ticket's accounting is always closed here (complete, or give up as
   [Breaker_open] when the circuit refuses the call). *)
let serve server admit ?params ~now ~user ~ip_name ~link ?faults ?policy () =
  Metrics.incr server.sm.sm_requests;
  match Hashtbl.find_opt server.accounts user with
  | None ->
    (match admit with
     | Admitted (adm, tk) -> Admission.complete adm ~now tk
     | Unmetered | Admit_now _ -> ());
    reject server (Printf.sprintf "unknown user %s" user)
  | Some account ->
    (* admission first: shedding must cost nothing downstream *)
    let ticket =
      match admit with
      | Unmetered -> Ok None
      | Admitted (adm, tk) -> Ok (Some (adm, tk))
      | Admit_now (adm, deadline_s) ->
        Result.map
          (fun tk -> Some (adm, tk))
          (Admission.admit_now adm ~now ~cls:Admission.Jar_download
             ~tier:account.tier ~user ?deadline_s ())
    in
    (match ticket with
     | Error shed ->
       reject server ?retry_after_s:shed.Admission.retry_after_s
         ~shed:shed.Admission.shed_reason
         (Printf.sprintf "overload: request shed (%s)"
            (Admission.shed_reason_name shed.Admission.shed_reason))
     | Ok ticket ->
       (* the breaker guards the whole download path: while open, the
          request fails fast without touching the link *)
       (match server.breaker with
        | Some b when not (Breaker.allow b ~now) ->
          let retry_after_s = Breaker.retry_after_s b ~now in
          Option.iter
            (fun (adm, tk) ->
               Admission.give_up adm ~now tk Admission.Breaker_open
                 ?retry_after_s ())
            ticket;
          reject server ?retry_after_s ~shed:Admission.Breaker_open
            (Printf.sprintf "downloads suspended (circuit %s open)"
               (Breaker.name b))
        | breaker ->
          let stale_ok =
            match ticket with
            | Some (adm, _) -> Admission.brownout adm = Admission.Serve_stale
            | None -> false
          in
          let result =
            page server account ~stale_ok ~now ?params ~user ~ip_name ~link
              ?faults ?policy ()
          in
          Option.iter (fun (adm, tk) -> Admission.complete adm ~now tk) ticket;
          (* lost optional jars already degrade the page; only a failed
             download (essential loss) trips the breaker *)
          (match (result, breaker) with
           | Ok session, Some b ->
             Breaker.on_success b ~now;
             Ok session
           | Ok session, None -> Ok session
           | Error (Lost reason), Some b ->
             Breaker.on_failure b ~now;
             reject server reason
           | Error (Lost reason | Refused reason), _ -> reject server reason)))

let user_request server ?admission ?params ~now ~user ~ip_name ~link
    ?deadline_s ?faults ?policy () =
  let admit =
    match admission with
    | None -> Unmetered
    | Some adm -> Admit_now (adm, deadline_s)
  in
  serve server admit ?params ~now ~user ~ip_name ~link ?faults ?policy ()

let serve_admitted server ~admission ~ticket ~now ~ip_name ~link ?faults
    ?policy () =
  serve server (Admitted (admission, ticket)) ~now ~user:ticket.Admission.user
    ~ip_name ~link ?faults ?policy ()

let access_log server =
  let n = min server.logged access_log_lines in
  List.init n (fun i -> server.log.((server.logged - n + i) mod access_log_lines))

let token server ~user =
  Secure_channel.issue_token ~server_secret:("vendor-secret/" ^ server.vendor)
    ~user

let user_token server ~user =
  if Hashtbl.mem server.accounts user then Some (token server ~user) else None

(* only what actually arrived gets sealed and handed over *)
let seal server session =
  let token = token server ~user:(Applet.user session.applet) in
  List.filter_map
    (fun jar ->
       if List.exists (fun f -> f.Jar.jar_name = jar.Jar.jar_name) session.failed
       then None
       else Some (Secure_channel.seal ~token jar))
    session.fetched

(* Canonical rendering of every piece of durable server state. The
   atomic-admission property pins it: a shed or expired request must
   leave the digest byte-identical to never having arrived. Accounts
   are sorted by user so the hashtable's iteration order cannot leak
   into the digest. *)
let state_digest server =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("vendor " ^ server.vendor ^ "\n");
  List.iter
    (fun (name, (e : entry)) ->
       Buffer.add_string buf (Printf.sprintf "catalog %s v%d\n" name e.version))
    server.entries;
  List.iter
    (fun c ->
       Buffer.add_string buf
         (Printf.sprintf "component %s v%d\n" (Partition.component_name c)
            (Hashtbl.find server.component_versions c)))
    Partition.all_components;
  let accounts =
    Hashtbl.fold (fun user account acc -> (user, account) :: acc)
      server.accounts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (user, account) ->
       Buffer.add_string buf
         (Printf.sprintf "account %s %s cache=[%s]\n" user
            (License.tier_name account.tier)
            (String.concat "; "
               (List.map
                  (fun (descriptor, v) ->
                     Printf.sprintf "%s v%d" descriptor v)
                  (Store.to_list account.cache)))))
    accounts;
  Buffer.add_string buf
    (Printf.sprintf "evictions %d\n" (cache_evictions server));
  List.iter
    (fun line -> Buffer.add_string buf ("log " ^ line ^ "\n"))
    (access_log server);
  Buffer.contents buf
