(* The two delivery workloads: a vendor server answering applet-page
   requests that carry generator parameters (Server.user_request behind
   admission control).

   deliver_hot: Zipf(1.0) over a fixed population of 48 generator
   invocations, caches warmed in set-up, so every request is a delivery
   cache hit; measured open-loop on a seeded Poisson schedule, then
   closed-loop. deliver_cold: stratified uniform points over every IP's
   whole parameter space, starting from an empty delivery cache, so
   misses drive elaboration, EDIF export, inserts and evictions;
   measured closed-loop only. Its service times are heavy-tailed (a
   32x32 CORDIC takes 200 ms, a counter 0.3 ms), and in an open loop
   the queueing behind the big builds moved its percentiles by a third
   between runs. *)

open Jhdl

type kind = Hot | Cold

type request = {
  pt : Gen.point;
  user : int;  (* index into Gen.users *)
  link : int;  (* index into Gen.links *)
}

(* deliver_hot's open loop: requests per second and the windows it is
   cut into; then the share of the run each phase takes, and the blocks
   the closed loop is cut into *)
let open_rate = 20000.0
let windows = 15
let open_share = function Hot -> 0.5 | Cold -> 0.0
let closed_share = function Hot -> 0.08 | Cold -> 0.7
let chunks = function Hot -> 15 | Cold -> 8

(* closed-loop sizing, from the measured service rate on a 2-core
   x86-64 host, so a phase lasts about its share of the run *)
let closed_rate = function Hot -> 150000.0 | Cold -> 120.0

(* The delivery cache's byte bound per artifact class. The hot
   population fits the server's default of 64 MiB. The cold server gets
   4 MiB: the design store charges a build by its descriptor's length,
   about a twentieth of what the design occupies in memory, and at the
   default bound a cold run's heap passes 1.1 GB. *)
let delivery_bytes = function Hot -> 64 * 1024 * 1024 | Cold -> 4 * 1024 * 1024

let stream st kind ~population n =
  let pick =
    match kind with
    | Hot ->
      let next = Gen.zipf ~skew:1.0 ~k:(Array.length population) in
      fun _ -> population.(next st)
    | Cold ->
      let pts = Gen.cold_points st n in
      fun i -> pts.(i)
  in
  Array.init n (fun i ->
    let pt = pick i in
    { pt;
      user = Random.State.int st (Array.length Gen.users);
      link = Random.State.int st (Array.length Gen.links) })

let render reqs =
  Array.to_list
    (Array.map
       (fun q ->
          Printf.sprintf "%s %s %s" (fst Gen.users.(q.user))
            (Download.link_name Gen.links.(q.link)) q.pt.Gen.descriptor)
       reqs)

type inputs = {
  open_reqs : request array;  (* [windows] blocks of like work *)
  due : float array;
  closed : request array list;  (* [chunks kind] blocks *)
  digest : string;
}

(* Each block is drawn on its own (for the cold stream, stratified on
   its own), so every window and chunk carries the same mix. *)
let inputs kind ~population ~seed ~seconds =
  let st = Gen.state ~seed ~tag:(match kind with Hot -> "hot" | Cold -> "cold") in
  let size rate share k =
    if share = 0.0 then 0 else max k (int_of_float (rate *. share *. seconds))
  in
  let draw n k =
    List.map (fun (_, len) -> stream st kind ~population len) (Measure.blocks n k)
  in
  let n_open = size open_rate (open_share kind) windows in
  let open_reqs = Array.concat (draw n_open windows) in
  let due = Gen.poisson st ~rate:open_rate n_open in
  let closed =
    draw (size (closed_rate kind) (closed_share kind) (chunks kind)) (chunks kind)
  in
  { open_reqs; due; closed;
    digest =
      Gen.digest
        (render open_reqs
         @ List.map (Printf.sprintf "%.9f") (Array.to_list due)
         @ List.concat_map render closed) }

(* ------------------------------------------------------------------ *)
(* the measured path: Server.user_request                              *)
(* ------------------------------------------------------------------ *)

(* What a served netlist is checked against. For a descriptor in
   [keep] (the hot population, the cold points drawn more than once),
   [served] holds its first delivery: for deliver_hot the string
   itself, which every later request must get back physically (a cache
   hit); for deliver_cold its digest, which a repeat must match (holding
   cold netlists of several MB each would swamp the heap being
   measured). Other netlists must just be non-empty. *)
type checks = {
  keep : (string, unit) Hashtbl.t;
  served : (string, string) Hashtbl.t;
}

let checks kind ~population =
  let keep = Hashtbl.create 64 in
  if kind = Hot then Array.iter (fun p -> Hashtbl.replace keep p.Gen.descriptor ()) population;
  { keep; served = Hashtbl.create 64 }

let expect_repeats c inp =
  let seen = Hashtbl.create 256 in
  List.iter
    (Array.iter (fun q ->
       let d = q.pt.Gen.descriptor in
       if Hashtbl.mem seen d then Hashtbl.replace c.keep d () else Hashtbl.replace seen d ()))
    (inp.open_reqs :: inp.closed)

let check_netlist r kind c q netlist =
  let d = q.pt.Gen.descriptor in
  if not (Hashtbl.mem c.keep d) then Report.check r (String.length netlist > 0) (fun () -> d)
  else begin
    let seen = match kind with Hot -> netlist | Cold -> Digest.string netlist in
    match Hashtbl.find_opt c.served d with
    | Some first ->
      Report.check r
        (match kind with Hot -> first == seen | Cold -> String.equal first seen)
        (fun () -> d)
    | None -> Hashtbl.replace c.served d seen
  end

type world = {
  server : Server.t;
  admission : Admission.t;
  checks : checks;
}

(* one request; returns its service time, the checks excluded *)
let serve r kind w q ~now =
  let user, tier = Gen.users.(q.user) in
  let t0 = Trace.now () in
  let result =
    Report.attempt r (fun () ->
      Server.user_request w.server ~admission:w.admission ~params:q.pt.Gen.fields
        ~now ~user ~ip_name:q.pt.Gen.ip.Ip_module.ip_name ~link:Gen.links.(q.link) ())
  in
  let service = Trace.now () -. t0 in
  (match result with
   | None -> ()
   | Some (Error rej) ->
     Report.fail r
       (match rej.Server.rej_shed with
        | Some reason -> "Shed:" ^ Admission.shed_reason_name reason
        | None -> "Error")
   | Some (Ok session) ->
     let what () = q.pt.Gen.descriptor in
     Report.check r ((Applet.license session.Server.applet).License.tier = tier) what;
     Report.check r (session.Server.fetched = []) what;
     (match session.Server.elaborated with
      | None -> Report.check r false what
      | Some (_, netlist) -> check_netlist r kind w.checks q netlist));
  service

let publish_times = Stats.samples ()

(* the hot population, requested once each: it is in the delivery
   cache before anything is measured *)
let warm population serve =
  Array.iteri
    (fun i pt -> ignore (serve { pt; user = i mod 3; link = 0 } ~now:0.0 : float))
    population

let setup r kind ~population =
  let server = Server.create ~vendor:"bench-vendor" ~delivery_bytes:(delivery_bytes kind) () in
  let admission = Admission.create () in
  let w = { server; admission; checks = checks kind ~population } in
  List.iter
    (fun ip ->
       let t0 = Trace.now () in
       (match Report.attempt r (fun () -> Server.publish_checked server ip) with
        | Some (Ok _) -> ()
        | Some (Error _) -> Report.fail r "Error"
        | None -> ());
       Stats.add publish_times (Trace.now () -. t0))
    Catalog.all;
  (* every user's browser already holds its jars *)
  Array.iteri
    (fun i (user, tier) ->
       Server.register_user server ~user ~tier;
       match
         Report.attempt r (fun () ->
           Server.user_request server ~admission ~now:0.0 ~user
             ~ip_name:Catalog.counter.Ip_module.ip_name ~link:Gen.links.(i) ())
       with
       | Some (Ok _) -> ()
       | Some (Error _) -> Report.fail r "Error"
       | None -> ())
    Gen.users;
  if kind = Hot then warm population (serve r Hot w);
  w

(* delivery-cache counters over one phase: (design-store hit ratio,
   design builds, evictions and verify rejects across all stores) *)
let cache_counts (d : Ip_module.built Delivery_cache.t) f =
  let s0 = Cache_store.stats d.Delivery_cache.designs in
  let a0 = Delivery_cache.combined_stats d in
  let v = f () in
  let s1 = Cache_store.stats d.Delivery_cache.designs in
  let a1 = Delivery_cache.combined_stats d in
  let lookups = s1.Cache_store.lookups - s0.Cache_store.lookups in
  let ratio =
    if lookups = 0 then 0.0
    else float_of_int (s1.Cache_store.hits - s0.Cache_store.hits) /. float_of_int lookups
  in
  ( v,
    [ ("cache.hit_ratio", ratio, "ratio");
      ("modgen.builds", float_of_int (s1.Cache_store.misses - s0.Cache_store.misses), "count");
      ("cache.evictions", float_of_int (a1.Cache_store.evicted - a0.Cache_store.evicted), "count");
      ( "cache.verify_rejects",
        float_of_int (a1.Cache_store.verify_rejects - a0.Cache_store.verify_rejects),
        "count" ) ] )

(* ------------------------------------------------------------------ *)
(* the traced replay: the same request stream through the layers'     *)
(* public functions, in the order the server calls them                *)
(* ------------------------------------------------------------------ *)

type replay = {
  adm : Admission.t;
  delivery : Ip_module.built Delivery_cache.t;
  browsers : int Cache_store.t array;  (* per user, component -> version *)
  rchecks : checks;
}

(* sized like the server's *)
let replay_world kind ~population inp =
  { adm = Admission.create ();
    delivery = Delivery_cache.create ~cap_entries:256 ~cap_bytes:(delivery_bytes kind) ();
    browsers =
      Array.map
        (fun _ ->
           let store =
             Cache_store.create ~cap_entries:(List.length Partition.all_components)
               ~cap_bytes:max_int ()
           in
           List.iter
             (fun c ->
                ignore
                  (Cache_store.add store ~now:0.0 ~descriptor:(Partition.component_name c)
                     ~bytes:0 1
                   : string list))
             Partition.all_components;
           store)
        Gen.users;
    rchecks =
      (let c = checks kind ~population in
       expect_repeats c inp;
       c) }

(* span ids, looked up once per tracer *)
type spans = {
  request : int; admit : int; create : int; params : int; lookup : int;
  descriptor : int; build : int; edif : int; jars_for : int; browser : int;
  fetch : int; complete : int;
}

let spans tr =
  let id = Trace.id tr in
  { request = id "request"; admit = id "resilience.admit"; create = id "applet.create";
    params = id "applet.params"; lookup = id "cache.lookup";
    descriptor = id "sim.snapshot_descriptor"; build = id "modgen.build";
    edif = id "netlist.edif"; jars_for = id "bundle.jars_for";
    browser = id "bundle.browser_cache"; fetch = id "bundle.fetch";
    complete = id "resilience.complete" }

let replay_one r kind tr sp rw q ~now =
  let user, tier = Gen.users.(q.user) in
  let ip = q.pt.Gen.ip in
  let span i f = Trace.span tr i f in
  let t0 = Trace.now () in
  Trace.enter tr sp.request;
  let ok =
    Report.attempt r (fun () ->
      let ticket =
        span sp.admit (fun () ->
          match Admission.admit_now rw.adm ~now ~cls:Admission.Jar_download ~tier ~user () with
          | Ok ticket -> ticket
          | Error shed -> failwith (Admission.shed_reason_name shed.Admission.shed_reason))
      in
      let applet =
        span sp.create (fun () -> Applet.create ~ip ~license:(License.of_tier tier) ~user ())
      in
      let assignment =
        span sp.params (fun () ->
          let parsed =
            List.map
              (fun (name, text) ->
                 match Ip_module.parse_param (List.assoc name ip.Ip_module.params) text with
                 | Ok v -> (name, v)
                 | Error e -> failwith e)
              q.pt.Gen.fields
          in
          match Ip_module.validate ip parsed with Ok a -> a | Error e -> failwith e)
      in
      let built =
        span sp.lookup (fun () ->
          let descriptor =
            Delivery_cache.generator_descriptor ~generator:ip.Ip_module.ip_name
              ~params:(List.map (fun (k, v) -> (k, Ip_module.param_to_string v)) assignment)
          in
          Cache_store.find_or_add rw.delivery.Delivery_cache.designs ~now ~descriptor
            ~bytes:(fun b ->
              span sp.descriptor (fun () ->
                String.length (Snapshot.descriptor b.Ip_module.design)))
            (fun () -> span sp.build (fun () -> ip.Ip_module.build assignment)))
      in
      let netlist =
        span sp.lookup (fun () ->
          Delivery_cache.netlist_keyed rw.delivery ~now ~kind:"edif"
            ~descriptor:q.pt.Gen.descriptor (fun () ->
              span sp.edif (fun () -> Edif.of_design built.Ip_module.design)))
      in
      let components =
        span sp.lookup (fun () ->
          let components = Applet.jar_components applet in
          let descriptor =
            "bundle:"
            ^ String.concat ","
                (List.map (fun c -> Partition.component_name c ^ "@v1") components)
          in
          ignore
            (Cache_store.find_or_add rw.delivery.Delivery_cache.bundles ~now ~descriptor
               ~bytes:(fun jars ->
                 List.fold_left (fun acc j -> acc + Jar.compressed_size j) 0 jars)
               (fun () -> span sp.jars_for (fun () -> Partition.jars_for components))
             : Jar.t list);
          components)
      in
      let fetched =
        span sp.browser (fun () ->
          let browser = rw.browsers.(q.user) in
          List.filter
            (fun c ->
               let descriptor = Partition.component_name c in
               match Cache_store.peek browser ~descriptor with
               | Some 1 -> ignore (Cache_store.find browser ~now ~descriptor : int option); false
               | _ ->
                 ignore (Cache_store.add browser ~now ~descriptor ~bytes:0 1 : string list);
                 true)
            components)
      in
      span sp.fetch (fun () ->
        ignore
          (Download.fetch_jars Gen.links.(q.link) (Partition.jars_for fetched)
           : Download.fetch list));
      span sp.complete (fun () -> Admission.complete rw.adm ~now ticket);
      netlist)
  in
  Trace.exit tr;
  let service = Trace.now () -. t0 in
  Option.iter (check_netlist r kind rw.rchecks q) ok;
  service

(* ------------------------------------------------------------------ *)
(* phases                                                              *)
(* ------------------------------------------------------------------ *)

(* open loop: request i is due at [base + due.(i)] whatever happened
   before it; latency runs from the due time, so a stall charges every
   request queued behind it *)
let open_loop r kind w inp =
  let latencies = Stats.samples () and lateness = Stats.samples () in
  let base = Trace.now () in
  Array.iteri
    (fun i q ->
       let target = base +. inp.due.(i) in
       while Trace.now () < target do () done;
       let start = Trace.now () in
       let service = serve r kind w q ~now:inp.due.(i) in
       Stats.add latencies (start +. service -. target);
       Stats.add lateness (start -. target))
    inp.open_reqs;
  (latencies, lateness)

(* closed loop: one client, the next request as soon as the last one
   returns; the block's rate over the server's busy time, and the
   per-request service times *)
let closed_loop serve reqs ~t0 =
  let service = Stats.samples () in
  Array.iteri (fun i q -> Stats.add service (serve q ~now:(t0 +. (float_of_int i *. 1e-6)))) reqs;
  (float_of_int (Array.length reqs) /. Stats.total service, service)

let run r kind (o : Measure.opts) =
  let population = Gen.hot_population ~per_ip:8 in
  (* set up before drawing the inputs, so that set-up does not pay for
     collecting the input generator's garbage *)
  let w = Measure.setups r o (fun () -> setup r kind ~population) in
  let inp = inputs kind ~population ~seed:o.Measure.seed ~seconds:o.Measure.seconds in
  r.Report.digest <- inp.digest;
  expect_repeats w.checks inp;
  match o.Measure.trace with
  | None ->
    let ((latencies, lateness), closed), counts =
      cache_counts (Server.delivery_cache w.server) (fun () ->
        let lat = open_loop r kind w inp in
        let t0 = Array.fold_left Float.max 0.0 inp.due +. 1.0 in
        (lat, List.map (fun reqs -> closed_loop (serve r kind w) reqs ~t0) inp.closed))
    in
    (* latency windows: the open loop's; for deliver_cold one window of
       every service time, since its 95th percentile falls among the
       biggest builds and wants all of them *)
    Measure.e2e r
      ~windows:
        (match kind with
         | Hot -> List.map (Stats.sub latencies) (Measure.blocks (Stats.length latencies) windows)
         | Cold -> [ Stats.concat (List.map snd closed) ])
      ~rates:(List.map fst closed);
    if kind = Hot then
      Report.extra r "load.lateness_ms_p99" (Measure.ms (snd (Stats.p50_p99 lateness))) "ms";
    List.iter (fun (name, v, u) -> Report.extra ~exact:true r name v u) counts
  | Some tr ->
    (* a quarter-length closed loop, first untraced through the server
       for the runtime counters, then through the replay *)
    let closed = Array.concat inp.closed in
    let reqs = Array.sub closed 0 (max 1 (Array.length closed / 4)) in
    ignore
      (Measure.runtime r ~ops:(Array.length reqs) (fun () ->
         closed_loop (serve r kind w) reqs ~t0:1.0)
       : float * Stats.samples);
    (* the replay twice on fresh worlds: untraced, for the tracing
       overhead, then traced *)
    let replay tr =
      let rw = replay_world kind ~population inp in
      let sp = spans tr in
      if kind = Hot then warm population (replay_one r Hot Trace.off (spans Trace.off) rw);
      let request = ref 0 in
      cache_counts rw.delivery (fun () ->
        closed_loop
          (fun q ~now ->
             Trace.set_request tr !request;
             incr request;
             replay_one r kind tr sp rw q ~now)
          reqs ~t0:1.0)
    in
    let (_, plain), _ = replay Trace.off in
    let _, counts = replay tr in
    let us name = Measure.us (Trace.self_p50 tr name) in
    let ms name = Measure.ms (Trace.self_p50 tr name) in
    Report.metric r "resilience.admit_us" (us "resilience.admit") "us";
    Report.metric r "resilience.complete_us" (us "resilience.complete") "us";
    Report.metric r "applet.create_us" (us "applet.create") "us";
    Report.metric r "applet.params_us" (us "applet.params") "us";
    Report.metric r "cache.lookup_us" (us "cache.lookup") "us";
    List.iter (fun (name, v, u) -> Report.metric r name v u) counts;
    let b50, b99 = Trace.self_p50_p99 tr "modgen.build" in
    Report.metric r "modgen.build_ms_p50" (Measure.ms b50) "ms";
    Report.metric r "modgen.build_ms_p99" (Measure.ms b99) "ms";
    Report.metric r "sim.snapshot_descriptor_ms" (ms "sim.snapshot_descriptor") "ms";
    Report.metric r "netlist.edif_ms" (ms "netlist.edif") "ms";
    Report.metric r "bundle.jars_for_us" (us "bundle.jars_for") "us";
    Report.metric r "bundle.fetch_us" (us "bundle.fetch") "us";
    Report.metric r "bundle.browser_cache_us" (us "bundle.browser_cache") "us";
    Report.metric r "webserver.publish_ms" (Measure.ms (Stats.p50 publish_times)) "ms";
    Measure.trace_quality r tr ~root:"request" ~traced_p50:(Trace.root_p50 tr "request")
      ~untraced_p50:(Stats.p50 plain)
