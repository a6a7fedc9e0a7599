module Metrics = Jhdl_metrics.Metrics
module Snapshot = Jhdl_sim.Snapshot
module Lint = Jhdl_lint.Lint

type 'design t = {
  designs : 'design Store.t;
  verdicts : Lint.report Store.t;
  netlists : string Store.t;
  bundles : Jhdl_bundle.Jar.t list Store.t;
}

(* version tag of the primitive library the generators elaborate
   against; part of every generator-keyed descriptor, so a tech-library
   upgrade invalidates the whole cache instead of serving stale
   netlists *)
let tech_library_version = "virtex-1"

let sum_stats (stores : Store.stats list) =
  List.fold_left
    (fun (a : Store.stats) (s : Store.stats) ->
       Store.
         { lookups = a.lookups + s.lookups;
           hits = a.hits + s.hits;
           misses = a.misses + s.misses;
           verify_rejects = a.verify_rejects + s.verify_rejects;
           inserted = a.inserted + s.inserted;
           evicted = a.evicted + s.evicted;
           replaced = a.replaced + s.replaced;
           removed = a.removed + s.removed;
           live_entries = a.live_entries + s.live_entries;
           live_bytes = a.live_bytes + s.live_bytes })
    Store.
      { lookups = 0; hits = 0; misses = 0; verify_rejects = 0; inserted = 0;
        evicted = 0; replaced = 0; removed = 0; live_entries = 0;
        live_bytes = 0 }
    stores

let combined_stats t =
  sum_stats
    [ Store.stats t.designs; Store.stats t.verdicts; Store.stats t.netlists;
      Store.stats t.bundles ]

let hit_rate t =
  let s = combined_stats t in
  if s.Store.lookups = 0 then 0.0
  else float_of_int s.Store.hits /. float_of_int s.Store.lookups

let create ?(metrics = Metrics.nil) ?name ~cap_entries ~cap_bytes () =
  (* the stores themselves stay unregistered; the registry gets compact
     aggregate probes instead of 4x8 per-class rows *)
  let store () = Store.create ~cap_entries ~cap_bytes () in
  let t =
    { designs = store (); verdicts = store (); netlists = store ();
      bundles = store () }
  in
  let prefix = match name with None -> "" | Some n -> n ^ "." in
  let probe suffix read =
    Metrics.probe metrics (prefix ^ "cache_" ^ suffix) (fun () ->
        read (combined_stats t))
  in
  probe "lookups_total" (fun s -> s.Store.lookups);
  probe "hits_total" (fun s -> s.Store.hits);
  probe "misses_total" (fun s -> s.Store.misses);
  probe "verify_rejects_total" (fun s -> s.Store.verify_rejects);
  probe "insertions_total" (fun s -> s.Store.inserted);
  probe "evictions_total" (fun s -> s.Store.evicted);
  probe "entries" (fun s -> s.Store.live_entries);
  probe "bytes" (fun s -> s.Store.live_bytes);
  t

let generator_descriptor ~generator ~params =
  let b = Buffer.create 128 in
  Buffer.add_string b "gen:";
  Buffer.add_string b tech_library_version;
  Buffer.add_char b ':';
  Buffer.add_string b generator;
  List.iter
    (fun (k, v) ->
       Buffer.add_char b '|';
       Buffer.add_string b k;
       Buffer.add_char b '=';
       Buffer.add_string b v)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) params);
  Buffer.contents b

(* content address of an artifact derived from an elaborated design:
   [kind] (e.g. "lint", "netlist:edif") prefixed onto the full
   [Snapshot.descriptor], so distinct artifact classes of one design
   can never alias and a descriptor match still implies structural
   identity *)
let artifact_descriptor ~kind design =
  kind ^ "\x00" ^ Snapshot.descriptor design

(* a report's resident size, approximated by its stable rendering *)
let report_bytes (r : Lint.report) = String.length (Lint.to_json r)

let verdict t ~now design build =
  Store.find_or_add t.verdicts ~now
    ~descriptor:(artifact_descriptor ~kind:"lint" design)
    ~bytes:report_bytes build

let netlist t ~now ~kind design build =
  Store.find_or_add t.netlists ~now
    ~descriptor:(artifact_descriptor ~kind:("netlist:" ^ kind) design)
    ~bytes:String.length build

let netlist_keyed t ~now ~kind ~descriptor build =
  Store.find_or_add t.netlists ~now
    ~descriptor:("netlist:" ^ kind ^ "\x00" ^ descriptor)
    ~bytes:String.length build
