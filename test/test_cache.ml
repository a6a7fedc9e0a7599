(* The content-addressed delivery cache: LRU mechanics, closed
   accounting, byte-identical hits, and the collision regression — two
   designs whose 32-bit JSNP signatures collide must never cross-serve
   each other's artifacts. *)

module Store = Jhdl_cache.Store
module Delivery = Jhdl_cache.Delivery
module Snapshot = Jhdl_sim.Snapshot
module Catalog = Jhdl_applet.Catalog
module Ip_module = Jhdl_applet.Ip_module
module Lint = Jhdl_lint.Lint
module Edif = Jhdl_netlist.Edif
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Types = Jhdl_circuit.Types
module Virtex = Jhdl_virtex.Virtex

(* ------------------------------------------------------------------ *)
(* store mechanics                                                     *)
(* ------------------------------------------------------------------ *)

let mk ?(cap_entries = 4) ?(cap_bytes = max_int) () =
  Store.create ~cap_entries ~cap_bytes ()

let test_lru_eviction_order () =
  let s = mk ~cap_entries:2 () in
  Alcotest.(check (list string)) "no eviction below cap" []
    (Store.add s ~now:0. ~descriptor:"a" ~bytes:1 "A");
  Alcotest.(check (list string)) "still none" []
    (Store.add s ~now:1. ~descriptor:"b" ~bytes:1 "B");
  (* touch a so b becomes least recently used *)
  Alcotest.(check (option string)) "a hit" (Some "A")
    (Store.find s ~now:2. ~descriptor:"a");
  Alcotest.(check (list string)) "b evicted, LRU first" [ "b" ]
    (Store.add s ~now:3. ~descriptor:"c" ~bytes:1 "C");
  Alcotest.(check (option string)) "b gone" None
    (Store.find s ~now:4. ~descriptor:"b");
  Alcotest.(check (list string)) "MRU order" [ "c"; "a" ]
    (List.map fst (Store.to_list s))

let test_byte_capacity () =
  let s = mk ~cap_entries:100 ~cap_bytes:10 () in
  ignore (Store.add s ~now:0. ~descriptor:"a" ~bytes:6 "A" : string list);
  Alcotest.(check (list string)) "a pushed out by bytes" [ "a" ]
    (Store.add s ~now:1. ~descriptor:"b" ~bytes:6 "B");
  (* an artifact bigger than the whole store is refused, not inserted *)
  Alcotest.(check (list string)) "oversized refused" []
    (Store.add s ~now:2. ~descriptor:"huge" ~bytes:11 "H");
  Alcotest.(check bool) "not present" false (Store.mem s ~descriptor:"huge");
  let st = Store.stats s in
  Alcotest.(check int) "live bytes" 6 st.Store.live_bytes;
  Alcotest.(check bool) "accounting closes" true
    (Store.accounting_closes st)

let test_replace_same_key () =
  let s = mk () in
  ignore (Store.add s ~now:0. ~descriptor:"a" ~bytes:2 "v1" : string list);
  Alcotest.(check (list string)) "replacement evicts nothing" []
    (Store.add s ~now:1. ~descriptor:"a" ~bytes:3 "v2");
  Alcotest.(check (option string)) "latest wins" (Some "v2")
    (Store.find s ~now:2. ~descriptor:"a");
  let st = Store.stats s in
  Alcotest.(check int) "one replaced" 1 st.Store.replaced;
  Alcotest.(check int) "one live" 1 st.Store.live_entries;
  Alcotest.(check int) "bytes follow the replacement" 3 st.Store.live_bytes;
  Alcotest.(check bool) "accounting closes" true
    (Store.accounting_closes st)

let test_find_or_add_builds_once () =
  let s = mk () in
  let builds = ref 0 in
  let build () = incr builds; "artifact" in
  let a1 = Store.find_or_add s ~now:0. ~descriptor:"k" ~bytes:String.length build in
  let a2 = Store.find_or_add s ~now:1. ~descriptor:"k" ~bytes:String.length build in
  Alcotest.(check string) "same artifact" a1 a2;
  Alcotest.(check int) "built once" 1 !builds;
  Alcotest.(check (float 1e-9)) "hit rate 1/2" 0.5 (Store.hit_rate s)

(* ------------------------------------------------------------------ *)
(* collision regression                                                *)
(* ------------------------------------------------------------------ *)

(* a tiny but real design whose canonical descriptor varies only in the
   root cell's name *)
let design_named name =
  let top = Cell.root ~name () in
  let a = Wire.create top ~name:"a" 1 in
  let b = Wire.create top ~name:"b" 1 in
  let _ = Virtex.inv top ~name:"n" a b in
  let design = Design.create top in
  Design.add_port design "a" Types.Input a;
  Design.add_port design "b" Types.Output b;
  design

let replace_all ~marker ~by s =
  let buf = Buffer.create (String.length s) in
  let mlen = String.length marker in
  let i = ref 0 in
  while !i <= String.length s - mlen do
    if String.sub s !i mlen = marker then begin
      Buffer.add_string buf by;
      i := !i + mlen
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.add_string buf (String.sub s !i (String.length s - !i));
  Buffer.contents buf

(* Birthday-search two root-cell names whose descriptors collide under
   FNV-1a/32 — the JSNP signature. The search hashes template
   substitutions instead of elaborating ~80k designs; the winning pair
   is re-verified against real elaborations below. *)
let find_colliding_names () =
  let marker = "XCOLLIDEX" in
  let template = Snapshot.descriptor (design_named marker) in
  let descriptor_for name = replace_all ~marker ~by:name template in
  let seen = Hashtbl.create (1 lsl 18) in
  let rec go i =
    if i > 1_000_000 then failwith "no 32-bit collision in 1e6 names";
    let name = Printf.sprintf "cell%06x" i in
    let h = Snapshot.fnv1a32 (descriptor_for name) in
    match Hashtbl.find_opt seen h with
    | Some earlier -> (earlier, name)
    | None ->
      Hashtbl.add seen h name;
      go (i + 1)
  in
  go 0

let test_colliding_signatures_never_cross_serve () =
  let name1, name2 = find_colliding_names () in
  let d1 = design_named name1 and d2 = design_named name2 in
  let desc1 = Snapshot.descriptor d1 and desc2 = Snapshot.descriptor d2 in
  (* the regression's premise: a genuine 32-bit signature collision
     between two structurally different designs *)
  Alcotest.(check int) "32-bit signatures collide"
    (Snapshot.signature d1) (Snapshot.signature d2);
  Alcotest.(check bool) "descriptors differ" true (desc1 <> desc2);
  Alcotest.(check bool) "64-bit signatures differ" true
    (Snapshot.signature64 d1 <> Snapshot.signature64 d2);
  (* a cache keyed by the 32-bit signature would cross-serve here; the
     store must keep the two designs' artifacts fully apart *)
  let s = mk ~cap_entries:8 () in
  ignore (Store.add s ~now:0. ~descriptor:desc1 ~bytes:1 "artifact-1"
          : string list);
  Alcotest.(check (option string)) "collider misses, not cross-served" None
    (Store.find s ~now:1. ~descriptor:desc2);
  ignore (Store.add s ~now:2. ~descriptor:desc2 ~bytes:1 "artifact-2"
          : string list);
  Alcotest.(check (option string)) "first still its own" (Some "artifact-1")
    (Store.find s ~now:3. ~descriptor:desc1);
  Alcotest.(check (option string)) "second its own" (Some "artifact-2")
    (Store.find s ~now:4. ~descriptor:desc2);
  let st = Store.stats s in
  Alcotest.(check int) "both live" 2 st.Store.live_entries;
  Alcotest.(check bool) "accounting closes" true (Store.accounting_closes st)

(* ------------------------------------------------------------------ *)
(* delivery-layer artifacts                                            *)
(* ------------------------------------------------------------------ *)

let wallace_assignment ~a_width ~b_width =
  let ip =
    match Catalog.find "WallaceTreeMultiplier" with
    | Some ip -> ip
    | None -> Alcotest.fail "wallace missing from catalog"
  in
  match
    Ip_module.validate ip
      [ ("a_width", Ip_module.Int_value a_width);
        ("b_width", Ip_module.Int_value b_width) ]
  with
  | Ok assignment -> (ip, assignment)
  | Error message -> Alcotest.fail message

let test_generator_descriptor_canonical () =
  let d1 =
    Delivery.generator_descriptor ~generator:"g"
      ~params:[ ("b", "2"); ("a", "1") ]
  and d2 =
    Delivery.generator_descriptor ~generator:"g"
      ~params:[ ("a", "1"); ("b", "2") ]
  in
  Alcotest.(check string) "parameter order cannot split the cache" d1 d2

let test_verdict_and_netlist_served_from_cache () =
  let delivery = Delivery.create ~cap_entries:16 ~cap_bytes:max_int () in
  let ip, assignment = wallace_assignment ~a_width:4 ~b_width:3 in
  let fresh () = (ip.Ip_module.build assignment).Ip_module.design in
  let d1 = fresh () in
  let expected_netlist = Edif.of_design d1 in
  let expected_verdict = Lint.to_json (Lint.run d1) in
  let n1 =
    Delivery.netlist delivery ~now:0. ~kind:"edif" d1 (fun () ->
        Edif.of_design d1)
  in
  let v1 = Delivery.verdict delivery ~now:0. d1 (fun () -> Lint.run d1) in
  (* an independent re-elaboration must hit: same generator, same
     parameters, same tech library — and the hit must be byte-identical
     to what a fresh export would produce *)
  let d2 = fresh () in
  let n2 =
    Delivery.netlist delivery ~now:1. ~kind:"edif" d2 (fun () ->
        Alcotest.fail "netlist should be a cache hit")
  in
  let v2 =
    Delivery.verdict delivery ~now:1. d2 (fun () ->
        Alcotest.fail "verdict should be a cache hit")
  in
  Alcotest.(check string) "netlist byte-identical" expected_netlist n1;
  Alcotest.(check string) "hit byte-identical" expected_netlist n2;
  Alcotest.(check string) "verdict identical" expected_verdict
    (Lint.to_json v1);
  Alcotest.(check string) "verdict hit identical" expected_verdict
    (Lint.to_json v2);
  Alcotest.(check (float 1e-9)) "half the lookups hit" 0.5
    (Delivery.hit_rate delivery)

(* a warm delivery cache serves the whole catalog at defaults without
   running a generator or an exporter, and without a verify reject *)
let test_warm_catalog_pass_builds_nothing () =
  let delivery =
    Delivery.create ~cap_entries:16 ~cap_bytes:(16 * 1024 * 1024) ()
  in
  let serve ~build ~export ip =
    let descriptor =
      Delivery.generator_descriptor ~generator:ip.Ip_module.ip_name
        ~params:
          (List.map
             (fun (k, v) -> (k, Ip_module.param_to_string v))
             (Ip_module.defaults ip))
    in
    let built =
      Store.find_or_add delivery.Delivery.designs ~now:0. ~descriptor
        ~bytes:(fun b -> String.length (Snapshot.descriptor b.Ip_module.design))
        (fun () -> build ip)
    in
    ignore
      (Delivery.netlist_keyed delivery ~now:0. ~kind:"edif" ~descriptor
         (fun () -> export built)
        : string)
  in
  List.iter
    (serve
       ~build:(fun ip -> ip.Ip_module.build (Ip_module.defaults ip))
       ~export:(fun built -> Edif.of_design built.Ip_module.design))
    Catalog.all;
  let cold = Delivery.combined_stats delivery in
  List.iter
    (serve
       ~build:(fun ip ->
         Alcotest.failf "warm pass rebuilt %s" ip.Ip_module.ip_name)
       ~export:(fun _ -> Alcotest.fail "warm pass re-exported a netlist"))
    Catalog.all;
  let warm = Delivery.combined_stats delivery in
  Alcotest.(check int) "every warm lookup hits"
    (warm.Store.lookups - cold.Store.lookups)
    (warm.Store.hits - cold.Store.hits);
  Alcotest.(check int) "no verify rejects" 0 warm.Store.verify_rejects

(* ------------------------------------------------------------------ *)
(* properties                                                          *)
(* ------------------------------------------------------------------ *)

(* random op soup against a tight store: the closed accounting identity
   inserted = live + evicted + replaced + removed and both capacity
   bounds must hold after every single operation *)
let prop_accounting_closes_under_churn =
  QCheck.Test.make ~count:300 ~name:"accounting closes after every op"
    QCheck.(small_list (triple (int_bound 2) (int_bound 11) (int_bound 40)))
    (fun ops ->
       let s = Store.create ~cap_entries:3 ~cap_bytes:64 () in
       List.for_all
         (fun (kind, key, bytes) ->
            let descriptor = Printf.sprintf "artifact-%02d" key in
            (match kind with
             | 0 ->
               ignore
                 (Store.add s ~now:0. ~descriptor ~bytes
                    (string_of_int key)
                  : string list)
             | 1 -> ignore (Store.find s ~now:0. ~descriptor : string option)
             | _ -> ignore (Store.remove s ~descriptor : bool));
            let st = Store.stats s in
            Store.accounting_closes st
            && st.Store.live_entries <= 3
            && st.Store.live_bytes <= 64
            && st.Store.live_entries = List.length (Store.to_list s))
         ops)

(* a hit can never disagree with a fresh elaboration: whatever the
   parameter point, the cached EDIF equals a from-scratch export *)
let prop_hit_byte_identical_to_fresh =
  QCheck.Test.make ~count:12 ~name:"cache hit = fresh elaboration, bytewise"
    QCheck.(pair (int_range 2 6) (int_range 2 6))
    (fun (a_width, b_width) ->
       let delivery = Delivery.create ~cap_entries:8 ~cap_bytes:max_int () in
       let ip, assignment = wallace_assignment ~a_width ~b_width in
       let fresh () = (ip.Ip_module.build assignment).Ip_module.design in
       let d1 = fresh () in
       let n1 =
         Delivery.netlist delivery ~now:0. ~kind:"edif" d1 (fun () ->
             Edif.of_design d1)
       in
       let d2 = fresh () in
       let n2 =
         Delivery.netlist delivery ~now:1. ~kind:"edif" d2 (fun () ->
             QCheck.Test.fail_report "expected a cache hit")
       in
       String.equal n1 (Edif.of_design d2) && String.equal n1 n2)

let suite =
  [ Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "byte capacity" `Quick test_byte_capacity;
    Alcotest.test_case "replace same key" `Quick test_replace_same_key;
    Alcotest.test_case "find_or_add builds once" `Quick
      test_find_or_add_builds_once;
    Alcotest.test_case "32-bit collision never cross-serves" `Quick
      test_colliding_signatures_never_cross_serve;
    Alcotest.test_case "generator descriptor canonical" `Quick
      test_generator_descriptor_canonical;
    Alcotest.test_case "verdict and netlist served from cache" `Quick
      test_verdict_and_netlist_served_from_cache;
    Alcotest.test_case "warm catalog pass builds nothing" `Quick
      test_warm_catalog_pass_builds_nothing ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_accounting_closes_under_churn; prop_hit_byte_identical_to_fresh ]
