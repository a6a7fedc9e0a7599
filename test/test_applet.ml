(* Applet tests: license gating by construction, metering, the KCM and
   FIR catalog entries, parameter handling and netlist policy. *)

module Applet = Jhdl_applet.Applet
module Catalog = Jhdl_applet.Catalog
module License = Jhdl_applet.License
module Feature = Jhdl_applet.Feature
module Ip_module = Jhdl_applet.Ip_module
module Partition = Jhdl_bundle.Partition
module Bits = Jhdl_logic.Bits
module Watermark = Jhdl_security.Watermark

let make ?(tier = License.Licensed) ?(ip = Catalog.kcm) () =
  Applet.create ~ip ~license:(License.of_tier tier) ~user:"tester" ()

let ok applet command =
  match Applet.exec applet command with
  | Ok text -> text
  | Error message ->
    Alcotest.failf "command %s failed: %s"
      (Applet.command_to_string command)
      message

let err applet command =
  match Applet.exec applet command with
  | Error message -> message
  | Ok _ ->
    Alcotest.failf "command %s unexpectedly succeeded"
      (Applet.command_to_string command)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let build_kcm ?tier ~constant ~pipelined () =
  let applet = make ?tier () in
  let _ = ok applet (Applet.Set_param ("constant", string_of_int constant)) in
  let _ = ok applet (Applet.Set_param ("pipelined", string_of_bool pipelined)) in
  let _ = ok applet Applet.Build in
  applet

(* {1 the paper's session} *)

let test_paper_session () =
  let applet = build_kcm ~constant:(-56) ~pipelined:true () in
  let text = ok applet (Applet.Set_input ("multiplicand", "100")) in
  Alcotest.(check bool) "input echoed" true (contains ~needle:"multiplicand" text);
  let _ = ok applet (Applet.Cycle 2) in
  let output = ok applet (Applet.Get_output "product") in
  (* -56 * 100 = -5600; top 12 of the 15-bit product = -700 *)
  Alcotest.(check bool) "product = -700" true (contains ~needle:"(3396)" output)

let test_build_reports_structure () =
  let applet = build_kcm ~constant:(-56) ~pipelined:true () in
  (match Applet.built_design applet with
   | None -> Alcotest.fail "design should exist"
   | Some design ->
     let stats = Jhdl_circuit.Design.stats design in
     Alcotest.(check bool) "nontrivial" true
       (stats.Jhdl_circuit.Design.primitive_instances > 50));
  Alcotest.(check (option int)) "latency known" (Some 1) (Applet.latency applet)

(* {1 gating by construction} *)

let test_passive_refusals () =
  let applet = make ~tier:License.Passive () in
  let _ = ok applet Applet.Build in
  let _ = ok applet Applet.Estimate in
  List.iter
    (fun command ->
       let message = err applet command in
       Alcotest.(check bool) "mentions missing tool" true
         (contains ~needle:"not included" message))
    [ Applet.View_hierarchy; Applet.View_schematic None; Applet.View_layout;
      Applet.Cycle 1; Applet.Reset; Applet.Get_output "product";
      Applet.View_waveform; Applet.Netlist "EDIF" ];
  Alcotest.(check bool) "no simulator object exists" true
    (Applet.simulator applet = None)

let test_evaluator_no_netlist () =
  let applet = make ~tier:License.Evaluator () in
  let _ = ok applet Applet.Build in
  let _ = ok applet (Applet.View_hierarchy) in
  let _ = ok applet (Applet.Cycle 1) in
  let message = err applet (Applet.Netlist "EDIF") in
  Alcotest.(check bool) "netlister absent" true
    (contains ~needle:"netlister" message)

let test_vendor_everything () =
  let applet = make ~tier:License.Vendor () in
  let _ = ok applet Applet.Build in
  List.iter
    (fun command -> ignore (ok applet command))
    [ Applet.Estimate; Applet.View_hierarchy; Applet.View_layout;
      Applet.Cycle 1; Applet.View_waveform; Applet.Netlist "Verilog" ]

(* {1 parameters} *)

let test_param_validation () =
  let applet = make () in
  Alcotest.(check bool) "out of range" true
    (contains ~needle:"outside"
       (err applet (Applet.Set_param ("multiplicand_width", "99"))));
  Alcotest.(check bool) "bad bool" true
    (contains ~needle:"boolean"
       (err applet (Applet.Set_param ("signed", "maybe"))));
  Alcotest.(check bool) "unknown param" true
    (contains ~needle:"unknown"
       (err applet (Applet.Set_param ("frequency", "5"))))

(* one form is one design: a field given twice is refused by name,
   whichever value came first, even when both parse *)
let test_repeated_field_refused () =
  let parse = Ip_module.parse_params Catalog.kcm in
  (match parse [ ("multiplicand_width", "4"); ("multiplicand_width", "8") ] with
   | Ok _ -> Alcotest.fail "a repeated field was accepted"
   | Error message ->
     Alcotest.(check string) "names the field"
       "parameter multiplicand_width given twice" message);
  (match parse [ ("constant", "9"); ("signed", "true"); ("constant", "banana") ] with
   | Ok _ -> Alcotest.fail "a repeated field was accepted"
   | Error message ->
     Alcotest.(check string) "refused before the second value is parsed"
       "parameter constant given twice" message);
  match parse [ ("multiplicand_width", "4"); ("constant", "9") ] with
  | Ok assignment ->
    Alcotest.(check int) "distinct fields still parse" 4
      (Ip_module.int_param assignment "multiplicand_width")
  | Error message -> Alcotest.failf "distinct fields refused: %s" message

let test_build_before_anything () =
  let applet = make () in
  Alcotest.(check bool) "estimate needs build" true
    (contains ~needle:"no circuit built" (err applet Applet.Estimate))

let test_unsigned_negative_constant_refused () =
  let applet = make () in
  let _ = ok applet (Applet.Set_param ("signed", "false")) in
  let _ = ok applet (Applet.Set_param ("constant", "-5")) in
  Alcotest.(check bool) "generator refuses" true
    (contains ~needle:"signed" (err applet Applet.Build))

(* {1 metering} *)

let test_netlist_metering () =
  (* licensed tier caps netlist exports at 50 *)
  let applet = build_kcm ~constant:7 ~pipelined:false () in
  for _ = 1 to 50 do
    ignore (ok applet (Applet.Netlist "EDIF"))
  done;
  Alcotest.(check bool) "51st refused" true
    (contains ~needle:"limit" (err applet (Applet.Netlist "EDIF")))

let test_build_metering_passive () =
  let applet = make ~tier:License.Passive () in
  for _ = 1 to 20 do
    ignore (ok applet Applet.Build)
  done;
  Alcotest.(check bool) "21st build refused" true
    (contains ~needle:"limit" (err applet Applet.Build))

(* {1 netlist policy} *)

let test_netlist_watermarked () =
  let applet = build_kcm ~constant:(-56) ~pipelined:false () in
  let _ = ok applet (Applet.Netlist "EDIF") in
  match Applet.built_design applet with
  | None -> Alcotest.fail "design should exist"
  | Some design ->
    Alcotest.(check bool) "vendor watermark present" true
      (Watermark.verify design ~vendor:(Catalog.kcm).Ip_module.vendor)

let test_netlist_unknown_format () =
  let applet = build_kcm ~constant:7 ~pipelined:false () in
  Alcotest.(check bool) "xml refused" true
    (contains ~needle:"unknown format" (err applet (Applet.Netlist "xml")))

(* {1 jar components} *)

let test_jar_components_by_tier () =
  let components tier = Applet.jar_components (make ~tier ()) in
  Alcotest.(check bool) "passive skips viewer jar" true
    (not (List.mem Partition.Viewer (components License.Passive)));
  Alcotest.(check bool) "evaluator needs viewer jar" true
    (List.mem Partition.Viewer (components License.Evaluator));
  Alcotest.(check bool) "all need base" true
    (List.for_all
       (fun tier -> List.mem Partition.Base (components tier))
       License.all_tiers)

(* {1 FIR and counter catalog entries} *)

let test_fir_applet_session () =
  let applet = make ~ip:Catalog.fir () in
  let _ = ok applet (Applet.Set_param ("taps", "boxcar4")) in
  let _ = ok applet (Applet.Set_param ("signed", "false")) in
  let _ = ok applet Applet.Build in
  let _ = ok applet (Applet.Set_input ("x", "3")) in
  (* boxcar over a constant input converges to 4*x *)
  let _ = ok applet (Applet.Cycle 4) in
  let text = ok applet (Applet.Get_output "y") in
  Alcotest.(check bool) "converged to 12" true (contains ~needle:"(12)" text)

let test_fir_invalid_tap_set () =
  let applet = make ~ip:Catalog.fir () in
  Alcotest.(check bool) "unknown set" true
    (contains ~needle:"not one of"
       (err applet (Applet.Set_param ("taps", "butterworth"))))

let test_counter_applet () =
  let applet = make ~ip:Catalog.counter () in
  let _ = ok applet (Applet.Set_param ("width", "5")) in
  let _ = ok applet Applet.Build in
  let _ = ok applet (Applet.Cycle 9) in
  let text = ok applet (Applet.Get_output "q") in
  Alcotest.(check bool) "counted to 9" true (contains ~needle:"(9)" text)

let test_catalog_lookup () =
  Alcotest.(check bool) "kcm found" true
    (Catalog.find "virtexkcmmultiplier" <> None);
  Alcotest.(check bool) "missing" true (Catalog.find "Booth" = None);
  Alcotest.(check bool) "cordic found" true (Catalog.find "CordicRotator" <> None);
  Alcotest.(check bool) "wallace found" true
    (Catalog.find "WallaceTreeMultiplier" <> None);
  Alcotest.(check bool) "divider found" true
    (Catalog.find "PipelinedDivider" <> None);
  Alcotest.(check int) "six entries" 6 (List.length Catalog.all)

let test_self_test_kcm () =
  List.iter
    (fun pipelined ->
       let applet = build_kcm ~constant:(-56) ~pipelined () in
       let text = ok applet Applet.Self_test in
       Alcotest.(check bool)
         (Printf.sprintf "kcm self-test passes (pipelined=%b): %s" pipelined text)
         true
         (contains ~needle:"0 failure(s)" text))
    [ false; true ]

let test_self_test_fir () =
  let applet = make ~ip:Catalog.fir () in
  let _ = ok applet Applet.Build in
  let text = ok applet Applet.Self_test in
  Alcotest.(check bool) "fir self-test passes" true
    (contains ~needle:"0 failure(s)" text)

let test_self_test_cordic () =
  let applet = make ~ip:Catalog.cordic () in
  let _ = ok applet Applet.Build in
  let text = ok applet Applet.Self_test in
  Alcotest.(check bool) "cordic self-test passes" true
    (contains ~needle:"0 failure(s)" text)

let test_self_test_counter () =
  List.iter
    (fun enable ->
       let applet = make ~ip:Catalog.counter () in
       let _ = ok applet (Applet.Set_param ("has_enable", string_of_bool enable)) in
       let _ = ok applet Applet.Build in
       let text = ok applet Applet.Self_test in
       Alcotest.(check bool)
         (Printf.sprintf "counter self-test (ce=%b): %s" enable text)
         true
         (contains ~needle:"0 failure(s)" text))
    [ false; true ]

let test_self_test_needs_simulator () =
  let applet = make ~tier:License.Passive () in
  let _ = ok applet Applet.Build in
  Alcotest.(check bool) "passive tier lacks simulator" true
    (contains ~needle:"not included" (err applet Applet.Self_test))

let test_export_vcd () =
  let applet = build_kcm ~constant:(-56) ~pipelined:true () in
  let _ = ok applet (Applet.Set_input ("multiplicand", "100")) in
  let _ = ok applet (Applet.Cycle 3) in
  let vcd = ok applet Applet.Export_vcd in
  Alcotest.(check bool) "vcd header" true (contains ~needle:"$timescale" vcd);
  Alcotest.(check bool) "vcd values" true (contains ~needle:"#3" vcd)

let test_transcript () =
  let applet = make ~tier:License.Passive () in
  let transcript = Applet.run_script applet [ Applet.Build; Applet.Cycle 1 ] in
  Alcotest.(check bool) "echoes commands" true (contains ~needle:"> build" transcript);
  Alcotest.(check bool) "records refusals" true (contains ~needle:"ERROR" transcript)

let test_feature_matrix_rendering () =
  let matrix = License.feature_matrix () in
  Alcotest.(check bool) "has tiers" true (contains ~needle:"licensed" matrix);
  Alcotest.(check bool) "has netlister row" true (contains ~needle:"netlister" matrix)

let suite =
  [ Alcotest.test_case "paper session" `Quick test_paper_session;
    Alcotest.test_case "build reports structure" `Quick
      test_build_reports_structure;
    Alcotest.test_case "passive refusals" `Quick test_passive_refusals;
    Alcotest.test_case "evaluator no netlist" `Quick test_evaluator_no_netlist;
    Alcotest.test_case "vendor everything" `Quick test_vendor_everything;
    Alcotest.test_case "param validation" `Quick test_param_validation;
    Alcotest.test_case "a repeated form field is refused" `Quick
      test_repeated_field_refused;
    Alcotest.test_case "build before anything" `Quick test_build_before_anything;
    Alcotest.test_case "unsigned negative constant" `Quick
      test_unsigned_negative_constant_refused;
    Alcotest.test_case "netlist metering" `Quick test_netlist_metering;
    Alcotest.test_case "build metering passive" `Quick test_build_metering_passive;
    Alcotest.test_case "netlist watermarked" `Quick test_netlist_watermarked;
    Alcotest.test_case "unknown format" `Quick test_netlist_unknown_format;
    Alcotest.test_case "jar components by tier" `Quick test_jar_components_by_tier;
    Alcotest.test_case "fir applet session" `Quick test_fir_applet_session;
    Alcotest.test_case "fir invalid tap set" `Quick test_fir_invalid_tap_set;
    Alcotest.test_case "counter applet" `Quick test_counter_applet;
    Alcotest.test_case "catalog lookup" `Quick test_catalog_lookup;
    Alcotest.test_case "self test kcm" `Quick test_self_test_kcm;
    Alcotest.test_case "self test fir" `Quick test_self_test_fir;
    Alcotest.test_case "self test cordic" `Quick test_self_test_cordic;
    Alcotest.test_case "self test counter" `Quick test_self_test_counter;
    Alcotest.test_case "self test needs simulator" `Quick
      test_self_test_needs_simulator;
    Alcotest.test_case "export vcd" `Quick test_export_vcd;
    Alcotest.test_case "transcript" `Quick test_transcript;
    Alcotest.test_case "feature matrix" `Quick test_feature_matrix_rendering ]
