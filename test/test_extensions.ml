(* Tests for the extension subsystems: the XNF user-defined format, the
   EDIF reader (structural parse-back verification of the writer), the
   Verilog-testbench PLI wrapper, the multi-IP applet suite, and the
   JBits-style bitstream delivery substrate. *)

module Bits = Jhdl_logic.Bits
module Lut_init = Jhdl_logic.Lut_init
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Types = Jhdl_circuit.Types
module Prim = Jhdl_circuit.Prim
module Virtex = Jhdl_virtex.Virtex
module Simulator = Jhdl_sim.Simulator
module Model = Jhdl_netlist.Model
module Edif = Jhdl_netlist.Edif
module Edif_reader = Jhdl_netlist.Edif_reader
module Xnf = Jhdl_netlist.Xnf
module Kcm = Jhdl_modgen.Kcm
module Network = Jhdl_netproto.Network
module Endpoint = Jhdl_netproto.Endpoint
module Cosim = Jhdl_netproto.Cosim
module Verilog_tb = Jhdl_netproto.Verilog_tb
module Suite = Jhdl_applet.Suite
module Applet = Jhdl_applet.Applet
module Catalog = Jhdl_applet.Catalog
module License = Jhdl_applet.License
module Config_mem = Jhdl_bitstream.Config_mem
module Jbits = Jhdl_bitstream.Jbits

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let kcm_design ?(pipelined = false) ~constant () =
  let top = Cell.root ~name:"kcm_top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let m = Wire.create top ~name:"multiplicand" 8 in
  let p = Wire.create top ~name:"product" 19 in
  let _ =
    Kcm.create top ~clk ~multiplicand:m ~product:p ~signed_mode:true
      ~pipelined_mode:pipelined ~constant ()
  in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "multiplicand" Types.Input m;
  Design.add_port d "product" Types.Output p;
  d

(* {1 XNF} *)

let test_xnf_output () =
  let xnf = Xnf.of_design (kcm_design ~constant:(-56) ()) in
  Alcotest.(check bool) "header" true (contains ~needle:"LCANET, 6" xnf);
  Alcotest.(check bool) "symbols" true (contains ~needle:"SYM, " xnf);
  Alcotest.(check bool) "init params" true (contains ~needle:"INIT=" xnf);
  Alcotest.(check bool) "pins" true (contains ~needle:"PIN, O, O, " xnf);
  Alcotest.(check bool) "external pads" true (contains ~needle:"EXT, " xnf);
  Alcotest.(check bool) "bus pad naming" true
    (contains ~needle:"multiplicand<0>" xnf);
  Alcotest.(check bool) "terminated" true (contains ~needle:"EOF" xnf)

let test_xnf_symbol_count () =
  let d = kcm_design ~constant:7 () in
  let m = Model.of_design d in
  let xnf = Xnf.to_string m in
  let count needle =
    let rec go i acc =
      if i + String.length needle > String.length xnf then acc
      else if String.sub xnf i (String.length needle) = needle then
        go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one SYM per instance" (Model.instance_count m)
    (count "SYM, ")

(* {1 EDIF reader: parse-back verification} *)

let test_edif_parse_back () =
  let d = kcm_design ~constant:(-56) () in
  let m = Model.of_design d in
  let edif = Edif.to_string m in
  match Edif_reader.read edif with
  | Error message -> Alcotest.failf "parse-back failed: %s" message
  | Ok summary ->
    Alcotest.(check string) "design name" "kcm_top"
      summary.Edif_reader.design_name;
    Alcotest.(check int) "instance count survives"
      (Model.instance_count m)
      summary.Edif_reader.instance_count;
    Alcotest.(check int) "net count survives" (Model.net_count m)
      summary.Edif_reader.net_count;
    Alcotest.(check int) "3 external ports" 3 summary.Edif_reader.port_count;
    Alcotest.(check bool) "LUT4 declared" true
      (List.mem "LUT4" summary.Edif_reader.library_cells);
    Alcotest.(check bool) "INITs recovered" true
      (List.length summary.Edif_reader.init_properties > 10)

let test_edif_reader_rejects_garbage () =
  Alcotest.(check bool) "unbalanced" true
    (Result.is_error (Edif_reader.parse "(edif foo"));
  Alcotest.(check bool) "trailing" true
    (Result.is_error (Edif_reader.parse "(a) b"));
  Alcotest.(check bool) "not edif" true
    (Result.is_error (Edif_reader.read "(library x)"))

let test_edif_reader_sexp () =
  match Edif_reader.parse "(a (b \"c d\") 42)" with
  | Ok (Edif_reader.List
          [ Edif_reader.Atom "a";
            Edif_reader.List [ Edif_reader.Atom "b"; Edif_reader.Atom "c d" ];
            Edif_reader.Atom "42" ]) -> ()
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error m -> Alcotest.fail m

(* A megabyte of open parentheses is refused at the list past the
   limit, with a message naming it, before the parser has allocated
   more than the lists it holds open. *)
let test_edif_reader_bounds_nesting () =
  let deep = String.make 1_000_000 '(' in
  let before = Gc.minor_words () in
  let result = Edif_reader.parse deep in
  let words = Gc.minor_words () -. before in
  (match result with
   | Ok _ -> Alcotest.fail "a megabyte of ( parsed"
   | Error message ->
     Alcotest.(check string) "depth error"
       (Printf.sprintf "lists nested deeper than %d at offset %d"
          Edif_reader.max_depth Edif_reader.max_depth)
       message);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for the refusal" words)
    true (words < 100_000.);
  let nested k = String.make k '(' ^ "x" ^ String.make k ')' in
  Alcotest.(check bool) "max_depth levels parse" true
    (Result.is_ok (Edif_reader.parse (nested Edif_reader.max_depth)));
  Alcotest.(check bool) "one more is refused" true
    (Result.is_error (Edif_reader.parse (nested (Edif_reader.max_depth + 1))))

(* property: writer/reader agree on instance count for random small designs *)
let prop_edif_roundtrip_counts =
  QCheck.Test.make ~name:"edif parse-back preserves instance count" ~count:40
    QCheck.(int_range 1 12)
    (fun gates ->
       let top = Cell.root ~name:"rand" () in
       let a = Wire.create top ~name:"a" 1 in
       let b = Wire.create top ~name:"b" 1 in
       let prev = ref a in
       for i = 0 to gates - 1 do
         let o = Wire.create top ~name:(Printf.sprintf "o%d" i) 1 in
         let _ = Virtex.xor2 top !prev b o in
         prev := o
       done;
       let d = Design.create top in
       Design.add_port d "a" Types.Input a;
       Design.add_port d "b" Types.Input b;
       Design.add_port d "o" Types.Output !prev;
       match Edif_reader.read (Edif.of_design d) with
       | Ok summary -> summary.Edif_reader.instance_count = gates
       | Error _ -> false)

(* {1 Verilog testbench wrapper} *)

let kcm_cosim () =
  let d = kcm_design ~constant:(-56) () in
  let clk =
    match Design.find_port d "clk" with
    | Some p -> p.Design.port_wire
    | None -> assert false
  in
  let endpoint =
    Endpoint.of_simulator ~name:"kcm" (Simulator.create ~clock:clk d)
  in
  let cosim = Cosim.create () in
  Cosim.attach cosim endpoint Network.loopback;
  cosim

let kcm_bindings =
  [ { Verilog_tb.signal = "x"; box = "kcm"; port = "multiplicand" };
    { Verilog_tb.signal = "p"; box = "kcm"; port = "product" } ]

let tb_source =
  {|
// PLI wrapper testbench: drive the protected KCM black box
module tb;
  reg [7:0] x;
  wire [18:0] p;

  initial begin
    x = 8'd100;
    #1;
    $display("negative six thousand", p);
    $check(p, -19'd5600);
    x = -8'sd3;
    #1;
    $check(p, 19'd168);
    $finish;
  end
endmodule
|}

let test_tb_parse () =
  match Verilog_tb.parse tb_source with
  | Error message -> Alcotest.fail message
  | Ok program ->
    Alcotest.(check (list (triple string int bool)))
      "declarations"
      [ ("x", 8, true); ("p", 19, false) ]
      (Verilog_tb.signals program)

let test_tb_run_against_blackbox () =
  match Verilog_tb.parse tb_source with
  | Error message -> Alcotest.fail message
  | Ok program ->
    let result =
      Verilog_tb.run program ~cosim:(kcm_cosim ()) ~bindings:kcm_bindings
    in
    Alcotest.(check bool) "finished" true result.Verilog_tb.finished;
    Alcotest.(check int) "two cycles" 2 result.Verilog_tb.cycles_run;
    Alcotest.(check int) "two checks" 2 (List.length result.Verilog_tb.checks);
    List.iter
      (fun c ->
         Alcotest.(check bool)
           (Printf.sprintf "check on %s (got %s)" c.Verilog_tb.check_signal
              (Bits.to_string c.Verilog_tb.actual))
           true c.Verilog_tb.passed)
      result.Verilog_tb.checks;
    (match result.Verilog_tb.transcript with
     | [ line ] ->
       Alcotest.(check bool) "display shows signed value" true
         (contains ~needle:"p=-5600" line)
     | _ -> Alcotest.fail "expected one $display line")

let test_tb_parse_errors () =
  let bad source expect =
    match Verilog_tb.parse source with
    | Ok _ -> Alcotest.failf "should reject: %s" expect
    | Error message ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %s (got %s)" expect message)
        true
        (contains ~needle:expect message)
  in
  bad "module tb; initial begin always; end endmodule" "expected";
  bad "module tb; initial begin @; end endmodule" "unsupported";
  bad "module tb; reg [3:1] x; initial begin end endmodule" "lsb";
  bad "module tb; initial begin $monitor(x); end endmodule" "monitor"

let test_tb_failed_check_reported () =
  let source =
    {|module tb;
  reg [7:0] x;
  wire [18:0] p;
  initial begin
    x = 8'd1;
    #1;
    $check(p, 19'd12345);
  end
endmodule|}
  in
  match Verilog_tb.parse source with
  | Error message -> Alcotest.fail message
  | Ok program ->
    let result =
      Verilog_tb.run program ~cosim:(kcm_cosim ()) ~bindings:kcm_bindings
    in
    (match result.Verilog_tb.checks with
     | [ c ] -> Alcotest.(check bool) "check failed as expected" false c.Verilog_tb.passed
     | _ -> Alcotest.fail "expected one check");
    Alcotest.(check bool) "did not reach $finish" false
      result.Verilog_tb.finished

let test_tb_unbound_signal () =
  let source =
    "module tb; reg [7:0] x; initial begin x = 8'd1; end endmodule"
  in
  match Verilog_tb.parse source with
  | Error message -> Alcotest.fail message
  | Ok program ->
    Alcotest.(check bool) "unbound raises" true
      (try
         ignore (Verilog_tb.run program ~cosim:(kcm_cosim ()) ~bindings:[]);
         false
       with Invalid_argument _ -> true)

(* {1 multi-IP suite} *)

let test_suite_select_and_run () =
  let suite =
    Suite.create ~ips:Catalog.all
      ~license:(License.of_tier License.Licensed) ~user:"multi" ()
  in
  Alcotest.(check string) "first selected" "VirtexKCMMultiplier"
    (Suite.selected suite).Jhdl_applet.Ip_module.ip_name;
  (match Suite.exec suite (Suite.Select "FirFilter") with
   | Ok _ -> ()
   | Error m -> Alcotest.fail m);
  (match Suite.exec suite (Suite.Ip_command Applet.Build) with
   | Ok text -> Alcotest.(check bool) "built the fir" true (contains ~needle:"FirFilter" text)
   | Error m -> Alcotest.fail m);
  match Suite.exec suite Suite.List_ips with
  | Ok text ->
    Alcotest.(check bool) "lists all three" true
      (contains ~needle:"UpCounter" text
       && contains ~needle:"VirtexKCMMultiplier" text)
  | Error m -> Alcotest.fail m

let test_suite_shared_meter () =
  (* passive tier caps builds at 20 across the whole suite *)
  let suite =
    Suite.create
      ~ips:[ Catalog.kcm; Catalog.counter ]
      ~license:(License.of_tier License.Passive) ~user:"multi" ()
  in
  for _ = 1 to 10 do
    match Suite.exec suite (Suite.Ip_command Applet.Build) with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m
  done;
  (match Suite.exec suite (Suite.Select "UpCounter") with
   | Ok _ -> ()
   | Error m -> Alcotest.fail m);
  for _ = 1 to 10 do
    match Suite.exec suite (Suite.Ip_command Applet.Build) with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m
  done;
  match Suite.exec suite (Suite.Ip_command Applet.Build) with
  | Error message ->
    Alcotest.(check bool) "cap shared across IPs" true
      (contains ~needle:"limit" message)
  | Ok _ -> Alcotest.fail "21st build should be refused"

let test_suite_bad_select () =
  let suite =
    Suite.create ~ips:[ Catalog.kcm ]
      ~license:(License.of_tier License.Vendor) ~user:"multi" ()
  in
  match Suite.exec suite (Suite.Select "Cordic") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should refuse unknown IP"

(* {1 bitstream / JBits} *)

let test_configure_and_readback () =
  let d = kcm_design ~constant:(-56) () in
  let config = Config_mem.create ~rows:32 ~cols:16 in
  let slices = Config_mem.configure config d in
  Alcotest.(check bool) "placed something" true (slices > 30);
  let luts = Config_mem.readback_luts config in
  let design_luts =
    Design.all_prims d
    |> List.filter (fun c ->
      match Cell.prim_of c with
      | Some (Prim.Lut _) | Some (Prim.Inv) -> true
      | Some _ | None -> false)
  in
  Alcotest.(check int) "every LUT configured" (List.length design_luts)
    (List.length luts)

let test_readback_recovers_inits () =
  (* a design with one distinctive LUT INIT must surface in readback *)
  let top = Cell.root ~name:"top" () in
  let a = Wire.create top ~name:"a" 4 in
  let o = Wire.create top ~name:"o" 1 in
  let init = Lut_init.of_hex ~inputs:4 "CAFE" in
  let _ = Virtex.lut4 top ~init (Wire.bit a 0) (Wire.bit a 1) (Wire.bit a 2) (Wire.bit a 3) o in
  let d = Design.create top in
  Design.add_port d "a" Types.Input a;
  Design.add_port d "o" Types.Output o;
  let config = Config_mem.create ~rows:4 ~cols:4 in
  let _ = Config_mem.configure config d in
  Alcotest.(check bool) "CAFE recovered" true
    (List.exists
       (fun (_, _, _, recovered) -> Lut_init.to_hex recovered = "CAFE")
       (Config_mem.readback_luts config))

let test_too_small_device () =
  let d = kcm_design ~constant:(-56) () in
  let config = Config_mem.create ~rows:2 ~cols:2 in
  Alcotest.(check bool) "does not fit" true
    (try ignore (Config_mem.configure config d); false
     with Invalid_argument _ -> true)

let test_partial_reconfiguration () =
  let base = Config_mem.create ~rows:32 ~cols:16 in
  let target = Config_mem.copy base in
  let d = kcm_design ~constant:(-56) () in
  let _ = Config_mem.configure target d in
  let delta = Config_mem.diff ~base ~target in
  Alcotest.(check bool) "touches a strict subset of columns" true
    (List.length delta < Config_mem.cols target);
  Config_mem.apply base delta;
  Alcotest.(check bool) "apply reproduces target" true
    (Config_mem.equal base target)

let test_jbits_delivery_roundtrip () =
  let d = kcm_design ~constant:(-56) () in
  let p = Jbits.package ~device_rows:32 ~device_cols:16 d in
  Alcotest.(check bool) "payload smaller than full bitstream" true
    (p.Jbits.payload_bytes
     < Config_mem.total_bytes (Config_mem.create ~rows:32 ~cols:16));
  let customer = Config_mem.create ~rows:32 ~cols:16 in
  Jbits.install ~into:customer p;
  let vendor_side = Config_mem.create ~rows:32 ~cols:16 in
  let _ = Config_mem.configure vendor_side d in
  Alcotest.(check bool) "customer config matches vendor's" true
    (Config_mem.equal customer vendor_side)

let test_jbits_geometry_check () =
  let d = kcm_design ~constant:7 () in
  let p = Jbits.package ~device_rows:32 ~device_cols:16 d in
  let wrong = Config_mem.create ~rows:16 ~cols:16 in
  Alcotest.(check bool) "geometry mismatch raises" true
    (try Jbits.install ~into:wrong p; false
     with Invalid_argument _ -> true)

let test_visibility_table () =
  let d = kcm_design ~constant:(-56) () in
  let p = Jbits.package ~device_rows:32 ~device_cols:16 d in
  let edif_bytes = String.length (Edif.of_design d) in
  let table =
    Format.asprintf "%a" Jbits.pp_visibility_table
      [ Jbits.visibility_of_netlist ~bytes:edif_bytes;
        Jbits.visibility_of_package p;
        Jbits.visibility_of_applet ~bytes:16009 ]
  in
  Alcotest.(check bool) "netlist row shows everything" true
    (contains ~needle:"structural netlist" table);
  Alcotest.(check bool) "jbits row present" true
    (contains ~needle:"JBits" table)

let test_bitstream_determinism () =
  let build () =
    let config = Config_mem.create ~rows:32 ~cols:16 in
    let _ = Config_mem.configure config (kcm_design ~constant:(-56) ()) in
    config
  in
  Alcotest.(check bool) "same design, same bits" true
    (Config_mem.equal (build ()) (build ()))

let suite =
  [ Alcotest.test_case "xnf output" `Quick test_xnf_output;
    Alcotest.test_case "xnf symbol count" `Quick test_xnf_symbol_count;
    Alcotest.test_case "edif parse-back" `Quick test_edif_parse_back;
    Alcotest.test_case "edif reader rejects garbage" `Quick
      test_edif_reader_rejects_garbage;
    Alcotest.test_case "edif reader sexp" `Quick test_edif_reader_sexp;
    Alcotest.test_case "edif reader bounds nesting" `Quick
      test_edif_reader_bounds_nesting;
    Alcotest.test_case "tb parse" `Quick test_tb_parse;
    Alcotest.test_case "tb run against black box" `Quick
      test_tb_run_against_blackbox;
    Alcotest.test_case "tb parse errors" `Quick test_tb_parse_errors;
    Alcotest.test_case "tb failed check" `Quick test_tb_failed_check_reported;
    Alcotest.test_case "tb unbound signal" `Quick test_tb_unbound_signal;
    Alcotest.test_case "suite select and run" `Quick test_suite_select_and_run;
    Alcotest.test_case "suite shared meter" `Quick test_suite_shared_meter;
    Alcotest.test_case "suite bad select" `Quick test_suite_bad_select;
    Alcotest.test_case "configure and readback" `Quick
      test_configure_and_readback;
    Alcotest.test_case "readback recovers inits" `Quick
      test_readback_recovers_inits;
    Alcotest.test_case "too small device" `Quick test_too_small_device;
    Alcotest.test_case "partial reconfiguration" `Quick
      test_partial_reconfiguration;
    Alcotest.test_case "jbits delivery roundtrip" `Quick
      test_jbits_delivery_roundtrip;
    Alcotest.test_case "jbits geometry check" `Quick test_jbits_geometry_check;
    Alcotest.test_case "visibility table" `Quick test_visibility_table;
    Alcotest.test_case "bitstream determinism" `Quick test_bitstream_determinism ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_edif_roundtrip_counts ]
