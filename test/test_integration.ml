(* End-to-end integration: the complete vendor -> customer lifecycle,
   crossing every subsystem in one scenario.

   Vendor publishes the catalog on a server; an evaluating customer
   browses and black-box simulates; a licensed customer downloads
   (encrypted), builds, runs the vendor's shipped testbench, exports a
   watermarked netlist, parse-backs the EDIF, integrates the IP next to
   local logic, and finally receives the same core as a JBits partial
   bitstream that matches the netlist delivery LUT-for-LUT. *)

module Bits = Jhdl_logic.Bits
module Lut_init = Jhdl_logic.Lut_init
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Types = Jhdl_circuit.Types
module Prim = Jhdl_circuit.Prim
module Simulator = Jhdl_sim.Simulator
module Testbench = Jhdl_sim.Testbench
module Edif_reader = Jhdl_netlist.Edif_reader
module Model = Jhdl_netlist.Model
module Kcm = Jhdl_modgen.Kcm
module Server = Jhdl_webserver.Server
module Secure_channel = Jhdl_webserver.Secure_channel
module Applet = Jhdl_applet.Applet
module Catalog = Jhdl_applet.Catalog
module License = Jhdl_applet.License
module Ip_module = Jhdl_applet.Ip_module
module Watermark = Jhdl_security.Watermark
module Network = Jhdl_netproto.Network
module Endpoint = Jhdl_netproto.Endpoint
module Cosim = Jhdl_netproto.Cosim
module Config_mem = Jhdl_bitstream.Config_mem
module Jbits = Jhdl_bitstream.Jbits
module Download = Jhdl_bundle.Download

let ok = function
  | Ok v -> v
  | Error message -> Alcotest.failf "unexpected error: %s" message

(* the KCM page through the one front door, its refusal reduced to the
   reason *)
let serve server ~user =
  Result.map_error
    (fun rejection -> rejection.Server.rej_reason)
    (Server.user_request server ~now:0.0 ~user ~ip_name:"VirtexKCMMultiplier"
       ~link:Download.dsl_1m ())

let test_full_lifecycle () =
  (* 1. vendor stands up the server *)
  let server = Server.create ~vendor:"BYU Configurable Computing Lab" () in
  List.iter (fun ip -> ignore (Server.publish server ip)) Catalog.all;
  Server.register_user server ~user:"eve" ~tier:License.Evaluator;
  Server.register_user server ~user:"pat" ~tier:License.Licensed;

  (* 2. evaluator browses, builds and black-box simulates; cannot export *)
  let eve_session =
    ok (serve server ~user:"eve")
  in
  let eve_applet = eve_session.Server.applet in
  List.iter
    (fun (k, v) -> ignore (ok (Applet.exec eve_applet (Applet.Set_param (k, v)))))
    [ ("product_width", "19"); ("pipelined", "false"); ("constant", "-56") ];
  let _ = ok (Applet.exec eve_applet Applet.Build) in
  Alcotest.(check bool) "evaluator cannot netlist" true
    (Result.is_error (Applet.exec eve_applet (Applet.Netlist "EDIF")));
  let endpoint = Option.get (Endpoint.of_applet ~name:"kcm" eve_applet) in
  let cosim = Cosim.create () in
  Cosim.attach cosim endpoint Network.dsl;
  Cosim.set_inputs cosim ~box:"kcm"
    [ ("multiplicand", Bits.of_int ~width:8 (-77)) ];
  Alcotest.(check (option int)) "black-box product" (Some (56 * 77))
    (Bits.to_signed_int (Cosim.get_output cosim ~box:"kcm" "product"));

  (* 3. licensed customer downloads encrypted jars and opens them *)
  let pat_session = ok (serve server ~user:"pat") in
  let sealed = Server.seal server pat_session in
  let token = Option.get (Server.user_token server ~user:"pat") in
  List.iter (fun s -> ignore (ok (Secure_channel.open_sealed ~token s))) sealed;

  (* 4. builds and runs a vendor-shipped declarative bench *)
  let pat_applet = pat_session.Server.applet in
  List.iter
    (fun (k, v) -> ignore (ok (Applet.exec pat_applet (Applet.Set_param (k, v)))))
    [ ("product_width", "15"); ("pipelined", "false"); ("constant", "-56") ];
  let _ = ok (Applet.exec pat_applet Applet.Build) in
  let sim = Option.get (Applet.simulator pat_applet) in
  let bench =
    Testbench.vectors ~mode:`Settle ~inputs:[ "multiplicand" ]
      ~outputs:[ "product" ]
      (List.map
         (fun x ->
            ( [ Bits.of_int ~width:8 x ],
              [ Bits.of_int ~width:15 (-56 * x) ] ))
         [ 0; 1; -1; 100; -100; 127; -128 ])
  in
  let report = Testbench.run sim bench in
  Alcotest.(check bool)
    (Format.asprintf "vendor bench passes: %a" Testbench.pp_report report)
    true (Testbench.passed report);

  (* 5. exports a watermarked EDIF and parse-backs it *)
  let edif = ok (Applet.exec pat_applet (Applet.Netlist "EDIF")) in
  let design = Option.get (Applet.built_design pat_applet) in
  Alcotest.(check bool) "watermarked for the vendor" true
    (Watermark.verify design ~vendor:Catalog.kcm.Ip_module.vendor);
  let summary = ok (Edif_reader.read edif) in
  let model = Model.of_design design in
  Alcotest.(check int) "EDIF instances match the model"
    (Model.instance_count model)
    summary.Edif_reader.instance_count;

  (* 6. the same core arrives as a JBits partial bitstream; the LUT
     contents recoverable from the frames equal the netlist's INITs *)
  let package = Jbits.package ~device_rows:32 ~device_cols:16 design in
  let customer_config = Config_mem.create ~rows:32 ~cols:16 in
  Jbits.install ~into:customer_config package;
  let bitstream_inits =
    Config_mem.readback_luts customer_config
    |> List.map (fun (_, _, _, init) -> Lut_init.to_hex init)
    |> List.sort String.compare
  in
  let netlist_inits =
    Design.all_prims design
    |> List.filter_map (fun c ->
      match Cell.prim_of c with
      | Some (Prim.Lut init) ->
        (* the bitstream widens every table to LUT4 *)
        Some
          (Lut_init.to_hex
             (Lut_init.of_function ~inputs:4 (fun addr ->
                Lut_init.eval_int init
                  (addr land ((1 lsl Lut_init.inputs init) - 1)))))
      | Some Prim.Inv ->
        Some
          (Lut_init.to_hex
             (Lut_init.of_function ~inputs:4 (fun addr -> addr land 1 = 0)))
      | Some _ | None -> None)
    |> List.sort String.compare
  in
  Alcotest.(check (list string))
    "bitstream readback equals netlist LUT contents" netlist_inits
    bitstream_inits

(* a second integration axis: one design flowing through every netlist
   format plus the simulator and the estimator without disagreement on
   size *)
let test_design_consistency_across_tools () =
  let top = Cell.root ~name:"consistency" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let m = Wire.create top ~name:"m" 10 in
  let p = Wire.create top ~name:"p" 18 in
  let _ =
    Kcm.create top ~clk ~multiplicand:m ~product:p ~signed_mode:true
      ~pipelined_mode:true ~constant:333 ()
  in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "m" Types.Input m;
  Design.add_port d "p" Types.Output p;
  let stats = Design.stats d in
  let model = Model.of_design d in
  Alcotest.(check int) "model sees every primitive"
    stats.Design.primitive_instances (Model.instance_count model);
  let sim = Simulator.create ~clock:clk d in
  Alcotest.(check int) "simulator sees every primitive"
    stats.Design.primitive_instances (Simulator.prim_count sim);
  let area = Jhdl_estimate.Estimate.area_of_design d in
  let by_type_total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 area.Jhdl_estimate.Estimate.prims_by_type
  in
  Alcotest.(check int) "estimator sees every primitive"
    stats.Design.primitive_instances by_type_total;
  (* all four formats render without raising and scale together *)
  let sizes =
    List.map
      (fun f -> String.length (Jhdl_netlist.Format_kind.write f model))
      Jhdl_netlist.Format_kind.all
    @ [ String.length (Jhdl_netlist.Xnf.to_string model) ]
  in
  List.iter
    (fun size -> Alcotest.(check bool) "non-trivial netlist" true (size > 3000))
    sizes

let suite =
  [ Alcotest.test_case "full vendor-customer lifecycle" `Quick
      test_full_lifecycle;
    Alcotest.test_case "design consistency across tools" `Quick
      test_design_consistency_across_tools ]
