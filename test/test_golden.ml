(* Golden bytes: the MD5 of every text a delivery writes from an
   elaborated design — EDIF, VHDL, Verilog and XNF netlists and the
   snapshot descriptor the design store charges and signs — for each
   catalog IP at its defaults and at its largest parameter point. The
   digests were recorded before the export walks were rewritten for
   speed; any byte a writer or the flattened model changes fails here
   with the format and the point named. *)

module Types = Jhdl_circuit.Types
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Virtex = Jhdl_virtex.Virtex
module Edif = Jhdl_netlist.Edif
module Edif_reader = Jhdl_netlist.Edif_reader
module Vhdl = Jhdl_netlist.Vhdl
module Verilog = Jhdl_netlist.Verilog
module Xnf = Jhdl_netlist.Xnf
module Model = Jhdl_netlist.Model
module Snapshot = Jhdl_sim.Snapshot
module Ip_module = Jhdl_applet.Ip_module
module Catalog = Jhdl_applet.Catalog

let int n = Ip_module.Int_value n
let bool b = Ip_module.Bool_value b

(* every integer at its maximum and every flag set; FIR takes a signed
   five-tap set *)
let largest =
  [ ("VirtexKCMMultiplier",
     [ ("multiplicand_width", int 16); ("product_width", int 32);
       ("signed", bool true); ("pipelined", bool true);
       ("constant", int 32767) ]);
    ("FirFilter",
     [ ("input_width", int 12); ("output_width", int 40);
       ("signed", bool true); ("taps", Ip_module.Choice_value "highpass5") ]);
    ("UpCounter", [ ("width", int 16); ("has_enable", bool true) ]);
    ("CordicRotator",
     [ ("width", int 32); ("iterations", int 32); ("pipelined", bool true) ]);
    ("WallaceTreeMultiplier",
     [ ("a_width", int 12); ("b_width", int 12); ("product_width", int 24) ]);
    ("PipelinedDivider",
     [ ("dividend_width", int 12); ("divisor_width", int 8);
       ("pipelined", bool true) ]) ]

(* No catalog name collides once legalized, so one hand-built design
   makes every format pick collision suffixes: net [a/b] beside wire
   [a_b], bus bit [q[0]] beside wire [q_0_], instance [a/inv] beside
   [a_inv], and [A_b] beside [a_b] for case-blind VHDL. *)
let colliding_names () =
  let top = Cell.root ~name:"top" () in
  let x = Wire.create top ~name:"x" 1 in
  let ab = Wire.create top ~name:"a_b" 1 in
  let ab_upper = Wire.create top ~name:"A_b" 1 in
  let q = Wire.create top ~name:"q" 2 in
  let q0 = Wire.create top ~name:"q_0_" 1 in
  let child =
    Cell.composite top ~name:"a"
      ~ports:[ ("i", Types.Input, x); ("o", Types.Output, ab) ] ()
  in
  let b = Wire.create child ~name:"b" 1 in
  let _ = Virtex.inv child ~name:"inv" x b in
  let _ = Virtex.buf child ~name:"buf" b ab in
  let _ = Virtex.inv top ~name:"a_inv" ab ab_upper in
  let _ = Virtex.and2 top ~name:"a_buf" ab ab_upper (Wire.bit q 0) in
  let _ = Virtex.xor2 top ab_upper x (Wire.bit q 1) in
  let _ = Virtex.buf top (Wire.bit q 0) q0 in
  let d = Design.create top in
  Design.add_port d "x" Types.Input x;
  Design.add_port d "y" Types.Output q;
  Design.add_port d "y_0_" Types.Output q0;
  d

(* (ip, point) -> (edif, vhdl, verilog, xnf, descriptor) *)
let golden =
  [ (("VirtexKCMMultiplier", "defaults"),
     [ ("edif", "b48d373b5339164c35148db258bb3779");
       ("vhdl", "13d3fa41afa29ec3085d8a6fb89c64db");
       ("verilog", "2eebc08fbc4ea2bf6a2e43a4eac0d7a5");
       ("xnf", "439bcba27409b5b9c2154a3366e37ed5");
       ("descriptor", "c31750235ebe91395b8182e5f036fba3") ]);
    (("VirtexKCMMultiplier", "largest"),
     [ ("edif", "07e527435afb81ebe7be9314ed778346");
       ("vhdl", "a07af651100f617091d4b471de5ede80");
       ("verilog", "50bb9b7b8d87c61a0949d37a49a620c9");
       ("xnf", "02d9c52b8f8df9a9b50555e57f808694");
       ("descriptor", "cf888dc9043cc709bd5d32e0dc414f67") ]);
    (("FirFilter", "defaults"),
     [ ("edif", "58adf68923ecda7fca0ceb7f2717ba1a");
       ("vhdl", "077f122a01151234f2f2b42baa4ccf2e");
       ("verilog", "255f462666f2fe99724300b683bac499");
       ("xnf", "be182fb3343a96af8e70ef1c10827604");
       ("descriptor", "dc6dc8c4c30ade89a50b31bedb1675e8") ]);
    (("FirFilter", "largest"),
     [ ("edif", "31b5a5bfbd564244d9441c79ce943898");
       ("vhdl", "d05013fba3ccfafd8ca05460e74a9669");
       ("verilog", "31d2449d5e2dcda4e7338ba46f244e49");
       ("xnf", "e6f0ca3ba11401e9974dd69a1d65ec2a");
       ("descriptor", "df1a1bd27807e12d323616562a49b074") ]);
    (("UpCounter", "defaults"),
     [ ("edif", "4fc615b38ec8b9dbbc01358dbf6e55f8");
       ("vhdl", "8bf6da5254c777b1128ca7bb6dd33ce8");
       ("verilog", "814852dbed192dc94acb94358806e1f4");
       ("xnf", "d921e1f093604786d67d1668f23ac3c7");
       ("descriptor", "7c940827a4c557c20257114e8252938d") ]);
    (("UpCounter", "largest"),
     [ ("edif", "bf4d6ecec87ab9368226edbbe8f0c8e3");
       ("vhdl", "2c6e62fa2bb9178d4861dd9cf02ea610");
       ("verilog", "aee14542b8d75769143fbf2a751eeb66");
       ("xnf", "fa25b8dd801a18a0ae10ac9654b9c2d3");
       ("descriptor", "99f3b76916dc89b45bf8b00cbdf2698c") ]);
    (("CordicRotator", "defaults"),
     [ ("edif", "bc75449abdb60d18dde34391ddb39e18");
       ("vhdl", "3ef3abeea9f428871ef20bd2dc6871aa");
       ("verilog", "dfddb00f2cc99bf255d86449d7b9078a");
       ("xnf", "16469751368afd4a730d29fe63d0583d");
       ("descriptor", "108e5fadd24cd3489d46373ef61da64b") ]);
    (("CordicRotator", "largest"),
     [ ("edif", "71b7e68299c117712c7e664defc2f5e1");
       ("vhdl", "86fe316cab5f27356f172cbf3f9dde37");
       ("verilog", "b17c969784b239a476896651b994b374");
       ("xnf", "2e45e56556c8b34f3fe00d5eb3fc8ef0");
       ("descriptor", "ca8b0d1647d440c9841a7820d81bc038") ]);
    (("WallaceTreeMultiplier", "defaults"),
     [ ("edif", "ca92fa53f5a25e905995a585332973c8");
       ("vhdl", "7e71c059aa675b4b964ac363c6909d82");
       ("verilog", "2f1b09b0e746cb4e21e4f6d2399ab717");
       ("xnf", "8e1ed21315ca6300ca782b9408147e4d");
       ("descriptor", "78d153288d9f5bf1a7d6151b06763007") ]);
    (("WallaceTreeMultiplier", "largest"),
     [ ("edif", "68ab430a2724677fdce16a5a1492d696");
       ("vhdl", "df9580d64e6590d2d6646329e37f0062");
       ("verilog", "ca2441aef12f2d7383d078b5c0040f74");
       ("xnf", "0d3de122d342a25e4b0b2339f52b39bc");
       ("descriptor", "d9b45b3566e1445dfcccc0309a748122") ]);
    (("PipelinedDivider", "defaults"),
     [ ("edif", "e4e4ca2587dff5989ab38cd9c4b8eb51");
       ("vhdl", "d45cc1cee90fcab8e982ca90bef87734");
       ("verilog", "aa18ca33039deac16d5432c8b3f91ac1");
       ("xnf", "08ce209c0026fcf724bbc9dd5de976e5");
       ("descriptor", "125d3254523ea1297216ae1394947dfd") ]);
    (("PipelinedDivider", "largest"),
     [ ("edif", "5f1b691c168272813c614a5d6be9d440");
       ("vhdl", "15dfaf7bd7c022ba95e2f5f497cd270a");
       ("verilog", "dcba9b320d726f2a6be936cf7f48c30b");
       ("xnf", "e4b93a3e3441c790e104f4c31e9ae650");
       ("descriptor", "0fae9dca567725c50722a7538f9f1873") ]);
    (("colliding names", "hand-built"),
     [ ("edif", "2889f8f3c37cdd73c476a0af28b31c17");
       ("vhdl", "823cc93c2bae104379d506bb303d5f5a");
       ("verilog", "6d6a7ce55b9dffa930f4c282c9785825");
       ("xnf", "7e7f0e47a26c91b6c2b9e901a8a71bc4");
       ("descriptor", "19aa114049ed16a35e21bc602c6928f4") ]) ]

let design_of ip assignment =
  match Catalog.elaborate ip assignment with
  | Ok built -> built.Ip_module.design
  | Error e -> Alcotest.fail (Catalog.elaboration_error_to_string e)

(* (name, point, design) for every pinned design *)
let points () =
  List.concat_map
    (fun ip ->
       let name = ip.Ip_module.ip_name in
       [ (name, "defaults", design_of ip (Ip_module.defaults ip));
         (name, "largest", design_of ip (List.assoc name largest)) ])
    Catalog.all
  @ [ ("colliding names", "hand-built", colliding_names ()) ]

let md5 s = Digest.to_hex (Digest.string s)

let test_digests () =
  List.iter
    (fun (name, point, d) ->
       let m = Model.of_design d in
       let expected = List.assoc (name, point) golden in
       List.iter
         (fun (format, text) ->
            Alcotest.(check string)
              (Printf.sprintf "%s %s %s" name point format)
              (List.assoc format expected) (md5 text))
         [ ("edif", Edif.to_string m); ("vhdl", Vhdl.to_string m);
           ("verilog", Verilog.to_string m); ("xnf", Xnf.to_string m);
           ("descriptor", Snapshot.descriptor d) ])
    (points ())

(* the reader takes every golden netlist back: one instance per model
   instance, one port per design port, and one net per model net that
   some instance pin or port bit joins *)
let test_read_back () =
  List.iter
    (fun (name, point, d) ->
       let m = Model.of_design d in
       let joined = Hashtbl.create 256 in
       Array.iter
         (fun inst ->
            List.iter
              (fun c -> Hashtbl.replace joined c.Model.conn_net ())
              inst.Model.inst_conns)
         m.Model.instances;
       List.iter
         (fun p -> Array.iter (fun n -> Hashtbl.replace joined n ()) p.Model.p_nets)
         m.Model.ports;
       let label what = Printf.sprintf "%s %s %s" name point what in
       match Edif_reader.read (Edif.to_string m) with
       | Error e -> Alcotest.fail (label e)
       | Ok s ->
         Alcotest.(check int) (label "instances") (Model.instance_count m)
           s.Edif_reader.instance_count;
         Alcotest.(check int) (label "ports") (List.length m.Model.ports)
           s.Edif_reader.port_count;
         Alcotest.(check int) (label "nets") (Hashtbl.length joined)
           s.Edif_reader.net_count)
    (points ())

let suite =
  [ Alcotest.test_case "golden digests" `Quick test_digests;
    Alcotest.test_case "golden edif reads back" `Quick test_read_back ]
