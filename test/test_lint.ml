(* Lint engine tests: every module generator lints clean at error
   severity, deliberately mutated designs trip exactly their rule, the
   legacy Design.validate API surfaces net contention, and the JSON
   report shape is pinned. *)

module Bit = Jhdl_logic.Bit
module Lut_init = Jhdl_logic.Lut_init
module Types = Jhdl_circuit.Types
module Prim = Jhdl_circuit.Prim
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Simulator = Jhdl_sim.Simulator
module Reference = Jhdl_sim.Reference
module Estimate = Jhdl_estimate.Estimate
module Placer = Jhdl_place.Placer
module Adders = Jhdl_modgen.Adders
module Dafir = Jhdl_modgen.Dafir
module Datapath = Jhdl_modgen.Datapath
module Multiplier = Jhdl_modgen.Multiplier
module Misc_logic = Jhdl_modgen.Misc_logic
module Catalog = Jhdl_applet.Catalog
module Ip_module = Jhdl_applet.Ip_module
module Lint = Jhdl_lint.Lint
module Const_prop = Jhdl_lint.Const_prop

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let rule_ids report =
  List.sort_uniq compare
    (List.map (fun d -> d.Lint.rule_id) report.Lint.diagnostics)

let has_rule id report = List.mem id (rule_ids report)

(* {1 generator coverage: stock modules lint clean at error severity} *)

let comb_design ~widths build =
  let top = Cell.root ~name:"top" () in
  let wires =
    List.map (fun (name, w, dir) -> (name, dir, Wire.create top ~name w)) widths
  in
  build top (fun name -> match List.find (fun (n, _, _) -> n = name) wires with
    | (_, _, w) -> w);
  let d = Design.create top in
  List.iter (fun (name, dir, w) -> Design.add_port d name dir w) wires;
  d

let generator_designs () =
  let i = Types.Input and o = Types.Output in
  List.map
    (fun ip ->
       ( ip.Ip_module.ip_name,
         (ip.Ip_module.build (Ip_module.defaults ip)).Ip_module.design ))
    Catalog.all
  @ [ ( "carry_chain_adder",
        comb_design
          ~widths:[ ("a", 8, i); ("b", 8, i); ("sum", 8, o) ]
          (fun top w ->
             ignore (Adders.carry_chain top ~a:(w "a") ~b:(w "b") ~sum:(w "sum") ())) );
      ( "ripple_adder",
        comb_design
          ~widths:[ ("a", 6, i); ("b", 6, i); ("sum", 6, o) ]
          (fun top w ->
             ignore (Adders.ripple_carry top ~a:(w "a") ~b:(w "b") ~sum:(w "sum") ())) );
      ( "dafir",
        comb_design
          ~widths:[ ("clk", 1, i); ("x", 6, i); ("y", 12, o) ]
          (fun top w ->
             ignore
               (Dafir.create top ~clk:(w "clk") ~x:(w "x") ~y:(w "y")
                  ~signed_mode:false ~coefficients:[ 1; 2; 3 ] ())) );
      ( "datapath_mux_parity",
        comb_design
          ~widths:[ ("sel", 1, i); ("m0", 4, i); ("m1", 4, i); ("out", 4, o);
                    ("p", 1, o) ]
          (fun top w ->
             ignore
               (Datapath.mux_n top ~sel:(w "sel")
                  ~inputs:[ w "m0"; w "m1" ] ~out:(w "out") ());
             ignore (Datapath.parity top ~x:(w "m0") ~p:(w "p") ())) );
      ( "datapath_delay_regfile",
        comb_design
          ~widths:[ ("clk", 1, i); ("ce", 1, i); ("we", 1, i); ("waddr", 3, i);
                    ("raddr", 3, i); ("d", 4, i); ("dq", 4, o); ("q", 4, o) ]
          (fun top w ->
             ignore
               (Datapath.delay_line top ~clk:(w "clk") ~ce:(w "ce") ~depth:3
                  ~d:(w "d") ~q:(w "dq") ());
             ignore
               (Datapath.register_file top ~clk:(w "clk") ~we:(w "we")
                  ~waddr:(w "waddr") ~raddr:(w "raddr") ~d:(w "d") ~q:(w "q") ())) );
      ( "array_multiplier",
        comb_design
          ~widths:[ ("a", 4, i); ("b", 4, i); ("product", 8, o) ]
          (fun top w ->
             ignore
               (Multiplier.array_mult top ~a:(w "a") ~b:(w "b")
                  ~product:(w "product") ())) );
      ( "signed_multiplier",
        comb_design
          ~widths:[ ("a", 4, i); ("b", 4, i); ("product", 8, o) ]
          (fun top w ->
             ignore
               (Multiplier.signed_mult top ~a:(w "a") ~b:(w "b")
                  ~product:(w "product") ())) );
      ( "misc_logic",
        comb_design
          ~widths:[ ("clk", 1, i); ("x", 8, i); ("amount", 3, i); ("y", 8, o);
                    ("idx", 3, o); ("valid", 1, o); ("lq", 8, o); ("gq", 4, o) ]
          (fun top w ->
             ignore
               (Misc_logic.lfsr top ~clk:(w "clk") ~taps:[ 8; 6; 5; 4 ]
                  ~q:(w "lq") ());
             ignore
               (Misc_logic.barrel_shift_left top ~x:(w "x")
                  ~amount:(w "amount") ~y:(w "y") ());
             ignore
               (Misc_logic.priority_encoder top ~x:(w "x") ~index:(w "idx")
                  ~valid:(w "valid") ());
             ignore
               (Misc_logic.gray_counter top ~clk:(w "clk") ~q:(w "gq") ())) ) ]

let test_generators_clean () =
  List.iter
    (fun (name, d) ->
       let report = Lint.run d in
       Alcotest.(check (list string))
         (name ^ " has no error-severity findings") []
         (List.map (fun diag -> diag.Lint.rule_id ^ ": " ^ diag.Lint.message)
            (Lint.errors report)))
    (generator_designs ())

(* {1 mutants: each defect trips its rule} *)

(* a net with two drivers, built with the opt-in contention flag *)
let contended_design () =
  let top = Cell.root ~name:"top" () in
  let a = Wire.create top ~name:"a" 1 in
  let b = Wire.create top ~name:"b" 1 in
  let clash = Wire.create top ~name:"clash" 1 in
  let _ = Cell.prim top ~name:"d0" Prim.Buf ~conns:[ ("I", a); ("O", clash) ] in
  let _ =
    Cell.prim top ~name:"d1" ~allow_contention:true Prim.Buf
      ~conns:[ ("I", b); ("O", clash) ]
  in
  let d = Design.create top in
  Design.add_port d "a" Types.Input a;
  Design.add_port d "b" Types.Input b;
  Design.add_port d "clash" Types.Output clash;
  d

let test_multi_driver_rule () =
  let report = Lint.run (contended_design ()) in
  Alcotest.(check bool) "L001 fires" true (has_rule "L001" report);
  let diag =
    List.find (fun d -> d.Lint.rule_id = "L001") report.Lint.diagnostics
  in
  Alcotest.(check bool) "error severity" true (diag.Lint.severity = Lint.Error);
  Alcotest.(check bool) "names both drivers" true
    (contains ~needle:"top/d0.O" diag.Lint.message
     && contains ~needle:"top/d1.O" diag.Lint.message)

(* regression: the legacy validate/errors API must surface contention
   (it silently accepted multi-driven nets before the lint engine) *)
let test_multi_driver_legacy_validate () =
  let d = contended_design () in
  let contended =
    List.filter_map
      (function
        | Design.Contended_net { wire; drivers; _ } -> Some (wire, drivers)
        | _ -> None)
      (Design.validate d)
  in
  (match contended with
   | [ (wire, drivers) ] ->
     Alcotest.(check bool) "wire named" true (contains ~needle:"clash" wire);
     Alcotest.(check int) "two drivers" 2 (List.length drivers)
   | _ -> Alcotest.fail "expected exactly one Contended_net violation");
  Alcotest.(check bool) "errors includes contention" true
    (List.exists
       (function Design.Contended_net _ -> true | _ -> false)
       (Design.errors d))

(* an internal driver on a net also bound to a top-level input port *)
let test_input_port_contention () =
  let top = Cell.root ~name:"top" () in
  let a = Wire.create top ~name:"a" 1 in
  let x = Wire.create top ~name:"x" 1 in
  let _ = Cell.prim top ~name:"drv" Prim.Buf ~conns:[ ("I", a); ("O", x) ] in
  let d = Design.create top in
  Design.add_port d "a" Types.Input a;
  Design.add_port d "x" Types.Input x;
  let report = Lint.run d in
  Alcotest.(check bool) "L001 fires" true (has_rule "L001" report);
  Alcotest.(check bool) "pseudo-driver named" true
    (List.exists
       (function
         | Design.Contended_net { drivers; _ } ->
           List.mem "top-level input port" drivers
         | _ -> false)
       (Design.validate d))

let clocked_mutant ~gate_clock () =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let en = Wire.create top ~name:"en" 1 in
  let d_in = Wire.create top ~name:"d_in" 1 in
  let q = Wire.create top ~name:"q" 1 in
  let ff_clk =
    if gate_clock then begin
      let gated = Wire.create top ~name:"gated" 1 in
      let _ =
        Cell.prim top ~name:"gate"
          (Prim.Lut (Lut_init.and_all ~inputs:2))
          ~conns:[ ("I0", clk); ("I1", en); ("O", gated) ]
      in
      gated
    end
    else clk
  in
  let _ =
    Cell.prim top ~name:"ff"
      (Prim.Ff
         { clock_enable = false; async_clear = false; sync_reset = false;
           init = Bit.Zero })
      ~conns:[ ("C", ff_clk); ("D", d_in); ("Q", q) ]
  in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "en" Types.Input en;
  Design.add_port d "d_in" Types.Input d_in;
  Design.add_port d "q" Types.Output q;
  d

let test_gated_clock_rule () =
  let report = Lint.run (clocked_mutant ~gate_clock:true ()) in
  Alcotest.(check bool) "L101 fires" true (has_rule "L101" report);
  let clean = Lint.run (clocked_mutant ~gate_clock:false ()) in
  Alcotest.(check bool) "ungated twin is clean" false (has_rule "L101" clean)

let test_dead_logic_rule () =
  let top = Cell.root ~name:"top" () in
  let a = Wire.create top ~name:"a" 1 in
  let live = Wire.create top ~name:"live" 1 in
  let dead1 = Wire.create top ~name:"dead1" 1 in
  let dead2 = Wire.create top ~name:"dead2" 1 in
  let _ = Cell.prim top ~name:"keep" Prim.Inv ~conns:[ ("I", a); ("O", live) ] in
  (* a two-cell cone reaching no output *)
  let _ = Cell.prim top ~name:"lost1" Prim.Inv ~conns:[ ("I", a); ("O", dead1) ] in
  let _ =
    Cell.prim top ~name:"lost2" Prim.Buf ~conns:[ ("I", dead1); ("O", dead2) ]
  in
  let d = Design.create top in
  Design.add_port d "a" Types.Input a;
  Design.add_port d "live" Types.Output live;
  Design.add_port d "dead2" Types.Output dead2;
  (* dead2 exposed: nothing is dead *)
  Alcotest.(check bool) "cone reaching a port is live" false
    (has_rule "L008" (Lint.run d));
  (* rebuild without exposing the cone *)
  let top2 = Cell.root ~name:"top" () in
  let a2 = Wire.create top2 ~name:"a" 1 in
  let live2 = Wire.create top2 ~name:"live" 1 in
  let dead1' = Wire.create top2 ~name:"dead1" 1 in
  let dead2' = Wire.create top2 ~name:"dead2" 1 in
  let _ = Cell.prim top2 ~name:"keep" Prim.Inv ~conns:[ ("I", a2); ("O", live2) ] in
  let _ = Cell.prim top2 ~name:"lost1" Prim.Inv ~conns:[ ("I", a2); ("O", dead1') ] in
  let _ =
    Cell.prim top2 ~name:"lost2" Prim.Buf ~conns:[ ("I", dead1'); ("O", dead2') ]
  in
  let d2 = Design.create top2 in
  Design.add_port d2 "a" Types.Input a2;
  Design.add_port d2 "live" Types.Output live2;
  let report = Lint.run d2 in
  Alcotest.(check bool) "L008 fires" true (has_rule "L008" report);
  let diag =
    List.find (fun x -> x.Lint.rule_id = "L008") report.Lint.diagnostics
  in
  Alcotest.(check (list string)) "both cells of the cone listed"
    [ "top/lost1"; "top/lost2" ]
    (List.sort compare diag.Lint.cells)

(* {1 constant propagation} *)

let test_const_prop_stuck_ff () =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let zero = Wire.create top ~name:"zero" 1 in
  let q = Wire.create top ~name:"q" 1 in
  let _ = Cell.prim top ~name:"gnd" Prim.Gnd ~conns:[ ("G", zero) ] in
  let _ =
    Cell.prim top ~name:"ff"
      (Prim.Ff
         { clock_enable = false; async_clear = false; sync_reset = false;
           init = Bit.Zero })
      ~conns:[ ("C", clk); ("D", zero); ("Q", q) ]
  in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "q" Types.Output q;
  let cp = Const_prop.analyze d in
  Alcotest.(check bool) "Q is constant zero" true
    (Const_prop.equal_value
       (Const_prop.net_value cp (Wire.nets q).(0))
       (Const_prop.Const Bit.Zero));
  let report = Lint.run d in
  Alcotest.(check bool) "L006 fires" true (has_rule "L006" report)

let test_const_prop_lut_fold () =
  let top = Cell.root ~name:"top" () in
  let a = Wire.create top ~name:"a" 1 in
  let o = Wire.create top ~name:"o" 1 in
  (* x AND (NOT x) through one LUT2 with both inputs tied together *)
  let init = Lut_init.of_function ~inputs:2 (fun addr -> addr = 1) in
  let _ =
    Cell.prim top ~name:"l" (Prim.Lut init)
      ~conns:[ ("I0", a); ("I1", a); ("O", o) ]
  in
  let d = Design.create top in
  Design.add_port d "a" Types.Input a;
  Design.add_port d "o" Types.Output o;
  (* entries 01 and 10 are never addressed; with I0 = I1 the LUT only
     sees 00 and 11, both mapping to 0 — but the pessimistic analysis
     cannot see the correlation, so it must NOT claim constness *)
  let cp = Const_prop.analyze d in
  Alcotest.(check bool) "correlated inputs stay Varies" true
    (Const_prop.equal_value
       (Const_prop.net_value cp (Wire.nets o).(0))
       Const_prop.Varies);
  (* a genuinely constant LUT is claimed *)
  let top2 = Cell.root ~name:"top" () in
  let a2 = Wire.create top2 ~name:"a" 1 in
  let o2 = Wire.create top2 ~name:"o" 1 in
  let _ =
    Cell.prim top2 ~name:"l"
      (Prim.Lut (Lut_init.const_true ~inputs:1))
      ~conns:[ ("I0", a2); ("O", o2) ]
  in
  let d2 = Design.create top2 in
  Design.add_port d2 "a" Types.Input a2;
  Design.add_port d2 "o" Types.Output o2;
  let report = Lint.run d2 in
  Alcotest.(check bool) "L007 fires on const-true LUT" true
    (has_rule "L007" report)

(* {1 clock, identifier and placement rules} *)

let test_clock_as_data_and_roots () =
  let top = Cell.root ~name:"top" () in
  let clk1 = Wire.create top ~name:"clk1" 1 in
  let clk2 = Wire.create top ~name:"clk2" 1 in
  let d_in = Wire.create top ~name:"d_in" 1 in
  let q1 = Wire.create top ~name:"q1" 1 in
  let q2 = Wire.create top ~name:"q2" 1 in
  let leak = Wire.create top ~name:"leak" 1 in
  let ff init_clk name q =
    ignore
      (Cell.prim top ~name
         (Prim.Ff
            { clock_enable = false; async_clear = false; sync_reset = false;
              init = Bit.Zero })
         ~conns:[ ("C", init_clk); ("D", d_in); ("Q", q) ])
  in
  ff clk1 "ff1" q1;
  ff clk2 "ff2" q2;
  (* clk1 also feeds combinational logic *)
  let _ = Cell.prim top ~name:"sniff" Prim.Inv ~conns:[ ("I", clk1); ("O", leak) ] in
  let d = Design.create top in
  Design.add_port d "clk1" Types.Input clk1;
  Design.add_port d "clk2" Types.Input clk2;
  Design.add_port d "d_in" Types.Input d_in;
  Design.add_port d "q1" Types.Output q1;
  Design.add_port d "q2" Types.Output q2;
  Design.add_port d "leak" Types.Output leak;
  let report = Lint.run d in
  Alcotest.(check bool) "L102 multiple roots" true (has_rule "L102" report);
  Alcotest.(check bool) "L103 clock as data" true (has_rule "L103" report)

let test_identifier_rules () =
  let top = Cell.root ~name:"top" () in
  (* distinct names that collide after VHDL case folding *)
  let _sig1 = Wire.create top ~name:"Data" 1 in
  let _sig2 = Wire.create top ~name:"data" 1 in
  (* a VHDL/Verilog reserved word as a wire name *)
  let _sig3 = Wire.create top ~name:"signal" 1 in
  let d = Design.create top in
  let report = Lint.run d in
  Alcotest.(check bool) "L301 collision" true (has_rule "L301" report);
  Alcotest.(check bool) "L302 keyword" true (has_rule "L302" report)

let test_placement_rules () =
  let mk () =
    let top = Cell.root ~name:"top" () in
    let a = Wire.create top ~name:"a" 1 in
    let x = Wire.create top ~name:"x" 1 in
    let y = Wire.create top ~name:"y" 1 in
    let z = Wire.create top ~name:"z" 1 in
    let l1 = Cell.prim top ~name:"l1" Prim.Inv ~conns:[ ("I", a); ("O", x) ] in
    let l2 = Cell.prim top ~name:"l2" Prim.Inv ~conns:[ ("I", a); ("O", y) ] in
    let l3 = Cell.prim top ~name:"l3" Prim.Inv ~conns:[ ("I", a); ("O", z) ] in
    let d = Design.create top in
    Design.add_port d "a" Types.Input a;
    Design.add_port d "x" Types.Output x;
    Design.add_port d "y" Types.Output y;
    Design.add_port d "z" Types.Output z;
    (d, l1, l2, l3)
  in
  (* three inverters on one LUT site (capacity 2) *)
  let d, l1, l2, l3 = mk () in
  Cell.set_rloc l1 ~row:0 ~col:0;
  Cell.set_rloc l2 ~row:0 ~col:0;
  Cell.set_rloc l3 ~row:0 ~col:0;
  Alcotest.(check bool) "L401 fires" true (has_rule "L401" (Lint.run d));
  (* a negative coordinate *)
  let d2, m1, m2, m3 = mk () in
  Cell.set_rloc m1 ~row:0 ~col:0;
  Cell.set_rloc m2 ~row:1 ~col:0;
  Cell.set_rloc m3 ~row:(-1) ~col:0;
  Alcotest.(check bool) "L402 fires" true (has_rule "L402" (Lint.run d2));
  (* grid bounds via config *)
  let d3, n1, n2, n3 = mk () in
  Cell.set_rloc n1 ~row:0 ~col:0;
  Cell.set_rloc n2 ~row:1 ~col:0;
  Cell.set_rloc n3 ~row:5 ~col:0;
  let config = { Lint.default_config with Lint.grid = Some (4, 4) } in
  Alcotest.(check bool) "L402 respects grid" true
    (has_rule "L402" (Lint.run ~config d3));
  (* partially placed designs are skipped *)
  let d4, p1, _, _ = mk () in
  Cell.set_rloc p1 ~row:0 ~col:0;
  Alcotest.(check bool) "partial placement skipped" false
    (has_rule "L402" (Lint.run ~config:{ config with Lint.grid = Some (0, 0) } d4))

(* {1 shared levelization: all three cycle detectors agree} *)

let loop_design () =
  let top = Cell.root ~name:"top" () in
  let a = Wire.create top ~name:"a" 1 in
  let b = Wire.create top ~name:"b" 1 in
  let _ = Cell.prim top ~name:"i1" Prim.Inv ~conns:[ ("I", a); ("O", b) ] in
  let _ = Cell.prim top ~name:"i2" Prim.Inv ~conns:[ ("I", b); ("O", a) ] in
  let d = Design.create top in
  Design.add_port d "a" Types.Output a;
  d

let test_cycle_detectors_agree () =
  let d = loop_design () in
  let from_validate =
    List.find_map
      (function Design.Combinational_loop { cells } -> Some cells | _ -> None)
      (Design.validate d)
  in
  let from_sim =
    try
      ignore (Simulator.create d);
      None
    with Simulator.Combinational_cycle cells -> Some cells
  in
  (* the batch kernel raises the scalar kernel's exception *)
  let from_batch =
    try
      ignore (Simulator.Batch.create ~lanes:1 d);
      None
    with Simulator.Combinational_cycle cells -> Some cells
  in
  let from_reference =
    try
      ignore (Reference.create d);
      None
    with Reference.Combinational_cycle cells -> Some cells
  in
  let from_estimate =
    try
      ignore (Estimate.timing_of_design d);
      None
    with Estimate.Combinational_cycle_timing cells -> Some cells
  in
  let from_lint =
    let report = Lint.run d in
    Option.map
      (fun diag -> diag.Lint.cells)
      (List.find_opt (fun x -> x.Lint.rule_id = "L005") report.Lint.diagnostics)
  in
  match from_validate, from_sim, from_batch, from_reference, from_estimate, from_lint with
  | Some v, Some s, Some b, Some r, Some e, Some l ->
    Alcotest.(check (list string)) "simulator agrees" v s;
    Alcotest.(check (list string)) "batch kernel agrees" v b;
    Alcotest.(check (list string)) "reference agrees" v r;
    Alcotest.(check (list string)) "estimator agrees" v e;
    Alcotest.(check (list string)) "lint agrees" v l
  | _ -> Alcotest.fail "every detector must report the loop"

(* {1 engine configuration and rendering} *)

let test_config_filtering () =
  let d = contended_design () in
  let off = Lint.run ~config:{ Lint.default_config with Lint.disabled = [ "L001" ] } d in
  Alcotest.(check bool) "disabled rule is silent" false (has_rule "L001" off);
  let only =
    Lint.run ~config:{ Lint.default_config with Lint.only = Some [ "L001" ] } d
  in
  Alcotest.(check (list string)) "only runs the named rule" [ "L001" ]
    (rule_ids only);
  let demoted =
    Lint.run
      ~config:{ Lint.default_config with Lint.overrides = [ ("L001", Lint.Info) ] }
      d
  in
  let diag =
    List.find (fun x -> x.Lint.rule_id = "L001") demoted.Lint.diagnostics
  in
  Alcotest.(check bool) "override demotes severity" true
    (diag.Lint.severity = Lint.Info);
  (* the cap needs a design with more than one finding: two contended nets *)
  let noisy =
    let top = Cell.root ~name:"top" () in
    let a = Wire.create top ~name:"a" 1 in
    let c1 = Wire.create top ~name:"c1" 1 in
    let c2 = Wire.create top ~name:"c2" 1 in
    let _ = Cell.prim top ~name:"p0" Prim.Buf ~conns:[ ("I", a); ("O", c1) ] in
    let _ =
      Cell.prim top ~name:"p1" ~allow_contention:true Prim.Buf
        ~conns:[ ("I", a); ("O", c1) ]
    in
    let _ = Cell.prim top ~name:"q0" Prim.Buf ~conns:[ ("I", a); ("O", c2) ] in
    let _ =
      Cell.prim top ~name:"q1" ~allow_contention:true Prim.Buf
        ~conns:[ ("I", a); ("O", c2) ]
    in
    let d = Design.create top in
    Design.add_port d "a" Types.Input a;
    Design.add_port d "c1" Types.Output c1;
    Design.add_port d "c2" Types.Output c2;
    d
  in
  let capped =
    Lint.run ~config:{ Lint.default_config with Lint.max_diagnostics = 1 } noisy
  in
  Alcotest.(check int) "cap keeps one" 1 (List.length capped.Lint.diagnostics);
  Alcotest.(check bool) "dropped counted" true (capped.Lint.dropped > 0)

let test_fanout_threshold () =
  let top = Cell.root ~name:"top" () in
  let a = Wire.create top ~name:"a" 1 in
  let outs = Wire.create top ~name:"outs" 4 in
  for k = 0 to 3 do
    ignore
      (Cell.prim top
         ~name:(Printf.sprintf "inv%d" k)
         Prim.Inv
         ~conns:[ ("I", a); ("O", Wire.bit outs k) ])
  done;
  let d = Design.create top in
  Design.add_port d "a" Types.Input a;
  Design.add_port d "outs" Types.Output outs;
  let config = { Lint.default_config with Lint.fanout_threshold = 3 } in
  Alcotest.(check bool) "L203 above threshold" true
    (has_rule "L203" (Lint.run ~config d));
  Alcotest.(check bool) "default threshold is quiet" false
    (has_rule "L203" (Lint.run d))

let test_json_shape () =
  let report = Lint.run (contended_design ()) in
  let json = Lint.to_json report in
  Alcotest.(check bool) "design field" true
    (contains ~needle:"\"design\": \"top\"" json);
  Alcotest.(check bool) "summary field" true
    (contains ~needle:"\"summary\": {\"errors\": 1," json);
  Alcotest.(check bool) "rule field" true
    (contains ~needle:"{\"rule\": \"L001\", \"name\": \"multi-driven-net\", \"severity\": \"error\"" json);
  (* one object per diagnostic per line *)
  let diag_lines =
    List.filter
      (fun line -> contains ~needle:"{\"rule\":" line)
      (String.split_on_char '\n' json)
  in
  Alcotest.(check int) "one line per diagnostic"
    (List.length report.Lint.diagnostics)
    (List.length diag_lines);
  (* the baseline key is rule id plus primary location *)
  let diag =
    List.find (fun x -> x.Lint.rule_id = "L001") report.Lint.diagnostics
  in
  Alcotest.(check string) "stable key" "L001 top/clash[0]" (Lint.key diag)

let test_registry_lookup () =
  Alcotest.(check int) "eighteen rules" 18 (List.length Lint.rules);
  (match Lint.find_rule "L101" with
   | Some info ->
     Alcotest.(check string) "name" "gated-clock" info.Lint.name;
     Alcotest.(check bool) "severity" true (info.Lint.default_severity = Lint.Error)
   | None -> Alcotest.fail "L101 must exist");
  Alcotest.(check bool) "unknown id" true (Lint.find_rule "L999" = None)

let test_publish_gate () =
  let module Server = Jhdl_webserver.Server in
  let server = Server.create ~vendor:"lab" () in
  (match Server.publish_checked server Catalog.kcm with
   | Ok 1 -> ()
   | Ok v -> Alcotest.fail (Printf.sprintf "expected version 1, got %d" v)
   | Error m -> Alcotest.fail m);
  (* an IP whose design carries an error-severity finding is refused *)
  let bad =
    { Catalog.kcm with
      Ip_module.ip_name = "BadIp";
      build = (fun _ -> { Ip_module.design = contended_design ();
                          clock_port = None; latency = 0; notes = [] }) }
  in
  (match Server.publish_checked server bad with
   | Ok _ -> Alcotest.fail "lint gate must refuse the contended design"
   | Error m ->
     Alcotest.(check bool) "refusal names the rule" true
       (contains ~needle:"L001" m));
  Alcotest.(check (list (pair string int))) "catalog untouched by refusal"
    [ ("VirtexKCMMultiplier", 1) ]
    (Server.catalog server);
  Alcotest.(check bool) "publish raises on refusal" true
    (try
       ignore (Server.publish server bad);
       false
     with Invalid_argument _ -> true)

let test_catalog_lint_summary () =
  let summary = Catalog.lint_summary Catalog.counter in
  Alcotest.(check bool) "counts present" true
    (contains ~needle:"0 error(s)" summary)

let suite =
  [ Alcotest.test_case "generators lint clean" `Quick test_generators_clean;
    Alcotest.test_case "multi-driver rule" `Quick test_multi_driver_rule;
    Alcotest.test_case "legacy validate reports contention" `Quick
      test_multi_driver_legacy_validate;
    Alcotest.test_case "input-port contention" `Quick test_input_port_contention;
    Alcotest.test_case "gated clock rule" `Quick test_gated_clock_rule;
    Alcotest.test_case "dead logic rule" `Quick test_dead_logic_rule;
    Alcotest.test_case "const-prop stuck flip-flop" `Quick
      test_const_prop_stuck_ff;
    Alcotest.test_case "const-prop LUT folding" `Quick test_const_prop_lut_fold;
    Alcotest.test_case "clock roots and clock-as-data" `Quick
      test_clock_as_data_and_roots;
    Alcotest.test_case "identifier rules" `Quick test_identifier_rules;
    Alcotest.test_case "placement rules" `Quick test_placement_rules;
    Alcotest.test_case "cycle detectors agree" `Quick test_cycle_detectors_agree;
    Alcotest.test_case "config filtering" `Quick test_config_filtering;
    Alcotest.test_case "fanout threshold" `Quick test_fanout_threshold;
    Alcotest.test_case "json shape" `Quick test_json_shape;
    Alcotest.test_case "registry lookup" `Quick test_registry_lookup;
    Alcotest.test_case "publish lint gate" `Quick test_publish_gate;
    Alcotest.test_case "catalog lint summary" `Quick test_catalog_lint_summary ]
