(* Equivalence-checker tests: true positives, true negatives,
   interface checks, sequential comparison, and the flagship use — the
   KCM chain vs tree structures proven equivalent. *)

module Bits = Jhdl_logic.Bits
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Types = Jhdl_circuit.Types
module Virtex = Jhdl_virtex.Virtex
module Equiv = Jhdl_verify.Equiv
module Adders = Jhdl_modgen.Adders
module Kcm = Jhdl_modgen.Kcm
module Counter = Jhdl_modgen.Counter

let adder_design builder =
  let top = Cell.root ~name:"top" () in
  let a = Wire.create top ~name:"a" 6 in
  let b = Wire.create top ~name:"b" 6 in
  let sum = Wire.create top ~name:"sum" 6 in
  let _ = builder top ~a ~b ~sum in
  let d = Design.create top in
  Design.add_port d "a" Types.Input a;
  Design.add_port d "b" Types.Input b;
  Design.add_port d "sum" Types.Output sum;
  d

let test_equivalent_adders () =
  let ripple =
    adder_design (fun top ~a ~b ~sum -> Adders.ripple_carry top ~a ~b ~sum ())
  in
  let carry =
    adder_design (fun top ~a ~b ~sum -> Adders.carry_chain top ~a ~b ~sum ())
  in
  (* the proof path settles it without a single vector *)
  (match Equiv.check ripple carry with
   | Equiv.Proved { outputs; sequential; _ } ->
     Alcotest.(check int) "6 output bits" 6 outputs;
     Alcotest.(check bool) "combinational proof" false sequential
   | other -> Alcotest.failf "%a" (fun fmt -> Equiv.pp_result fmt) other);
  (* and the exhaustive batch sweep, forced, agrees *)
  match Equiv.check ~strategy:`Sweep ripple carry with
  | Equiv.Equivalent { vectors; exhaustive } ->
    Alcotest.(check bool) "exhaustive at 12 bits" true exhaustive;
    Alcotest.(check int) "4096 vectors" 4096 vectors
  | other -> Alcotest.failf "%a" (fun fmt -> Equiv.pp_result fmt) other

let test_detects_difference () =
  let adder =
    adder_design (fun top ~a ~b ~sum -> Adders.carry_chain top ~a ~b ~sum ())
  in
  let subtractor =
    adder_design (fun top ~a ~b ~sum -> Adders.subtractor top ~a ~b ~diff:sum ())
  in
  match Equiv.check adder subtractor with
  | Equiv.Not_equivalent m ->
    Alcotest.(check string) "on the sum port" "sum" m.Equiv.port
  | other -> Alcotest.failf "expected mismatch, got %a" (fun fmt -> Equiv.pp_result fmt) other

let test_interface_mismatch () =
  let six =
    adder_design (fun top ~a ~b ~sum -> Adders.carry_chain top ~a ~b ~sum ())
  in
  let top = Cell.root ~name:"top" () in
  let a = Wire.create top ~name:"a" 8 in
  let b = Wire.create top ~name:"b" 8 in
  let sum = Wire.create top ~name:"sum" 8 in
  let _ = Adders.carry_chain top ~a ~b ~sum () in
  let eight = Design.create top in
  Design.add_port eight "a" Types.Input a;
  Design.add_port eight "b" Types.Input b;
  Design.add_port eight "sum" Types.Output sum;
  match Equiv.check six eight with
  | Equiv.Interface_mismatch _ -> ()
  | other -> Alcotest.failf "expected interface mismatch, got %a" (fun fmt -> Equiv.pp_result fmt) other

let kcm_design ~structure () =
  let top = Cell.root ~name:"top" () in
  let m = Wire.create top ~name:"m" 8 in
  let p = Wire.create top ~name:"p" 15 in
  let _ =
    Kcm.create top ~adder_structure:structure ~multiplicand:m ~product:p
      ~signed_mode:true ~pipelined_mode:false ~constant:(-56) ()
  in
  let d = Design.create top in
  Design.add_port d "m" Types.Input m;
  Design.add_port d "p" Types.Output p;
  d

let test_kcm_chain_tree_equivalent () =
  (* the flagship: chain-structured vs tree-structured KCM, PROVED *)
  (match Equiv.check (kcm_design ~structure:`Chain ()) (kcm_design ~structure:`Tree ()) with
   | Equiv.Proved { outputs = 15; sequential = false; _ } -> ()
   | other -> Alcotest.failf "%a" (fun fmt -> Equiv.pp_result fmt) other);
  match
    Equiv.check ~strategy:`Sweep (kcm_design ~structure:`Chain ())
      (kcm_design ~structure:`Tree ())
  with
  | Equiv.Equivalent { vectors = 256; exhaustive = true } -> ()
  | other -> Alcotest.failf "%a" (fun fmt -> Equiv.pp_result fmt) other

let counter_design ~width () =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let q = Wire.create top ~name:"q" 4 in
  let _ = Counter.up_counter top ~clk ~q () in
  ignore width;
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "q" Types.Output q;
  d

let gray_as_binary_design () =
  (* a counter that diverges from the plain binary counter over time *)
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let q = Wire.create top ~name:"q" 4 in
  let _ = Jhdl_modgen.Misc_logic.gray_counter top ~clk ~q () in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "q" Types.Output q;
  d

let test_sequential_equivalence () =
  match
    Equiv.check ~cycles_per_vector:10
      (counter_design ~width:4 ())
      (counter_design ~width:4 ())
  with
  | Equiv.Proved { sequential = true; _ } -> ()
  | other -> Alcotest.failf "%a" (fun fmt -> Equiv.pp_result fmt) other

let test_sequential_divergence_found () =
  match
    Equiv.check ~cycles_per_vector:10
      (counter_design ~width:4 ())
      (gray_as_binary_design ())
  with
  | Equiv.Not_equivalent m ->
    (* binary and gray agree at 0 and 1, diverge at the second edge *)
    Alcotest.(check bool) "diverges at a later cycle" true (m.Equiv.cycle >= 2)
  | other -> Alcotest.failf "expected divergence, got %a" (fun fmt -> Equiv.pp_result fmt) other

let test_random_sweep_on_wide_inputs () =
  let wide builder =
    let top = Cell.root ~name:"top" () in
    let a = Wire.create top ~name:"a" 12 in
    let b = Wire.create top ~name:"b" 12 in
    let sum = Wire.create top ~name:"sum" 12 in
    let _ = builder top ~a ~b ~sum in
    let d = Design.create top in
    Design.add_port d "a" Types.Input a;
    Design.add_port d "b" Types.Input b;
    Design.add_port d "sum" Types.Output sum;
    d
  in
  match
    Equiv.check ~strategy:`Sweep ~random_vectors:200
      (wide (fun top ~a ~b ~sum -> Adders.ripple_carry top ~a ~b ~sum ()))
      (wide (fun top ~a ~b ~sum -> Adders.carry_chain top ~a ~b ~sum ()))
  with
  | Equiv.Equivalent { vectors = 200; exhaustive = false } -> ()
  | other -> Alcotest.failf "%a" (fun fmt -> Equiv.pp_result fmt) other

let test_single_lut_difference_caught () =
  (* two 2-input functions differing in one truth-table entry *)
  let build f =
    let top = Cell.root ~name:"top" () in
    let a = Wire.create top ~name:"a" 1 in
    let b = Wire.create top ~name:"b" 1 in
    let o = Wire.create top ~name:"o" 1 in
    let _ = Virtex.lut_of_function top [ a; b ] o ~f in
    let d = Design.create top in
    Design.add_port d "a" Types.Input a;
    Design.add_port d "b" Types.Input b;
    Design.add_port d "o" Types.Output o;
    d
  in
  match
    Equiv.check
      (build (fun addr -> addr = 3))
      (build (fun addr -> addr = 3 || addr = 0))
  with
  | Equiv.Not_equivalent m ->
    Alcotest.(check int) "found the 00 input" 0
      (List.fold_left
         (fun acc (_, v) -> acc + Option.value (Bits.to_int v) ~default:1)
         0 m.Equiv.inputs)
  | other -> Alcotest.failf "expected mismatch, got %a" (fun fmt -> Equiv.pp_result fmt) other

(* a behavioural black box can be neither proved nor lane-packed: the
   sweep runs both designs one lane at a time *)
let test_black_box_sweep () =
  match Equiv.check (Test_sim.adder4_design ()) (Test_sim.adder4_design ()) with
  | Equiv.Equivalent { vectors; exhaustive } ->
    Alcotest.(check bool) "exhaustive at 8 bits" true exhaustive;
    Alcotest.(check int) "256 vectors" 256 vectors
  | other -> Alcotest.failf "%a" (fun fmt -> Equiv.pp_result fmt) other

let suite =
  [ Alcotest.test_case "equivalent adders" `Quick test_equivalent_adders;
    Alcotest.test_case "detects difference" `Quick test_detects_difference;
    Alcotest.test_case "interface mismatch" `Quick test_interface_mismatch;
    Alcotest.test_case "kcm chain = tree" `Quick test_kcm_chain_tree_equivalent;
    Alcotest.test_case "sequential equivalence" `Quick
      test_sequential_equivalence;
    Alcotest.test_case "sequential divergence" `Quick
      test_sequential_divergence_found;
    Alcotest.test_case "random sweep" `Quick test_random_sweep_on_wide_inputs;
    Alcotest.test_case "black boxes sweep one lane" `Quick test_black_box_sweep;
    Alcotest.test_case "single lut difference" `Quick
      test_single_lut_difference_caught ]
