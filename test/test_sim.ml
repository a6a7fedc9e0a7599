(* Simulator tests: combinational propagation, registers, memories, clock
   domains, X semantics, black boxes, watches. *)

module Bit = Jhdl_logic.Bit
module Bits = Jhdl_logic.Bits
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Prim = Jhdl_circuit.Prim
module Types = Jhdl_circuit.Types
module Virtex = Jhdl_virtex.Virtex
module Simulator = Jhdl_sim.Simulator
module Reference = Jhdl_sim.Reference
module Snapshot = Jhdl_sim.Snapshot

let bits = Alcotest.testable Bits.pp Bits.equal

let b1 v = Bits.of_int ~width:1 v
let b s = Bits.of_string s

let full_adder_design () =
  let top = Cell.root ~name:"top" () in
  let a = Wire.create top ~name:"a" 1 in
  let b_ = Wire.create top ~name:"b" 1 in
  let ci = Wire.create top ~name:"ci" 1 in
  let s = Wire.create top ~name:"s" 1 in
  let co = Wire.create top ~name:"co" 1 in
  let t1 = Wire.create top ~name:"t1" 1 in
  let t2 = Wire.create top ~name:"t2" 1 in
  let t3 = Wire.create top ~name:"t3" 1 in
  let _ = Virtex.and2 top a b_ t1 in
  let _ = Virtex.and2 top a ci t2 in
  let _ = Virtex.and2 top b_ ci t3 in
  let _ = Virtex.or3 top t1 t2 t3 co in
  let _ = Virtex.xor3 top a b_ ci s in
  let d = Design.create top in
  Design.add_port d "a" Types.Input a;
  Design.add_port d "b" Types.Input b_;
  Design.add_port d "ci" Types.Input ci;
  Design.add_port d "s" Types.Output s;
  Design.add_port d "co" Types.Output co;
  d

let test_full_adder_truth_table () =
  let sim = Simulator.create (full_adder_design ()) in
  for a = 0 to 1 do
    for b_ = 0 to 1 do
      for ci = 0 to 1 do
        Simulator.set_input sim "a" (b1 a);
        Simulator.set_input sim "b" (b1 b_);
        Simulator.set_input sim "ci" (b1 ci);
        let total = a + b_ + ci in
        Alcotest.check bits
          (Printf.sprintf "s for %d%d%d" a b_ ci)
          (b1 (total land 1))
          (Simulator.get_port sim "s");
        Alcotest.check bits
          (Printf.sprintf "co for %d%d%d" a b_ ci)
          (b1 (total lsr 1))
          (Simulator.get_port sim "co")
      done
    done
  done

let test_inputs_default_x () =
  let sim = Simulator.create (full_adder_design ()) in
  Alcotest.(check bool) "s undefined before inputs" false
    (Bits.is_fully_defined (Simulator.get_port sim "s"))

let test_x_dominance_through_gates () =
  let sim = Simulator.create (full_adder_design ()) in
  Simulator.set_input sim "a" (b "0");
  Simulator.set_input sim "b" (b "0");
  (* a=0, b=0 force co=0 regardless of ci *)
  Alcotest.check bits "co defined despite x ci" (b "0")
    (Simulator.get_port sim "co");
  Alcotest.(check bool) "s still x" false
    (Bits.is_fully_defined (Simulator.get_port sim "s"))

let register_design ~ff =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let d_in = Wire.create top ~name:"d" 1 in
  let q = Wire.create top ~name:"q" 1 in
  let extra = ff top ~clk ~d:d_in ~q in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "d" Types.Input d_in;
  Design.add_port d "q" Types.Output q;
  List.iter (fun (n, w) -> Design.add_port d n Types.Input w) extra;
  (d, clk)

let test_fd_register () =
  let d, clk =
    register_design ~ff:(fun top ~clk ~d ~q ->
      let _ = Virtex.fd top ~c:clk ~d ~q () in
      [])
  in
  let sim = Simulator.create ~clock:clk d in
  Alcotest.check bits "init 0" (b "0") (Simulator.get_port sim "q");
  Simulator.set_input sim "d" (b "1");
  Alcotest.check bits "no change before edge" (b "0") (Simulator.get_port sim "q");
  Simulator.cycle sim;
  Alcotest.check bits "captured on edge" (b "1") (Simulator.get_port sim "q");
  Simulator.set_input sim "d" (b "0");
  Simulator.cycle sim;
  Alcotest.check bits "captured 0" (b "0") (Simulator.get_port sim "q")

let test_fd_init_value () =
  let d, clk =
    register_design ~ff:(fun top ~clk ~d ~q ->
      let _ = Virtex.fd top ~init:Bit.One ~c:clk ~d ~q () in
      [])
  in
  let sim = Simulator.create ~clock:clk d in
  Alcotest.check bits "init 1" (b "1") (Simulator.get_port sim "q");
  Simulator.set_input sim "d" (b "0");
  Simulator.cycle sim;
  Alcotest.check bits "captured" (b "0") (Simulator.get_port sim "q");
  Simulator.reset sim;
  Alcotest.check bits "reset restores init" (b "1") (Simulator.get_port sim "q")

let test_fde_clock_enable () =
  let d, clk =
    register_design ~ff:(fun top ~clk ~d ~q ->
      let ce = Wire.create top ~name:"ce" 1 in
      let _ = Virtex.fde top ~c:clk ~ce ~d ~q () in
      [ ("ce", ce) ])
  in
  let sim = Simulator.create ~clock:clk d in
  Simulator.set_input sim "d" (b "1");
  Simulator.set_input sim "ce" (b "0");
  Simulator.cycle sim;
  Alcotest.check bits "held while ce=0" (b "0") (Simulator.get_port sim "q");
  Simulator.set_input sim "ce" (b "1");
  Simulator.cycle sim;
  Alcotest.check bits "loads while ce=1" (b "1") (Simulator.get_port sim "q")

let test_fdce_async_clear () =
  let d, clk =
    register_design ~ff:(fun top ~clk ~d ~q ->
      let ce = Wire.create top ~name:"ce" 1 in
      let clr = Wire.create top ~name:"clr" 1 in
      let _ = Virtex.fdce top ~c:clk ~ce ~clr ~d ~q () in
      [ ("ce", ce); ("clr", clr) ])
  in
  let sim = Simulator.create ~clock:clk d in
  Simulator.set_input sim "ce" (b "1");
  Simulator.set_input sim "clr" (b "0");
  Simulator.set_input sim "d" (b "1");
  Simulator.cycle sim;
  Alcotest.check bits "loaded" (b "1") (Simulator.get_port sim "q");
  (* asynchronous: clear visible without a clock edge *)
  Simulator.set_input sim "clr" (b "1");
  Alcotest.check bits "cleared without edge" (b "0") (Simulator.get_port sim "q");
  Simulator.cycle sim;
  Alcotest.check bits "stays cleared" (b "0") (Simulator.get_port sim "q")

let test_fdre_sync_reset () =
  let d, clk =
    register_design ~ff:(fun top ~clk ~d ~q ->
      let ce = Wire.create top ~name:"ce" 1 in
      let r = Wire.create top ~name:"r" 1 in
      let _ = Virtex.fdre top ~c:clk ~ce ~r ~d ~q () in
      [ ("ce", ce); ("r", r) ])
  in
  let sim = Simulator.create ~clock:clk d in
  Simulator.set_input sim "ce" (b "1");
  Simulator.set_input sim "r" (b "0");
  Simulator.set_input sim "d" (b "1");
  Simulator.cycle sim;
  Alcotest.check bits "loaded" (b "1") (Simulator.get_port sim "q");
  Simulator.set_input sim "r" (b "1");
  Alcotest.check bits "synchronous: no change before edge" (b "1")
    (Simulator.get_port sim "q");
  Simulator.cycle sim;
  Alcotest.check bits "reset on edge" (b "0") (Simulator.get_port sim "q")

let test_shift_register_pipeline () =
  (* three FDs in a row delay the input by three cycles *)
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let d_in = Wire.create top ~name:"d" 1 in
  let q1 = Wire.create top 1 and q2 = Wire.create top 1 in
  let q3 = Wire.create top ~name:"q" 1 in
  let _ = Virtex.fd top ~c:clk ~d:d_in ~q:q1 () in
  let _ = Virtex.fd top ~c:clk ~d:q1 ~q:q2 () in
  let _ = Virtex.fd top ~c:clk ~d:q2 ~q:q3 () in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "d" Types.Input d_in;
  Design.add_port d "q" Types.Output q3;
  let sim = Simulator.create ~clock:clk d in
  Simulator.set_input sim "d" (b "1");
  Simulator.cycle sim;
  Simulator.set_input sim "d" (b "0");
  Alcotest.check bits "after 1 cycle" (b "0") (Simulator.get_port sim "q");
  Simulator.cycle ~n:2 sim;
  Alcotest.check bits "pulse arrives after 3" (b "1") (Simulator.get_port sim "q");
  Simulator.cycle sim;
  Alcotest.check bits "pulse passes" (b "0") (Simulator.get_port sim "q")

let test_srl16 () =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let d_in = Wire.create top ~name:"d" 1 in
  let q = Wire.create top ~name:"q" 1 in
  let a = Wire.create top ~name:"a" 4 in
  let ce = Virtex.vcc top in
  let _ = Virtex.srl16e top ~clk ~ce ~d:d_in ~a ~q () in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "d" Types.Input d_in;
  Design.add_port d "a" Types.Input a;
  Design.add_port d "q" Types.Output q;
  let sim = Simulator.create ~clock:clk d in
  Simulator.set_input sim "a" (Bits.of_int ~width:4 3);
  (* push 1,0,0,0: after 4 cycles the 1 sits at tap 3 *)
  Simulator.set_input sim "d" (b "1");
  Simulator.cycle sim;
  Simulator.set_input sim "d" (b "0");
  Simulator.cycle ~n:3 sim;
  Alcotest.check bits "tap 3 sees the pulse" (b "1") (Simulator.get_port sim "q");
  Simulator.set_input sim "a" (Bits.of_int ~width:4 0);
  Alcotest.check bits "tap 0 is 0" (b "0") (Simulator.get_port sim "q")

let test_ram16x1s () =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let d_in = Wire.create top ~name:"d" 1 in
  let we = Wire.create top ~name:"we" 1 in
  let a = Wire.create top ~name:"a" 4 in
  let o = Wire.create top ~name:"o" 1 in
  let _ = Virtex.ram16x1s top ~wclk:clk ~we ~d:d_in ~a ~o () in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "d" Types.Input d_in;
  Design.add_port d "we" Types.Input we;
  Design.add_port d "a" Types.Input a;
  Design.add_port d "o" Types.Output o;
  let sim = Simulator.create ~clock:clk d in
  Simulator.set_input sim "a" (Bits.of_int ~width:4 5);
  Simulator.set_input sim "d" (b "1");
  Simulator.set_input sim "we" (b "1");
  Simulator.cycle sim;
  Alcotest.check bits "written and read back" (b "1") (Simulator.get_port sim "o");
  Simulator.set_input sim "we" (b "0");
  Simulator.set_input sim "a" (Bits.of_int ~width:4 2);
  Alcotest.check bits "other address still 0" (b "0") (Simulator.get_port sim "o");
  Simulator.set_input sim "a" (Bits.of_int ~width:4 5);
  Alcotest.check bits "async read, no edge needed" (b "1")
    (Simulator.get_port sim "o")

let test_ram_init () =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let a = Wire.create top ~name:"a" 4 in
  let o = Wire.create top ~name:"o" 1 in
  let gnd = Virtex.gnd top in
  let _ = Virtex.ram16x1s top ~init:0b1010 ~wclk:clk ~we:gnd ~d:gnd ~a ~o () in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "a" Types.Input a;
  Design.add_port d "o" Types.Output o;
  let sim = Simulator.create ~clock:clk d in
  Simulator.set_input sim "a" (Bits.of_int ~width:4 1);
  Alcotest.check bits "init bit 1" (b "1") (Simulator.get_port sim "o");
  Simulator.set_input sim "a" (Bits.of_int ~width:4 2);
  Alcotest.check bits "init bit 2" (b "0") (Simulator.get_port sim "o")

let test_comb_cycle_detected () =
  let top = Cell.root ~name:"top" () in
  let a = Wire.create top 1 and b_ = Wire.create top 1 in
  let _ = Virtex.inv top a b_ in
  let _ = Virtex.inv top b_ a in
  let d = Design.create top in
  Alcotest.(check bool) "raises" true
    (try ignore (Simulator.create d); false
     with Simulator.Combinational_cycle _ -> true)

(* a behavioural 4-bit adder black box *)
let adder4_design () =
  let top = Cell.root ~name:"top" () in
  let a = Wire.create top ~name:"a" 4 in
  let b_ = Wire.create top ~name:"b" 4 in
  let s = Wire.create top ~name:"s" 4 in
  let make_behavior () =
    { Prim.comb =
        (fun ~read -> [ ("S", Bits.add (read "A") (read "B")) ]);
      clock_edge = None;
      state_reset = None }
  in
  let _ =
    Cell.black_box top ~model_name:"ADDER4" ~make_behavior
      ~ports:[ ("A", Types.Input, a); ("B", Types.Input, b_); ("S", Types.Output, s) ]
      ()
  in
  let d = Design.create top in
  Design.add_port d "a" Types.Input a;
  Design.add_port d "b" Types.Input b_;
  Design.add_port d "s" Types.Output s;
  d

let test_black_box_comb () =
  let sim = Simulator.create (adder4_design ()) in
  Simulator.set_input sim "a" (Bits.of_int ~width:4 9);
  Simulator.set_input sim "b" (Bits.of_int ~width:4 4);
  Alcotest.check bits "9+4" (Bits.of_int ~width:4 13) (Simulator.get_port sim "s")

let contains s sub =
  let n = String.length sub in
  let rec scan i = i + n <= String.length s && (String.sub s i n = sub || scan (i + 1)) in
  scan 0

let expect_invalid_arg label expected f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  | exception Invalid_argument msg -> Alcotest.(check string) label expected msg

(* a black box has opaque state: the one-lane kernel simulates it but
   cannot checkpoint it, and a kernel of two or more lanes cannot
   lane-pack it *)
let test_black_box_rejections () =
  let d = adder4_design () in
  let sim = Simulator.create d in
  (match Simulator.snapshot sim with
   | _ -> Alcotest.fail "snapshot of a black-box design must fail"
   | exception Snapshot.Error msg ->
     Alcotest.(check string) "snapshot names the instance"
       "snapshot: design top holds behavioural black box top/adder4 (ADDER4) \
        whose opaque state cannot be serialized"
       msg);
  (* nor restore: a resealed blob with the design's signature and nets
     would leave the box's state behind *)
  let forged =
    Snapshot.encode
      { Snapshot.image_signature = Snapshot.signature d;
        image_cycles = 0;
        image_nets = Bytes.make (List.length (Design.all_nets d)) '\000';
        image_seq = [];
        image_watches = [] }
  in
  List.iter
    (fun (label, restore) ->
       match restore forged with
       | () -> Alcotest.failf "%s restore of a black-box design must fail" label
       | exception Snapshot.Error _ -> ())
    [ ("scalar", Simulator.restore sim); ("reference", Reference.restore (Reference.create d)) ];
  match Simulator.Batch.create ~lanes:2 d with
  | _ -> Alcotest.fail "batch must reject a black box"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) ("lane-pack rejection: " ^ msg) true
      (contains msg "top/adder4 (ADDER4) cannot be lane-packed")

(* the design-rule and 1-bit clock prechecks, each message prefixed by
   the simulator that ran it *)
let test_precheck_messages () =
  let top = Cell.root ~name:"top" () in
  let a = Wire.create top ~name:"a" 1 and o = Wire.create top ~name:"o" 1 in
  let _ = Virtex.inv top a o in
  let d = Design.create top in
  Design.add_port d "o" Types.Output o;
  let rule = "design-rule error: undriven net top/a[0] with 1 sink(s)" in
  expect_invalid_arg "scalar precheck" ("Simulator.create: " ^ rule) (fun () ->
    Simulator.create d);
  expect_invalid_arg "batch precheck" ("Simulator.Batch.create: " ^ rule)
    (fun () -> Simulator.Batch.create ~lanes:2 d);
  expect_invalid_arg "reference precheck" ("Reference.create: " ^ rule)
    (fun () -> Reference.create d);
  let d, _ =
    register_design ~ff:(fun top ~clk ~d ~q ->
      let _ = Virtex.fd top ~c:clk ~d ~q () in
      [])
  in
  let wide = Wire.create (Design.root d) ~name:"wide" 2 in
  let clock = "clock wire must be 1 bit wide" in
  expect_invalid_arg "scalar clock" ("Simulator.create: " ^ clock) (fun () ->
    Simulator.create ~clock:wide d);
  expect_invalid_arg "batch clock" ("Simulator.Batch.create: " ^ clock)
    (fun () -> Simulator.Batch.create ~clock:wide ~lanes:2 d);
  expect_invalid_arg "reference clock" ("Reference.create: " ^ clock)
    (fun () -> Reference.create ~clock:wide d)

let test_black_box_sequential () =
  (* a behavioural accumulator with reset support *)
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let x = Wire.create top ~name:"x" 8 in
  let acc = Wire.create top ~name:"acc" 8 in
  let make_behavior () =
    let state = ref (Bits.zero 8) in
    { Prim.comb = (fun ~read:_ -> [ ("ACC", !state) ]);
      clock_edge = Some (fun ~read -> state := Bits.add !state (read "X"));
      state_reset = Some (fun () -> state := Bits.zero 8) }
  in
  let _ =
    Cell.black_box top ~model_name:"ACCUM" ~make_behavior
      ~ports:[ ("X", Types.Input, x); ("ACC", Types.Output, acc) ]
      ()
  in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "x" Types.Input x;
  Design.add_port d "acc" Types.Output acc;
  let sim = Simulator.create ~clock:clk d in
  Simulator.set_input sim "x" (Bits.of_int ~width:8 5);
  Simulator.cycle ~n:3 sim;
  Alcotest.check bits "3 * 5" (Bits.of_int ~width:8 15) (Simulator.get_port sim "acc");
  Simulator.reset sim;
  Alcotest.check bits "reset clears bb state" (Bits.zero 8)
    (Simulator.get_port sim "acc")

let test_watch_history () =
  let d, clk =
    register_design ~ff:(fun top ~clk ~d ~q ->
      let _ = Virtex.fd top ~c:clk ~d ~q () in
      [])
  in
  let sim = Simulator.create ~clock:clk d in
  (match Design.find_port (Simulator.design sim) "q" with
   | Some p -> Simulator.watch sim ~label:"q" p.Design.port_wire
   | None -> Alcotest.fail "port q missing");
  Simulator.set_input sim "d" (b "1");
  Simulator.cycle sim;
  Simulator.set_input sim "d" (b "0");
  Simulator.cycle sim;
  match Simulator.history sim with
  | [ ("q", samples) ] ->
    Alcotest.(check int) "3 samples (watch + 2 cycles)" 3 (List.length samples);
    let values = List.map (fun (_, v) -> Bits.to_string v) samples in
    Alcotest.(check (list string)) "values" [ "0"; "1"; "0" ] values
  | _ -> Alcotest.fail "expected one watch"

let test_cycle_count_and_hook () =
  let d, clk =
    register_design ~ff:(fun top ~clk ~d ~q ->
      let _ = Virtex.fd top ~c:clk ~d ~q () in
      [])
  in
  let sim = Simulator.create ~clock:clk d in
  let seen = ref [] in
  Simulator.on_cycle sim (fun n -> seen := n :: !seen);
  Simulator.set_input sim "d" (b "0");
  Simulator.cycle ~n:3 sim;
  Alcotest.(check int) "cycle count" 3 (Simulator.cycle_count sim);
  Alcotest.(check (list int)) "hook calls" [ 3; 2; 1 ] !seen;
  Simulator.reset sim;
  Alcotest.(check int) "reset zeroes count" 0 (Simulator.cycle_count sim)

let test_levels () =
  let sim = Simulator.create (full_adder_design ()) in
  Alcotest.(check int) "prim count" 5 (Simulator.prim_count sim);
  Alcotest.(check bool) "two levels of logic" true (Simulator.levels sim >= 1)

(* Property: a LUT-built 4-bit ripple adder matches Bits.add for all inputs. *)
let ripple_adder_design width =
  let top = Cell.root ~name:"top" () in
  let a = Wire.create top ~name:"a" width in
  let b_ = Wire.create top ~name:"b" width in
  let s = Wire.create top ~name:"s" width in
  let carry = Wire.create top ~name:"c" (width + 1) in
  let gnd = Virtex.gnd top in
  let _ = Virtex.buf top gnd (Wire.bit carry 0) in
  for i = 0 to width - 1 do
    let ai = Wire.bit a i and bi = Wire.bit b_ i in
    let ci = Wire.bit carry i and ci1 = Wire.bit carry (i + 1) in
    let _ = Virtex.xor3 top ai bi ci (Wire.bit s i) in
    let t1 = Wire.create top 1 and t2 = Wire.create top 1 and t3 = Wire.create top 1 in
    let _ = Virtex.and2 top ai bi t1 in
    let _ = Virtex.and2 top ai ci t2 in
    let _ = Virtex.and2 top bi ci t3 in
    let _ = Virtex.or3 top t1 t2 t3 ci1 in
    ()
  done;
  let d = Design.create top in
  Design.add_port d "a" Types.Input a;
  Design.add_port d "b" Types.Input b_;
  Design.add_port d "s" Types.Output s;
  d

let prop_ripple_adder_matches =
  let sim = lazy (Simulator.create (ripple_adder_design 6)) in
  QCheck.Test.make ~name:"gate-level ripple adder matches Bits.add" ~count:200
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (x, y) ->
       let sim = Lazy.force sim in
       Simulator.set_input sim "a" (Bits.of_int ~width:6 x);
       Simulator.set_input sim "b" (Bits.of_int ~width:6 y);
       Simulator.get_port sim "s" |> Bits.to_int = Some ((x + y) land 63))

let suite =
  [ Alcotest.test_case "full adder truth table" `Quick test_full_adder_truth_table;
    Alcotest.test_case "inputs default to x" `Quick test_inputs_default_x;
    Alcotest.test_case "x dominance" `Quick test_x_dominance_through_gates;
    Alcotest.test_case "fd register" `Quick test_fd_register;
    Alcotest.test_case "fd init value" `Quick test_fd_init_value;
    Alcotest.test_case "fde clock enable" `Quick test_fde_clock_enable;
    Alcotest.test_case "fdce async clear" `Quick test_fdce_async_clear;
    Alcotest.test_case "fdre sync reset" `Quick test_fdre_sync_reset;
    Alcotest.test_case "shift register pipeline" `Quick test_shift_register_pipeline;
    Alcotest.test_case "srl16" `Quick test_srl16;
    Alcotest.test_case "ram16x1s" `Quick test_ram16x1s;
    Alcotest.test_case "ram init" `Quick test_ram_init;
    Alcotest.test_case "comb cycle detected" `Quick test_comb_cycle_detected;
    Alcotest.test_case "black box comb" `Quick test_black_box_comb;
    Alcotest.test_case "black box sequential" `Quick test_black_box_sequential;
    Alcotest.test_case "black box rejections" `Quick test_black_box_rejections;
    Alcotest.test_case "precheck messages" `Quick test_precheck_messages;
    Alcotest.test_case "watch history" `Quick test_watch_history;
    Alcotest.test_case "cycle count and hook" `Quick test_cycle_count_and_hook;
    Alcotest.test_case "levels" `Quick test_levels ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_ripple_adder_matches ]
