(* Differential tests: the compiled dense kernel (Simulator) against the
   retained interpreter (Reference) on randomized designs and input
   sequences, including X/Z stimulus. Both simulators share one Design
   instance (all run-time state is per-simulator) and must agree on
   every port value and watch sample, cycle for cycle. A Gc probe
   asserts the kernel's steady-state cycle path allocates nothing. *)

module Bit = Jhdl_logic.Bit
module Bits = Jhdl_logic.Bits
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Types = Jhdl_circuit.Types
module Virtex = Jhdl_virtex.Virtex
module Simulator = Jhdl_sim.Simulator
module Reference = Jhdl_sim.Reference
module Kcm = Jhdl_modgen.Kcm
module Fir = Jhdl_modgen.Fir
module Multiplier = Jhdl_modgen.Multiplier

type harness = {
  design : Design.t;
  clock : Wire.t option;
  inputs : (string * int) list; (* driven port, width *)
  outputs : string list;
}

(* ------------------------------------------------------------------ *)
(* Harness builders (test_equiv.ml style).                             *)

let kcm_harness ~n ~pw ~signed_mode ~pipelined_mode ~structure ~constant () =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let m = Wire.create top ~name:"m" n in
  let p = Wire.create top ~name:"p" pw in
  let _ =
    Kcm.create top ~clk ~adder_structure:structure ~multiplicand:m ~product:p
      ~signed_mode ~pipelined_mode ~constant ()
  in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "m" Types.Input m;
  Design.add_port d "p" Types.Output p;
  { design = d; clock = Some clk; inputs = [ ("m", n) ]; outputs = [ "p" ] }

let shift_add_harness ~n ~pw ~constant () =
  let top = Cell.root ~name:"top" () in
  let m = Wire.create top ~name:"m" n in
  let p = Wire.create top ~name:"p" pw in
  let _ = Multiplier.shift_add_constant top ~multiplicand:m ~product:p ~constant () in
  let d = Design.create top in
  Design.add_port d "m" Types.Input m;
  Design.add_port d "p" Types.Output p;
  { design = d; clock = None; inputs = [ ("m", n) ]; outputs = [ "p" ] }

let fir_harness ~xw ~coefficients () =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let x = Wire.create top ~name:"x" xw in
  let yw = Fir.accumulation_width ~x_width:xw ~coefficients in
  let y = Wire.create top ~name:"y" yw in
  let _ = Fir.create top ~clk ~x ~y ~signed_mode:true ~coefficients () in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "x" Types.Input x;
  Design.add_port d "y" Types.Output y;
  { design = d; clock = Some clk; inputs = [ ("x", xw) ]; outputs = [ "y" ] }

let ram_harness ~init () =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let we = Wire.create top ~name:"we" 1 in
  let d = Wire.create top ~name:"d" 1 in
  let a = Wire.create top ~name:"a" 4 in
  let o = Wire.create top ~name:"o" 1 in
  let _ = Virtex.ram16x1s top ~init ~wclk:clk ~we ~d ~a ~o () in
  let dsg = Design.create top in
  Design.add_port dsg "clk" Types.Input clk;
  Design.add_port dsg "we" Types.Input we;
  Design.add_port dsg "d" Types.Input d;
  Design.add_port dsg "a" Types.Input a;
  Design.add_port dsg "o" Types.Output o;
  { design = dsg;
    clock = Some clk;
    inputs = [ ("we", 1); ("d", 1); ("a", 4) ];
    outputs = [ "o" ] }

let srl_harness ~init () =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let ce = Wire.create top ~name:"ce" 1 in
  let d = Wire.create top ~name:"d" 1 in
  let a = Wire.create top ~name:"a" 4 in
  let q = Wire.create top ~name:"q" 1 in
  let _ = Virtex.srl16e top ~init ~clk ~ce ~d ~a ~q () in
  let dsg = Design.create top in
  Design.add_port dsg "clk" Types.Input clk;
  Design.add_port dsg "ce" Types.Input ce;
  Design.add_port dsg "d" Types.Input d;
  Design.add_port dsg "a" Types.Input a;
  Design.add_port dsg "q" Types.Output q;
  { design = dsg;
    clock = Some clk;
    inputs = [ ("ce", 1); ("d", 1); ("a", 4) ];
    outputs = [ "q" ] }

(* ------------------------------------------------------------------ *)
(* Differential driver.                                                *)

let random_bits st ~allow_xz width =
  Bits.init width (fun _ ->
    if allow_xz && Random.State.int st 8 = 0 then
      if Random.State.bool st then Bit.X else Bit.Z
    else Bit.of_bool (Random.State.bool st))

let check_outputs ~ctx harness dut rf =
  List.iter
    (fun port ->
       let a = Simulator.get_port dut port and b = Reference.get_port rf port in
       if not (Bits.equal a b) then
         Alcotest.failf "%s: port %s: kernel=%s reference=%s" ctx port
           (Bits.to_string a) (Bits.to_string b))
    harness.outputs

let check_histories h_dut h_ref =
  Alcotest.(check int) "watch count" (List.length h_ref) (List.length h_dut);
  List.iter2
    (fun (l1, s1) (l2, s2) ->
       Alcotest.(check string) "watch label" l2 l1;
       Alcotest.(check int) (l1 ^ " sample count") (List.length s2) (List.length s1);
       List.iter2
         (fun (c1, v1) (c2, v2) ->
            if c1 <> c2 || not (Bits.equal v1 v2) then
              Alcotest.failf "watch %s: kernel (%d,%s) vs reference (%d,%s)" l1 c1
                (Bits.to_string v1) c2 (Bits.to_string v2))
         s1 s2)
    h_dut h_ref

(* Drive both simulators with the same random stimulus, comparing every
   output port after each input change and each clock edge, and the full
   watch histories (and a reset) at the end. *)
let run_differential ?(allow_xz = true) ?(use_batch = false) ~seed ~steps harness =
  let st = Random.State.make [| seed |] in
  let clock = harness.clock in
  let dut = Simulator.create ?clock harness.design in
  let rf = Reference.create ?clock harness.design in
  List.iter
    (fun port ->
       match Design.find_port harness.design port with
       | Some p ->
         Simulator.watch dut ~label:port p.Design.port_wire;
         Reference.watch rf ~label:port p.Design.port_wire
       | None -> Alcotest.failf "harness lists unknown port %s" port)
    harness.outputs;
  check_outputs ~ctx:"initial" harness dut rf;
  for step = 1 to steps do
    let stimulus =
      List.map (fun (port, w) -> (port, random_bits st ~allow_xz w)) harness.inputs
    in
    if use_batch then Simulator.set_inputs dut stimulus
    else List.iter (fun (port, v) -> Simulator.set_input dut port v) stimulus;
    List.iter (fun (port, v) -> Reference.set_input rf port v) stimulus;
    check_outputs ~ctx:(Printf.sprintf "step %d, after inputs" step) harness dut rf;
    Simulator.cycle dut;
    Reference.cycle rf;
    check_outputs ~ctx:(Printf.sprintf "step %d, after cycle" step) harness dut rf
  done;
  Alcotest.(check int) "cycle counters" (Reference.cycle_count rf)
    (Simulator.cycle_count dut);
  check_histories (Simulator.history dut) (Reference.history rf);
  Simulator.reset dut;
  Reference.reset rf;
  check_outputs ~ctx:"after reset" harness dut rf;
  check_histories (Simulator.history dut) (Reference.history rf)

(* ------------------------------------------------------------------ *)
(* Properties.                                                         *)

let prop_kcm_matches_reference =
  QCheck.Test.make ~name:"kernel = reference on randomized KCMs" ~count:30
    QCheck.(
      quad (int_range 4 10) (int_range (-128) 127) bool (int_range 0 3))
    (fun (n, raw_constant, signed_mode, shape) ->
       let pipelined_mode = shape land 1 = 1 in
       (* pipelined `Tree is rejected by the generator *)
       let structure = if shape land 2 = 2 && not pipelined_mode then `Tree else `Chain in
       let constant = if signed_mode then raw_constant else abs raw_constant in
       let pw = n + 4 + (shape * 2) in
       let harness =
         kcm_harness ~n ~pw ~signed_mode ~pipelined_mode ~structure ~constant ()
       in
       run_differential ~seed:(((n * 131) + raw_constant + 128) lxor shape)
         ~steps:16 harness;
       true)

let prop_memory_matches_reference =
  QCheck.Test.make ~name:"kernel = reference on SRL16/RAM16 with X stimulus"
    ~count:25
    QCheck.(pair (int_bound 65535) (int_bound 1000))
    (fun (init, seed) ->
       run_differential ~seed ~steps:24 (ram_harness ~init ());
       run_differential ~seed:(seed + 1) ~steps:24 (srl_harness ~init ());
       true)

let test_shift_add_differential () =
  List.iter
    (fun (constant, seed) ->
       run_differential ~seed ~steps:20
         (shift_add_harness ~n:8 ~pw:14 ~constant ()))
    [ (1, 11); (85, 12); (255, 13); (170, 14) ]

let test_fir_differential () =
  run_differential ~seed:42 ~steps:24
    (fir_harness ~xw:6 ~coefficients:[ 3; -5; 7; 2 ] ());
  run_differential ~seed:43 ~steps:24
    (fir_harness ~xw:8 ~coefficients:[ -1; 9; 4 ] ())

let test_batch_inputs_match_sequential () =
  (* the endpoint's set_inputs fast path must settle to the same values
     as per-port set_input calls against the reference *)
  run_differential ~use_batch:true ~seed:7 ~steps:20 (ram_harness ~init:0xBEEF ());
  run_differential ~use_batch:true ~seed:8 ~steps:16
    (kcm_harness ~n:8 ~pw:12 ~signed_mode:true ~pipelined_mode:true
       ~structure:`Chain ~constant:(-77) ())

let test_hook_order_matches () =
  let harness =
    kcm_harness ~n:4 ~pw:8 ~signed_mode:false ~pipelined_mode:true
      ~structure:`Chain ~constant:9 ()
  in
  let dut = Simulator.create ?clock:harness.clock harness.design in
  let rf = Reference.create ?clock:harness.clock harness.design in
  let dut_calls = ref [] and ref_calls = ref [] in
  List.iter
    (fun tag ->
       Simulator.on_cycle dut (fun c -> dut_calls := (tag, c) :: !dut_calls);
       Reference.on_cycle rf (fun c -> ref_calls := (tag, c) :: !ref_calls))
    [ 1; 2; 3 ];
  Simulator.cycle ~n:2 dut;
  Reference.cycle ~n:2 rf;
  Alcotest.(check (list (pair int int)))
    "hooks fire in registration order in both simulators"
    [ (3, 2); (2, 2); (1, 2); (3, 1); (2, 1); (1, 1) ]
    !dut_calls;
  Alcotest.(check (list (pair int int))) "reference agrees" !ref_calls !dut_calls

let test_steady_state_cycle_allocates_nothing () =
  let harness =
    kcm_harness ~n:8 ~pw:16 ~signed_mode:true ~pipelined_mode:true
      ~structure:`Chain ~constant:93 ()
  in
  let dut = Simulator.create ?clock:harness.clock harness.design in
  Simulator.set_input dut "m" (Bits.of_int ~width:8 55);
  (* flush the pipeline so the state is steady *)
  Simulator.cycle ~n:32 dut;
  let before = Gc.minor_words () in
  Simulator.cycle ~n:1000 dut;
  let after = Gc.minor_words () in
  let per_cycle = (after -. before) /. 1000.0 in
  if per_cycle > 0.26 then
    Alcotest.failf "steady-state cycle allocates %.2f words/cycle" per_cycle

let test_instrumented_cycle_allocates_nothing () =
  (* the observability hooks must not cost the kernel its pinned
     zero-allocation steady state: counter bumps are int field writes
     and the per-cycle histogram observe is an int-array increment *)
  let harness =
    kcm_harness ~n:8 ~pw:16 ~signed_mode:true ~pipelined_mode:true
      ~structure:`Chain ~constant:93 ()
  in
  let dut = Simulator.create ?clock:harness.clock harness.design in
  let registry = Jhdl_metrics.Metrics.create "sim" in
  Simulator.register_metrics dut registry;
  Simulator.set_input dut "m" (Bits.of_int ~width:8 55);
  Simulator.cycle ~n:32 dut;
  let evals_before = Simulator.eval_count dut in
  let before = Gc.minor_words () in
  Simulator.cycle ~n:1000 dut;
  let after = Gc.minor_words () in
  let per_cycle = (after -. before) /. 1000.0 in
  if per_cycle > 0.26 then
    Alcotest.failf "instrumented cycle allocates %.2f words/cycle" per_cycle;
  (* a settled pipeline with a constant input evaluates nothing — the
     counters must reflect the warm-up work and then hold still *)
  Alcotest.(check bool) "counters live and consistent" true
    (evals_before > 0
     && Simulator.eval_count dut >= evals_before
     && Simulator.event_count dut > 0);
  match Jhdl_metrics.Metrics.snapshot registry with
  | [] -> Alcotest.fail "registry should expose the kernel probes"
  | samples ->
    Alcotest.(check bool) "cycles probe live" true
      (List.exists
         (function
           | "cycles_total", Jhdl_metrics.Metrics.Counter_sample n -> n = 1032
           | _ -> false)
         samples)

(* ------------------------------------------------------------------ *)
(* First-wave fuzz corpus (PR 6). A 1300+-case campaign across seeds
   1, 2, 3, 5, 99 and 1234 at up to 120 cells found NO divergence
   between the kernel and the reference interpreter. Pin that fact: a
   200-seed corpus, one generated design per seed, must stay clean.
   Any regression in either simulator that breaks their agreement
   shows up here with the seed to replay it from. *)

let test_fuzz_corpus_kernel_matches_reference () =
  let module Fuzz = Jhdl_fuzz.Fuzz in
  let module Gen = Jhdl_fuzz.Gen in
  let module Oracle = Jhdl_fuzz.Oracle in
  let params = { Gen.default_params with Gen.max_cells = 24 } in
  for seed = 0 to 199 do
    let gen_rng, stim_rng = Fuzz.case_rngs ~seed ~case:0 in
    let recipe =
      Gen.recipe gen_rng ~name:(Printf.sprintf "corpus_%d" seed) params
    in
    let stim = Jhdl_fuzz.Gen.stimulus stim_rng recipe ~steps:8 in
    match Oracle.run Oracle.Sim_vs_ref recipe stim with
    | Oracle.Pass -> ()
    | Oracle.Fail m ->
      Alcotest.failf
        "seed %d: kernel diverged from reference (replay with fuzz_tool \
         --seed %d --count 1 --max-cells 24 --steps 8): %s"
        seed seed m
  done

(* ------------------------------------------------------------------ *)
(* Bit-parallel batch kernel (PR 7): N packed stimulus lanes against N
   golden-model runs must agree on every port of every lane, cycle for
   cycle — including X/Z-heavy stimulus, mid-run lane checkpointing and
   the packed kernel's own allocation-free steady state. [Simulator] is
   the same kernel at one lane, so the oracle is [Reference]: a rule
   error shared by every lane count would pass a Simulator oracle. *)

module Batch = Jhdl_sim.Simulator.Batch

(* heavier than random_bits: 1/4 X, 1/4 Z, so the plane formulas see
   undefined values on most words *)
let xz_heavy_bits st width =
  Bits.init width (fun _ ->
    match Random.State.int st 4 with
    | 0 -> Bit.X
    | 1 -> Bit.Z
    | _ -> Bit.of_bool (Random.State.bool st))

let check_lanes ~ctx harness batch scalars =
  Array.iteri
    (fun lane dut ->
       List.iter
         (fun port ->
            let a = Batch.get_port batch ~lane port
            and b = Reference.get_port dut port in
            if not (Bits.equal a b) then
              Alcotest.failf "%s: lane %d port %s: batch=%s reference=%s" ctx
                lane port (Bits.to_string a) (Bits.to_string b))
         harness.outputs)
    scalars

let run_lane_differential ~seed ~lanes ~steps harness =
  let st = Random.State.make [| seed |] in
  let clock = harness.clock in
  let batch = Batch.create ?clock ~lanes harness.design in
  let scalars =
    Array.init lanes (fun _ -> Reference.create ?clock harness.design)
  in
  check_lanes ~ctx:"initial" harness batch scalars;
  for step = 1 to steps do
    Array.iteri
      (fun lane dut ->
         List.iter
           (fun (port, w) ->
              let v = xz_heavy_bits st w in
              Batch.set_input batch ~lane port v;
              Reference.set_input dut port v)
           harness.inputs)
      scalars;
    check_lanes ~ctx:(Printf.sprintf "step %d, after inputs" step) harness
      batch scalars;
    Batch.cycle batch;
    Array.iter (fun dut -> Reference.cycle dut) scalars;
    check_lanes ~ctx:(Printf.sprintf "step %d, after cycle" step) harness
      batch scalars
  done;
  Array.iter
    (fun dut ->
       Alcotest.(check int) "cycle counters" (Reference.cycle_count dut)
         (Batch.cycle_count batch))
    scalars;
  Batch.reset batch;
  Array.iter Reference.reset scalars;
  check_lanes ~ctx:"after reset" harness batch scalars

let prop_batch_lanes_match_kernel =
  QCheck.Test.make ~name:"batch lanes = scalar kernels (X/Z-heavy)" ~count:15
    QCheck.(pair (int_range 1 63) (int_bound 10000))
    (fun (lanes, seed) ->
       let lanes = max 1 (min 63 lanes) in
       let signed_mode = seed land 1 = 1 in
       let constant =
         let c = (seed mod 63) - 31 in
         if signed_mode then c else abs c
       in
       run_lane_differential ~seed ~lanes ~steps:8
         (ram_harness ~init:(seed land 0xFFFF) ());
       run_lane_differential ~seed:(seed + 1) ~lanes ~steps:8
         (srl_harness ~init:(seed land 0xFFFF) ());
       run_lane_differential ~seed:(seed + 2) ~lanes ~steps:6
         (kcm_harness ~n:6 ~pw:10 ~signed_mode ~pipelined_mode:true
            ~structure:`Chain ~constant ());
       true)

(* deterministic 4-valued stimulus so the snapshot test needs no RNG
   bookkeeping: lane/step/index select the value *)
let det_bit ~lane ~step ~port ~i =
  match (lane * 7 + step * 13 + port * 3 + i) mod 6 with
  | 0 -> Bit.X
  | 1 -> Bit.Z
  | k -> Bit.of_bool (k land 1 = 1)

let det_stimulus harness ~lane ~step =
  List.mapi
    (fun port (name, w) ->
       (name, Bits.init w (fun i -> det_bit ~lane ~step ~port ~i)))
    harness.inputs

let test_batch_snapshot_restore_mid_run () =
  let harness = ram_harness ~init:0x5A5A () in
  let lanes = 7 and target = 4 and total = 24 and mid = 11 in
  let clock = harness.clock in
  let batch = Batch.create ?clock ~lanes harness.design in
  (* the golden twin is watchless, so its blob and the lane blob must
     be byte-identical *)
  let scalar = Reference.create ?clock harness.design in
  let drive_step ~step =
    for lane = 0 to lanes - 1 do
      List.iter
        (fun (name, v) -> Batch.set_input batch ~lane name v)
        (det_stimulus harness ~lane ~step)
    done;
    List.iter
      (fun (name, v) -> Reference.set_input scalar name v)
      (det_stimulus harness ~lane:target ~step);
    Batch.cycle batch;
    Reference.cycle scalar
  in
  for step = 1 to mid do
    drive_step ~step
  done;
  let blob = Batch.snapshot_lane batch ~lane:target in
  Alcotest.(check string)
    "lane blob byte-identical to the reference snapshot"
    (Reference.snapshot scalar) blob;
  (* restore the lane into a fresh batch sim and keep driving: the
     restored lane must shadow the reference run to the end *)
  let batch2 = Batch.create ?clock ~lanes harness.design in
  Batch.restore_lane batch2 ~lane:target blob;
  for step = mid + 1 to total do
    List.iter
      (fun (name, v) ->
         Batch.set_input batch2 ~lane:target name v;
         Reference.set_input scalar name v)
      (det_stimulus harness ~lane:target ~step);
    Batch.cycle batch2;
    Reference.cycle scalar;
    List.iter
      (fun port ->
         let a = Batch.get_port batch2 ~lane:target port
         and b = Reference.get_port scalar port in
         if not (Bits.equal a b) then
           Alcotest.failf "step %d after restore: port %s: batch=%s reference=%s"
             step port (Bits.to_string a) (Bits.to_string b))
      harness.outputs
  done

let test_batch_steady_state_allocates_nothing () =
  let harness =
    kcm_harness ~n:8 ~pw:16 ~signed_mode:true ~pipelined_mode:true
      ~structure:`Chain ~constant:93 ()
  in
  let batch = Batch.create ?clock:harness.clock ~lanes:63 harness.design in
  for lane = 0 to 62 do
    Batch.set_input batch ~lane "m"
      (Bits.of_int ~width:8 (((lane * 5) + 7) land 0xFF))
  done;
  Batch.cycle ~n:32 batch;
  let before = Gc.minor_words () in
  Batch.cycle ~n:1000 batch;
  let after = Gc.minor_words () in
  let per_cycle = (after -. before) /. 1000.0 in
  if per_cycle > 0.26 then
    Alcotest.failf "batch steady-state cycle allocates %.2f words/cycle"
      per_cycle

(* the batch kernel's payoff as a work count, not a timing: 63 lanes
   of the pipelined 8x8 KCM, each with its own stimulus, make at most
   a third of the node evaluations that 63 one-lane runs of the same
   testbenches make *)
let test_batch_evals_beat_one_lane_runs () =
  let harness =
    kcm_harness ~n:8 ~pw:16 ~signed_mode:true ~pipelined_mode:true
      ~structure:`Chain ~constant:(-56) ()
  in
  let clock = harness.clock and design = harness.design in
  let lanes = Batch.max_lanes and cycles = 300 in
  let stimulus i lane =
    Bits.of_int ~width:8 (((i * 93) + (lane * 17)) land 0xFF)
  in
  let batch = Batch.create ?clock ~lanes design in
  for i = 0 to cycles - 1 do
    for lane = 0 to lanes - 1 do
      Batch.set_input batch ~lane "m" (stimulus i lane)
    done;
    Batch.cycle batch
  done;
  let one_lane_evals = ref 0 in
  for lane = 0 to lanes - 1 do
    let sim = Simulator.create ?clock design in
    for i = 0 to cycles - 1 do
      Simulator.set_input sim "m" (stimulus i lane);
      Simulator.cycle sim
    done;
    one_lane_evals := !one_lane_evals + Simulator.eval_count sim
  done;
  let batch_evals = Batch.eval_count batch in
  if 3 * batch_evals > !one_lane_evals then
    Alcotest.failf "63 lanes made %d evals against %d for 63 one-lane runs"
      batch_evals !one_lane_evals

let test_batch_lane_bounds () =
  let harness = ram_harness ~init:0 () in
  Alcotest.check_raises "zero lanes"
    (Invalid_argument
       "Simulator.Batch.create: lanes must be within 1..63 (got 0)")
    (fun () ->
      ignore (Batch.create ?clock:harness.clock ~lanes:0 harness.design));
  Alcotest.check_raises "64 lanes never silently truncate"
    (Invalid_argument
       "Simulator.Batch.create: lanes must be within 1..63 (got 64)")
    (fun () ->
      ignore (Batch.create ?clock:harness.clock ~lanes:64 harness.design));
  let batch = Batch.create ?clock:harness.clock ~lanes:2 harness.design in
  Alcotest.check_raises "lane index past the lane count"
    (Invalid_argument "Simulator.Batch: lane 2 out of range 0..1") (fun () ->
      Batch.set_input batch ~lane:2 "d" (Bits.of_int ~width:1 1));
  Alcotest.check_raises "negative lane index"
    (Invalid_argument "Simulator.Batch: lane -1 out of range 0..1") (fun () ->
      ignore (Batch.get_port batch ~lane:(-1) "o"))

(* the 200-seed corpus again (same seeds as the kernel-vs-reference
   sweep above), now at every lane count: every generated design runs
   with a seed-dependent lane count against that many reference runs,
   each lane on its own rotated stimulus *)
let test_fuzz_corpus_batch_matches_kernel () =
  let module Fuzz = Jhdl_fuzz.Fuzz in
  let module Gen = Jhdl_fuzz.Gen in
  let module Oracle = Jhdl_fuzz.Oracle in
  let module Recipe = Jhdl_fuzz.Recipe in
  let module Stimulus = Jhdl_fuzz.Stimulus in
  let params = { Gen.default_params with Gen.max_cells = 24 } in
  for seed = 0 to 199 do
    let gen_rng, stim_rng = Fuzz.case_rngs ~seed ~case:0 in
    let recipe =
      Gen.recipe gen_rng ~name:(Printf.sprintf "bcorpus_%d" seed) params
    in
    let stim = Gen.stimulus stim_rng recipe ~steps:8 in
    let built = Recipe.build recipe in
    let clock = built.Recipe.clock in
    let lanes = 1 + (seed mod Batch.max_lanes) in
    let batch = Batch.create ?clock ~lanes built.Recipe.design in
    let scalars =
      Array.init lanes (fun _ -> Reference.create ?clock built.Recipe.design)
    in
    let lane_stims =
      Array.init lanes (fun lane -> Oracle.lane_stimulus stim ~lane)
    in
    let check ctx =
      Array.iteri
        (fun lane dut ->
           List.iter
             (fun port ->
                let a = Batch.get_port batch ~lane port
                and b = Reference.get_port dut port in
                if not (Bits.equal a b) then
                  Alcotest.failf
                    "seed %d, %s: lane %d port %s: batch=%s reference=%s" seed
                    ctx lane port (Bits.to_string a) (Bits.to_string b))
             built.Recipe.output_ports)
        scalars
    in
    check "initial";
    for s = 0 to Stimulus.step_count stim - 1 do
      Array.iteri
        (fun lane dut ->
           let row = lane_stims.(lane).Stimulus.steps.(s) in
           List.iteri
             (fun k port ->
                Batch.set_input batch ~lane port row.(k);
                Reference.set_input dut port row.(k))
             built.Recipe.input_ports)
        scalars;
      check (Printf.sprintf "step %d after inputs" s);
      Batch.cycle batch;
      Array.iter (fun dut -> Reference.cycle dut) scalars;
      check (Printf.sprintf "step %d after cycle" s)
    done
  done

(* ------------------------------------------------------------------ *)
(* The one-lane lookups at their edges: LUT1-LUT4 and the SRL16E and
   RAM16X1S reads under every 0/1/X/Z address, in the one-lane
   [Simulator] and in a 63-lane [Batch] (vectors spread across lanes),
   each against [Reference] bit for bit, Z included. The one-lane
   kernel looks a fully defined address up directly and falls back to
   the product tree on any X or Z, so these vectors cross that edge
   from both sides.                                                    *)

let four_valued = [| Bit.Zero; Bit.One; Bit.X; Bit.Z |]

(* all 4^k vectors over {0,1,X,Z}, bit [i] of vector [v] from v's
   base-4 digit [i] *)
let address_vectors k =
  List.init (1 lsl (2 * k)) (fun v ->
    Array.init k (fun i -> four_valued.((v lsr (2 * i)) land 3)))

(* [load] is a list of clocked steps (inputs, then an edge) run in every
   kernel and every lane; then each of [reads] (inputs only, no edge)
   must read the same [out] everywhere *)
let check_reads ~ctx ?clock design ~load ~reads ~out =
  let lanes = Batch.max_lanes in
  let sim = Simulator.create ?clock design in
  let batch = Batch.create ?clock ~lanes design in
  let rf = Reference.create ?clock design in
  List.iter
    (fun step ->
       Simulator.set_inputs sim step;
       Simulator.cycle sim;
       for lane = 0 to lanes - 1 do
         Batch.set_inputs batch ~lane step
       done;
       Batch.cycle batch;
       List.iter (fun (port, v) -> Reference.set_input rf port v) step;
       Reference.cycle rf)
    load;
  let reads = Array.of_list reads in
  let n = Array.length reads in
  let expected =
    Array.map
      (fun read ->
         List.iter (fun (port, v) -> Reference.set_input rf port v) read;
         Reference.get_port rf out)
      reads
  in
  let check kernel i got =
    if not (Bits.equal got expected.(i)) then
      Alcotest.failf "%s: %s, read {%s}: %s, reference %s" ctx kernel
        (String.concat " "
           (List.map (fun (port, v) -> port ^ "=" ^ Bits.to_string v) reads.(i)))
        (Bits.to_string got) (Bits.to_string expected.(i))
  in
  Array.iteri
    (fun i read ->
       Simulator.set_inputs sim read;
       check "one lane" i (Simulator.get_port sim out))
    reads;
  let lo = ref 0 in
  while !lo < n do
    for lane = 0 to lanes - 1 do
      Batch.set_inputs batch ~lane reads.((!lo + lane) mod n)
    done;
    for lane = 0 to lanes - 1 do
      let i = (!lo + lane) mod n in
      check (Printf.sprintf "lane %d of 63" lane) i (Batch.get_port batch ~lane out)
    done;
    lo := !lo + lanes
  done

let test_lut_lookup_edges () =
  List.iter
    (fun (k, tables) ->
       List.iter
         (fun table ->
            let top = Cell.root ~name:"top" () in
            let name i = Printf.sprintf "a%d" i in
            let a = List.init k (fun i -> Wire.create top ~name:(name i) 1) in
            let o = Wire.create top ~name:"o" 1 in
            let _ =
              Virtex.lut_of_function top a o ~f:(fun addr -> (table lsr addr) land 1 = 1)
            in
            let d = Design.create top in
            List.iteri (fun i w -> Design.add_port d (name i) Types.Input w) a;
            Design.add_port d "o" Types.Output o;
            check_reads ~ctx:(Printf.sprintf "LUT%d INIT=%X" k table) d ~load:[]
              ~reads:
                (List.map
                   (fun v -> List.init k (fun i -> (name i, Bits.create 1 v.(i))))
                   (address_vectors k))
              ~out:"o")
         tables)
    [ (1, [ 0x0; 0x1; 0x2; 0x3 ]);
      (2, [ 0x0; 0xF; 0x8; 0x6; 0xE ]);
      (3, [ 0x00; 0xFF; 0x80; 0x96; 0xE8 ]);
      (4, [ 0x0000; 0xFFFF; 0x8000; 0x0001; 0x6996; 0xCAFE ]) ]

(* cell [j]'s content: every cell kind in several arrangements *)
let cell_patterns =
  [ ("cycling", fun j -> four_valued.(j land 3));
    ("blocks of four", fun j -> four_valued.((j lsr 2) land 3));
    ("scattered", fun j -> four_valued.(((j * 7) + 1) mod 4));
    ("one Z among ones", fun j -> if j = 5 then Bit.Z else Bit.One) ]

let test_mem_read_edges () =
  let bit b = Bits.create 1 b in
  let reads =
    List.map (fun v -> [ ("a", Bits.init 4 (fun i -> v.(i))) ]) (address_vectors 4)
  in
  List.iter
    (fun (what, cell) ->
       (* SRL16E: sixteen shifts leave the value shifted in at step
          [15 - j] in tap [j] *)
       let h = srl_harness ~init:0xA5C3 () in
       check_reads ~ctx:("SRL16E, " ^ what) ?clock:h.clock h.design
         ~load:
           (List.init 16 (fun s ->
              [ ("ce", bit Bit.One); ("d", bit (cell (15 - s)));
                ("a", Bits.zero 4) ]))
         ~reads ~out:"q";
       (* RAM16X1S: one write per cell *)
       let h = ram_harness ~init:0x3C5A () in
       check_reads ~ctx:("RAM16X1S, " ^ what) ?clock:h.clock h.design
         ~load:
           (List.init 16 (fun j ->
              [ ("we", bit Bit.One); ("d", bit (cell j));
                ("a", Bits.of_int ~width:4 j) ]))
         ~reads ~out:"o")
    cell_patterns

let suite =
  [ Alcotest.test_case "shift-add vs reference" `Quick test_shift_add_differential;
    Alcotest.test_case "200-seed fuzz corpus: kernel = reference" `Quick
      test_fuzz_corpus_kernel_matches_reference;
    Alcotest.test_case "fir vs reference" `Quick test_fir_differential;
    Alcotest.test_case "batch inputs = sequential" `Quick
      test_batch_inputs_match_sequential;
    Alcotest.test_case "hook order" `Quick test_hook_order_matches;
    Alcotest.test_case "steady-state cycle is allocation-free" `Quick
      test_steady_state_cycle_allocates_nothing;
    Alcotest.test_case "instrumented cycle is allocation-free" `Quick
      test_instrumented_cycle_allocates_nothing;
    Alcotest.test_case "batch lane snapshot/restore mid-run" `Quick
      test_batch_snapshot_restore_mid_run;
    Alcotest.test_case "batch steady-state cycle is allocation-free" `Quick
      test_batch_steady_state_allocates_nothing;
    Alcotest.test_case "batch lane counts 0 and 64 are rejected" `Quick
      test_batch_lane_bounds;
    Alcotest.test_case "63 lanes make a third of one-lane evals" `Quick
      test_batch_evals_beat_one_lane_runs;
    Alcotest.test_case "200-seed fuzz corpus: batch = kernel" `Quick
      test_fuzz_corpus_batch_matches_kernel;
    Alcotest.test_case "LUT1-LUT4 under every 0/1/X/Z address" `Quick
      test_lut_lookup_edges;
    Alcotest.test_case "SRL16E/RAM16X1S reads under every 0/1/X/Z address"
      `Quick test_mem_read_edges ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_kcm_matches_reference;
        prop_memory_matches_reference;
        prop_batch_lanes_match_kernel ]
