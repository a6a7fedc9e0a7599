module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Types = Jhdl_circuit.Types
module Bits = Jhdl_logic.Bits
module Kcm = Jhdl_modgen.Kcm
module Fir = Jhdl_modgen.Fir
module Counter = Jhdl_modgen.Counter
module Cordic = Jhdl_modgen.Cordic
module Wallace = Jhdl_modgen.Wallace
module Divider = Jhdl_modgen.Divider
module Testbench = Jhdl_sim.Testbench
module Store = Jhdl_cache.Store
module Delivery = Jhdl_cache.Delivery

let vendor = "BYU Configurable Computing Lab"

let kcm_build assignment =
  let n = Ip_module.int_param assignment "multiplicand_width" in
  let pw = Ip_module.int_param assignment "product_width" in
  let signed_mode = Ip_module.bool_param assignment "signed" in
  let pipelined_mode = Ip_module.bool_param assignment "pipelined" in
  let constant = Ip_module.int_param assignment "constant" in
  let top = Cell.root ~name:"kcm_top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let multiplicand = Wire.create top ~name:"multiplicand" n in
  let product = Wire.create top ~name:"product" pw in
  let kcm =
    Kcm.create top ~clk ~multiplicand ~product ~signed_mode ~pipelined_mode
      ~constant ()
  in
  let design = Design.create top in
  Design.add_port design "clk" Types.Input clk;
  Design.add_port design "multiplicand" Types.Input multiplicand;
  Design.add_port design "product" Types.Output product;
  { Ip_module.design;
    clock_port = Some "clk";
    latency = kcm.Kcm.latency;
    notes =
      [ Printf.sprintf "full product width %d, %d partial-product table(s)"
          kcm.Kcm.full_width kcm.Kcm.table_count ] }

let kcm_reference assignment inputs =
  let n = Ip_module.int_param assignment "multiplicand_width" in
  let pw = Ip_module.int_param assignment "product_width" in
  let signed_mode = Ip_module.bool_param assignment "signed" in
  let constant = Ip_module.int_param assignment "constant" in
  let kw = Jhdl_modgen.Util.bits_for_constant constant in
  List.map
    (fun x ->
       Kcm.expected_product ~signed_mode ~constant ~full_width:(n + kw)
         ~product_width:pw x)
    inputs

(* vendor-shipped validation bench: drive a spread of multiplicands,
   expect the golden products, honouring the pipeline latency *)
let kcm_bench assignment (built : Ip_module.built) =
  let n = Ip_module.int_param assignment "multiplicand_width" in
  let pw = Ip_module.int_param assignment "product_width" in
  let signed_mode = Ip_module.bool_param assignment "signed" in
  let constant = Ip_module.int_param assignment "constant" in
  let kw = Jhdl_modgen.Util.bits_for_constant constant in
  let latency = built.Ip_module.latency in
  let sample i = (i * 37) land ((1 lsl n) - 1) in
  List.concat_map
    (fun i ->
       let x = Bits.of_int ~width:n (sample i) in
       let expected =
         Kcm.expected_product ~signed_mode ~constant ~full_width:(n + kw)
           ~product_width:pw x
       in
       [ Testbench.Drive ("multiplicand", x) ]
       @ (if latency = 0 then [ Testbench.Settle ]
          else [ Testbench.Step latency ])
       @ [ Testbench.Expect ("product", expected) ])
    (List.init 12 (fun i -> i))

let kcm =
  { Ip_module.ip_name = "VirtexKCMMultiplier";
    vendor;
    description =
      "Optimized constant coefficient multiplier using partial-product \
       look-up tables (Virtex, pre-placed)";
    params =
      [ ("multiplicand_width",
         Ip_module.Int_param { min_value = 2; max_value = 16; default = 8 });
        ("product_width",
         Ip_module.Int_param { min_value = 2; max_value = 32; default = 12 });
        ("signed", Ip_module.Bool_param { default = true });
        ("pipelined", Ip_module.Bool_param { default = true });
        ("constant",
         Ip_module.Int_param
           { min_value = -32768; max_value = 32767; default = -56 }) ];
    build = kcm_build;
    reference = Some kcm_reference;
    shipped_bench = Some kcm_bench }

let fir_coefficient_sets =
  [ ("lowpass5", [ 1; 4; 6; 4; 1 ]);
    ("highpass5", [ -1; -2; 6; -2; -1 ]);
    ("edge3", [ -1; 2; -1 ]);
    ("boxcar4", [ 1; 1; 1; 1 ]) ]

let fir_build assignment =
  let xw = Ip_module.int_param assignment "input_width" in
  let yw = Ip_module.int_param assignment "output_width" in
  let signed_mode = Ip_module.bool_param assignment "signed" in
  let set_name = Ip_module.choice_param assignment "taps" in
  let coefficients = List.assoc set_name fir_coefficient_sets in
  if (not signed_mode) && List.exists (fun c -> c < 0) coefficients then
    invalid_arg
      (Printf.sprintf "coefficient set %s needs signed mode" set_name);
  let top = Cell.root ~name:"fir_top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let x = Wire.create top ~name:"x" xw in
  let y = Wire.create top ~name:"y" yw in
  let fir = Fir.create top ~clk ~x ~y ~signed_mode ~coefficients () in
  let design = Design.create top in
  Design.add_port design "clk" Types.Input clk;
  Design.add_port design "x" Types.Input x;
  Design.add_port design "y" Types.Output y;
  { Ip_module.design;
    clock_port = Some "clk";
    latency = 0;
    notes =
      [ Printf.sprintf "%d taps (%s), accumulation width %d" fir.Fir.taps
          set_name fir.Fir.full_width ] }

let fir_reference assignment inputs =
  let xw = Ip_module.int_param assignment "input_width" in
  let yw = Ip_module.int_param assignment "output_width" in
  let signed_mode = Ip_module.bool_param assignment "signed" in
  let set_name = Ip_module.choice_param assignment "taps" in
  let coefficients = List.assoc set_name fir_coefficient_sets in
  let full_width = Fir.accumulation_width ~x_width:xw ~coefficients in
  let samples =
    List.map
      (fun v ->
         match
           if signed_mode then Bits.to_signed_int v else Bits.to_int v
         with
         | Some n -> n
         | None -> 0)
      inputs
  in
  Fir.expected_response ~signed_mode ~coefficients ~full_width ~out_width:yw
    samples

let fir_bench assignment (_ : Ip_module.built) =
  let xw = Ip_module.int_param assignment "input_width" in
  let yw = Ip_module.int_param assignment "output_width" in
  let signed_mode = Ip_module.bool_param assignment "signed" in
  let set_name = Ip_module.choice_param assignment "taps" in
  let coefficients = List.assoc set_name fir_coefficient_sets in
  let full_width = Fir.accumulation_width ~x_width:xw ~coefficients in
  let limit = 1 lsl (xw - 1) in
  let samples = List.init 10 (fun i -> ((i * 23) mod (2 * limit)) - limit) in
  let samples =
    if signed_mode then samples else List.map (fun s -> abs s) samples
  in
  let expected =
    Fir.expected_response ~signed_mode ~coefficients ~full_width
      ~out_width:yw samples
  in
  List.concat
    (List.map2
       (fun x e ->
          (* y(n) is combinational in x(n): check before the edge *)
          [ Testbench.Drive ("x", Bits.of_int ~width:xw x);
            Testbench.Settle;
            Testbench.Expect ("y", e);
            Testbench.Step 1 ])
       samples expected)

let fir =
  { Ip_module.ip_name = "FirFilter";
    vendor;
    description =
      "Transposed-form constant-coefficient FIR filter built from KCM \
       multipliers";
    params =
      [ ("input_width",
         Ip_module.Int_param { min_value = 2; max_value = 12; default = 8 });
        ("output_width",
         Ip_module.Int_param { min_value = 4; max_value = 40; default = 20 });
        ("signed", Ip_module.Bool_param { default = true });
        ("taps",
         Ip_module.Choice_param
           { choices = List.map fst fir_coefficient_sets;
             default = "lowpass5" }) ];
    build = fir_build;
    reference = Some fir_reference;
    shipped_bench = Some fir_bench }

let counter_build assignment =
  let width = Ip_module.int_param assignment "width" in
  let has_enable = Ip_module.bool_param assignment "has_enable" in
  let top = Cell.root ~name:"counter_top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let q = Wire.create top ~name:"q" width in
  let design = Design.create top in
  Design.add_port design "clk" Types.Input clk;
  if has_enable then begin
    let ce = Wire.create top ~name:"ce" 1 in
    let _ = Counter.up_counter top ~clk ~ce ~q () in
    Design.add_port design "ce" Types.Input ce
  end
  else begin
    let _ = Counter.up_counter top ~clk ~q () in
    ()
  end;
  Design.add_port design "q" Types.Output q;
  { Ip_module.design; clock_port = Some "clk"; latency = 1; notes = [] }

let counter_bench assignment (_ : Ip_module.built) =
  let width = Ip_module.int_param assignment "width" in
  let has_enable = Ip_module.bool_param assignment "has_enable" in
  let wrap = 1 lsl width in
  (if has_enable then [ Testbench.Drive ("ce", Bits.of_int ~width:1 1) ]
   else [])
  @ [ Testbench.Expect ("q", Bits.zero width);
      Testbench.Step 5;
      Testbench.Expect ("q", Bits.of_int ~width (5 mod wrap));
      Testbench.Step wrap;
      Testbench.Expect ("q", Bits.of_int ~width (5 mod wrap)) ]
  @
  if has_enable then
    [ Testbench.Drive ("ce", Bits.of_int ~width:1 0);
      Testbench.Step 3;
      Testbench.Expect ("q", Bits.of_int ~width (5 mod wrap)) ]
  else []

let counter =
  { Ip_module.ip_name = "UpCounter";
    vendor;
    description = "Carry-chain binary up-counter";
    params =
      [ ("width",
         Ip_module.Int_param { min_value = 1; max_value = 16; default = 8 });
        ("has_enable", Ip_module.Bool_param { default = false }) ];
    build = counter_build;
    reference = None;
    shipped_bench = Some counter_bench }

let cordic_build assignment =
  let width = Ip_module.int_param assignment "width" in
  let iterations = Ip_module.int_param assignment "iterations" in
  let pipelined = Ip_module.bool_param assignment "pipelined" in
  let top = Cell.root ~name:"cordic_top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let angle = Wire.create top ~name:"angle" width in
  let cos_out = Wire.create top ~name:"cos" width in
  let sin_out = Wire.create top ~name:"sin" width in
  let cordic =
    Cordic.create top ~clk ~angle ~cos_out ~sin_out ~iterations ~pipelined ()
  in
  let design = Design.create top in
  Design.add_port design "clk" Types.Input clk;
  Design.add_port design "angle" Types.Input angle;
  Design.add_port design "cos" Types.Output cos_out;
  Design.add_port design "sin" Types.Output sin_out;
  { Ip_module.design;
    clock_port = Some "clk";
    latency = cordic.Cordic.latency;
    notes =
      [ Printf.sprintf "%d unrolled iterations; outputs scaled by 2^%d"
          cordic.Cordic.iterations (width - 2) ] }

let cordic_bench assignment (built : Ip_module.built) =
  let width = Ip_module.int_param assignment "width" in
  let iterations = Ip_module.int_param assignment "iterations" in
  let latency = built.Ip_module.latency in
  let quarter = 1 lsl (width - 2) in
  List.concat_map
    (fun angle ->
       let cos_ref, sin_ref = Cordic.reference ~width ~iterations angle in
       [ Testbench.Drive ("angle", Bits.of_int ~width angle) ]
       @ (if latency = 0 then [ Testbench.Settle ]
          else [ Testbench.Step latency ])
       @ [ Testbench.Expect ("cos", Bits.of_int ~width cos_ref);
           Testbench.Expect ("sin", Bits.of_int ~width sin_ref) ])
    [ 0; quarter / 2; -quarter / 2; quarter; -quarter; 1; -1 ]

let cordic =
  { Ip_module.ip_name = "CordicRotator";
    vendor;
    description = "Fixed-point CORDIC sine/cosine rotator (unrolled)";
    params =
      [ ("width",
         Ip_module.Int_param { min_value = 6; max_value = 32; default = 12 });
        ("iterations",
         Ip_module.Int_param { min_value = 1; max_value = 32; default = 10 });
        ("pipelined", Ip_module.Bool_param { default = false }) ];
    build = cordic_build;
    reference = None;
    shipped_bench = Some cordic_bench }

let wallace_build assignment =
  let aw = Ip_module.int_param assignment "a_width" in
  let bw = Ip_module.int_param assignment "b_width" in
  let pw = Ip_module.int_param assignment "product_width" in
  let top = Cell.root ~name:"wallace_top" () in
  let a = Wire.create top ~name:"a" aw in
  let b = Wire.create top ~name:"b" bw in
  let product = Wire.create top ~name:"product" pw in
  let w = Wallace.create top ~a ~b ~product () in
  let design = Design.create top in
  Design.add_port design "a" Types.Input a;
  Design.add_port design "b" Types.Input b;
  Design.add_port design "product" Types.Output product;
  { Ip_module.design;
    clock_port = None;
    latency = 0;
    notes =
      [ Printf.sprintf
          "%d reduction stage(s), %d full + %d half adders, full width %d"
          w.Wallace.stages w.Wallace.full_adders w.Wallace.half_adders
          w.Wallace.full_width ] }

let wallace_bench assignment (_ : Ip_module.built) =
  let aw = Ip_module.int_param assignment "a_width" in
  let bw = Ip_module.int_param assignment "b_width" in
  let pw = Ip_module.int_param assignment "product_width" in
  List.concat_map
    (fun i ->
       let x = (i * 37) land ((1 lsl aw) - 1) in
       let y = (i * 23) land ((1 lsl bw) - 1) in
       [ Testbench.Drive ("a", Bits.of_int ~width:aw x);
         Testbench.Drive ("b", Bits.of_int ~width:bw y);
         Testbench.Settle;
         Testbench.Expect
           ("product",
            Wallace.expected_product ~a_width:aw ~b_width:bw ~product_width:pw
              x y) ])
    (List.init 12 (fun i -> i))

let wallace =
  { Ip_module.ip_name = "WallaceTreeMultiplier";
    vendor;
    description =
      "Variable-by-variable unsigned multiplier with column-compressed \
       Wallace-tree reduction";
    params =
      [ ("a_width",
         Ip_module.Int_param { min_value = 2; max_value = 12; default = 8 });
        ("b_width",
         Ip_module.Int_param { min_value = 2; max_value = 12; default = 8 });
        ("product_width",
         Ip_module.Int_param { min_value = 2; max_value = 24; default = 16 }) ];
    build = wallace_build;
    reference = None;
    shipped_bench = Some wallace_bench }

let divider_build assignment =
  let n = Ip_module.int_param assignment "dividend_width" in
  let m = Ip_module.int_param assignment "divisor_width" in
  let pipelined = Ip_module.bool_param assignment "pipelined" in
  let top = Cell.root ~name:"divider_top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let dividend = Wire.create top ~name:"dividend" n in
  let divisor = Wire.create top ~name:"divisor" m in
  let quotient = Wire.create top ~name:"quotient" n in
  let remainder = Wire.create top ~name:"remainder" m in
  let div =
    Divider.create top ~clk ~dividend ~divisor ~quotient ~remainder
      ~pipelined ()
  in
  let design = Design.create top in
  Design.add_port design "clk" Types.Input clk;
  Design.add_port design "dividend" Types.Input dividend;
  Design.add_port design "divisor" Types.Input divisor;
  Design.add_port design "quotient" Types.Output quotient;
  Design.add_port design "remainder" Types.Output remainder;
  { Ip_module.design;
    clock_port = Some "clk";
    latency = div.Divider.latency;
    notes =
      [ Printf.sprintf "%d restoring stage(s), one division per cycle"
          div.Divider.stages ] }

let divider_bench assignment (built : Ip_module.built) =
  let n = Ip_module.int_param assignment "dividend_width" in
  let m = Ip_module.int_param assignment "divisor_width" in
  let latency = built.Ip_module.latency in
  List.concat_map
    (fun i ->
       let x = (i * 41) land ((1 lsl n) - 1) in
       let y = (i * 13) land ((1 lsl m) - 1) in
       let q, r = Divider.reference ~dividend_width:n ~divisor_width:m x y in
       [ Testbench.Drive ("dividend", Bits.of_int ~width:n x);
         Testbench.Drive ("divisor", Bits.of_int ~width:m y) ]
       @ (if latency = 0 then [ Testbench.Settle ]
          else [ Testbench.Step latency ])
       @ [ Testbench.Expect ("quotient", Bits.of_int ~width:n q);
           Testbench.Expect ("remainder", Bits.of_int ~width:m r) ])
    (List.init 10 (fun i -> i + 1))

let divider =
  { Ip_module.ip_name = "PipelinedDivider";
    vendor;
    description =
      "Unsigned restoring-array divider, one stage per dividend bit, \
       optionally fully pipelined";
    params =
      [ ("dividend_width",
         Ip_module.Int_param { min_value = 2; max_value = 12; default = 8 });
        ("divisor_width",
         Ip_module.Int_param { min_value = 2; max_value = 8; default = 4 });
        ("pipelined", Ip_module.Bool_param { default = true }) ];
    build = divider_build;
    reference = None;
    shipped_bench = Some divider_bench }

let all = [ kcm; fir; counter; cordic; wallace; divider ]

let find name =
  let lower = String.lowercase_ascii name in
  List.find_opt
    (fun ip -> String.lowercase_ascii ip.Ip_module.ip_name = lower)
    all

type elaboration_error = {
  failed_ip : string;
  exception_name : string;
  detail : string;
}

let elaboration_error_to_string e =
  Printf.sprintf "failed to elaborate %s: %s" e.failed_ip e.detail

(* the schema checks each parameter on its own; a generator raises on
   the combinations it cannot build (a CORDIC with more iterations
   than bits), and that raise becomes a typed verdict here *)
let elaborate ip assignment =
  match ip.Ip_module.build assignment with
  | built -> Ok built
  | exception e ->
    Error
      { failed_ip = ip.Ip_module.ip_name;
        exception_name = Printexc.exn_slot_name e;
        detail = Printexc.to_string e }

(* the verdict cache is keyed by the generator invocation — name,
   canonicalized default parameters, tech-library version — so a hit
   skips elaboration entirely; elaboration is deterministic in exactly
   those inputs, which is what makes the address honest *)
let lint_descriptor ip =
  Delivery.generator_descriptor
    ~generator:("lint:" ^ ip.Ip_module.ip_name)
    ~params:
      (List.map
         (fun (k, v) -> (k, Ip_module.param_to_string v))
         (Ip_module.defaults ip))

let lint_verdict ?cache ?(now = 0.) ip =
  let descriptor = lint_descriptor ip in
  let cached =
    match cache with
    | Some store -> Store.find store ~now ~descriptor
    | None -> None
  in
  match cached with
  | Some report -> Ok report
  | None ->
    (match elaborate ip (Ip_module.defaults ip) with
     | Error e -> Error e
     | Ok built ->
       let report = Jhdl_lint.Lint.run built.Ip_module.design in
       (match cache with
        | Some store ->
          ignore
            (Store.add store ~now ~descriptor
               ~bytes:(String.length (Jhdl_lint.Lint.to_json report))
               report
             : string list)
        | None -> ());
       Ok report)

(* catalog-facing lint summary: counts only (the full report is the
   lint tool's job) *)
let lint_summary ?cache ?now ip =
  match lint_verdict ?cache ?now ip with
  | Ok report -> Jhdl_lint.Lint.summary report
  | Error e -> elaboration_error_to_string e
