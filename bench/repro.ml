(* The paper's evaluation, regenerated: every table and figure, the
   quantitative claims and the ablations, as laid out in DESIGN.md
   Section 4 and EXPERIMENTS.md:

     T1  Table 1   jar files used by the KCM applet
     F1  Figure 1  the KCM executable's GUI session (parameters+estimate)
     F2  Figure 2  two IP-executable configurations
     F3  Figure 3  the transparent KCM evaluation applet, self-checked
     F4  Figure 4  black-box co-simulation in a system simulator
     C1  Section 1.2.1/4.2 claim: local applet vs Web-CAD vs JavaCAD
         (C1f: the same under packet loss)
     C2  Section 4.4 claim: partitioned jar download time
         (C2f: the same under packet loss)
     A1  ablation: KCM vs shift-add constant multiplier
     A1b ablation: KCM-FIR vs distributed-arithmetic FIR
     A2  ablation: obfuscation / watermark / encryption overheads
     A3  ablation: delivery forms (netlist vs JBits bitstream vs applet)
     A4  ablation: relative placement (hand / auto / random / stripped)
     A5  ablation: KCM accumulation structure (chain vs tree)
     AN1 formal analysis: BDD proofs of the chain-vs-tree KCM pair
     R1  overload resilience: offered load x fault rate -> goodput,
         shed rate, p95 queue wait

   Every number is computed or modelled (network and download seconds,
   queue waits), never read from a clock, so the output is the same on
   every run; `dune build @repro` diffs it against repro.expected. Wall
   time is measured by bench/e2e only. *)

open Jhdl

let section id title =
  Printf.printf "\n=====================================================\n";
  Printf.printf "%s  %s\n" id title;
  Printf.printf "=====================================================\n"

let kb bytes = (bytes + 512) / 1024

(* ------------------------------------------------------------------ *)
(* shared circuit builders                                             *)
(* ------------------------------------------------------------------ *)

let kcm_design ~n ~pw ~signed_mode ~pipelined_mode ~constant =
  let top = Cell.root ~name:"kcm_top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let m = Wire.create top ~name:"multiplicand" n in
  let p = Wire.create top ~name:"product" pw in
  let _ =
    Kcm.create top ~clk ~multiplicand:m ~product:p ~signed_mode
      ~pipelined_mode ~constant ()
  in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "multiplicand" Types.Input m;
  Design.add_port d "product" Types.Output p;
  d

let shift_add_design ~n ~pw ~constant =
  let top = Cell.root ~name:"sa_top" () in
  let m = Wire.create top ~name:"multiplicand" n in
  let p = Wire.create top ~name:"product" pw in
  let _ =
    Multiplier.shift_add_constant top ~multiplicand:m ~product:p ~constant ()
  in
  let d = Design.create top in
  Design.add_port d "multiplicand" Types.Input m;
  Design.add_port d "product" Types.Output p;
  d

let kcm_endpoint ~constant =
  let d =
    kcm_design ~n:8 ~pw:19 ~signed_mode:true ~pipelined_mode:false ~constant
  in
  let clk =
    match Design.find_port d "clk" with
    | Some p -> p.Design.port_wire
    | None -> assert false
  in
  Endpoint.of_simulator ~name:"kcm" (Simulator.create ~clock:clk d)

(* ------------------------------------------------------------------ *)
(* T1: Table 1                                                         *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "T1" "Table 1: JAR files used by the constant multiplier applet";
  let jars = Partition.jars_for Partition.all_components in
  print_string (Partition.table jars);
  print_endline
    "\npaper reported: JHDLBase 346 kB, Virtex 293 kB, Viewer 140 kB,";
  print_endline "                Applet 16 kB, Total 795 kB";
  let total = kb (Partition.total_compressed jars) in
  Printf.printf "measured total: %d kB (%.1f%% of paper's 795 kB)\n" total
    (100.0 *. float_of_int total /. 795.0)

(* ------------------------------------------------------------------ *)
(* F1: Figure 1                                                        *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  section "F1"
    "Figure 1: GUI executable for the constant coefficient multiplier";
  let applet =
    Applet.create ~ip:Catalog.kcm ~license:(License.of_tier License.Evaluator)
      ~user:"figure1-user" ()
  in
  print_string
    (Applet.run_script applet
       [ Applet.Show_form;
         Applet.Set_param ("multiplicand_width", "8");
         Applet.Set_param ("product_width", "12");
         Applet.Set_param ("signed", "true");
         Applet.Set_param ("pipelined", "true");
         Applet.Set_param ("constant", "-56");
         Applet.Build;
         Applet.Estimate ])

(* ------------------------------------------------------------------ *)
(* F2: Figure 2                                                        *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  section "F2" "Figure 2: two configurations of an IP delivery executable";
  print_endline (License.feature_matrix ());
  print_endline "per-configuration footprint (jar set and 56k download):";
  Printf.printf "%-12s %-42s %8s %10s\n" "tier" "jars" "size" "download";
  List.iter
    (fun tier ->
       let license = License.of_tier tier in
       let components = Feature.components license.License.features in
       let jars = Partition.jars_for components in
       let size = Partition.total_compressed jars in
       Printf.printf "%-12s %-42s %5d kB %8.1f s\n" (License.tier_name tier)
         (String.concat "," (List.map (fun j -> j.Jar.jar_name) jars))
         (kb size)
         (Download.jars_seconds Download.modem_56k jars))
    License.all_tiers

(* ------------------------------------------------------------------ *)
(* F3: Figure 3                                                        *)
(* ------------------------------------------------------------------ *)

let figure3 () =
  section "F3" "Figure 3: transparent KCM evaluation applet (self-checked)";
  let applet =
    Applet.create ~ip:Catalog.kcm ~license:(License.of_tier License.Licensed)
      ~user:"figure3-user" ()
  in
  List.iter
    (fun (param, value) ->
       match Applet.exec applet (Applet.Set_param (param, value)) with
       | Ok _ -> ()
       | Error message -> failwith message)
    [ ("multiplicand_width", "8"); ("product_width", "12");
      ("signed", "true"); ("pipelined", "false"); ("constant", "-56") ];
  (match Applet.exec applet Applet.Build with
   | Ok text -> print_endline text
   | Error message -> failwith message);
  (* exhaustive simulation self-check through the applet's simulator *)
  let sim =
    match Applet.simulator applet with
    | Some sim -> sim
    | None -> failwith "licensed applet must have a simulator"
  in
  let checked = ref 0 and failed = ref 0 in
  for x = 0 to 255 do
    let xb = Bits.of_int ~width:8 x in
    Simulator.set_input sim "multiplicand" xb;
    let expected =
      Kcm.expected_product ~signed_mode:true ~constant:(-56) ~full_width:15
        ~product_width:12 xb
    in
    incr checked;
    if not (Bits.equal (Simulator.get_port sim "product") expected) then
      incr failed
  done;
  Printf.printf "simulation self-check: %d/%d inputs match the golden model\n"
    (!checked - !failed) !checked;
  (match Applet.exec applet (Applet.Netlist "EDIF") with
   | Ok edif ->
     let lines = String.split_on_char '\n' edif in
     Printf.printf "EDIF netlist generated: %d lines, %d bytes\n"
       (List.length lines) (String.length edif)
   | Error message -> failwith message);
  match Applet.built_design applet with
  | Some design ->
    Printf.printf "vendor watermark verifies: %b\n"
      (Watermark.verify design ~vendor:Catalog.kcm.Ip_module.vendor)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* F4: Figure 4                                                        *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  section "F4" "Figure 4: black-box co-simulation in a system simulator";
  let cosim = Cosim.create () in
  Cosim.attach cosim (kcm_endpoint ~constant:(-56)) Network.campus;
  let fir_coefficients = [ -1; -2; 6; -2; -1 ] in
  let fir_ep =
    let top = Cell.root ~name:"fir_top" () in
    let clk = Wire.create top ~name:"clk" 1 in
    let x = Wire.create top ~name:"x" 8 in
    let y = Wire.create top ~name:"y" 20 in
    let _ =
      Fir.create top ~clk ~x ~y ~signed_mode:true
        ~coefficients:fir_coefficients ()
    in
    let d = Design.create top in
    Design.add_port d "clk" Types.Input clk;
    Design.add_port d "x" Types.Input x;
    Design.add_port d "y" Types.Output y;
    let clk_wire =
      match Design.find_port d "clk" with
      | Some p -> p.Design.port_wire
      | None -> assert false
    in
    Endpoint.of_simulator ~name:"fir" (Simulator.create ~clock:clk_wire d)
  in
  Cosim.attach cosim fir_ep Network.campus;
  let samples = List.init 32 (fun i -> (i * 37 mod 256) - 128) in
  let fir_ref =
    Fir.expected_response ~signed_mode:true ~coefficients:fir_coefficients
      ~full_width:
        (Fir.accumulation_width ~x_width:8 ~coefficients:fir_coefficients)
      ~out_width:20 samples
  in
  let mismatches = ref 0 in
  List.iteri
    (fun n x ->
       let xb = Bits.of_int ~width:8 x in
       Cosim.set_inputs cosim ~box:"kcm" [ ("multiplicand", xb) ];
       Cosim.set_inputs cosim ~box:"fir" [ ("x", xb) ];
       let y = Cosim.get_output cosim ~box:"fir" "y" in
       let p = Cosim.get_output cosim ~box:"kcm" "product" in
       Cosim.cycle cosim;
       let p_ok = Bits.to_signed_int p = Some (-56 * x) in
       let y_ok = Bits.equal y (List.nth fir_ref n) in
       if not (p_ok && y_ok) then incr mismatches)
    samples;
  Printf.printf
    "co-simulated %d cycles against 2 black boxes: %d mismatches vs golden \
     models\n"
    (List.length samples) !mismatches;
  Printf.printf
    "protocol traffic: %d messages, %d bytes, %.2f ms simulated wall time\n"
    (Cosim.total_messages cosim) (Cosim.total_bytes cosim)
    (Cosim.elapsed_seconds cosim *. 1000.0)

(* ------------------------------------------------------------------ *)
(* C1: local vs remote simulation                                      *)
(* ------------------------------------------------------------------ *)

let claim_c1 () =
  section "C1"
    "claim (Sections 1.2.1, 4.2): local applet simulation vs networked \
     architectures";
  let cycles = 1000 in
  Printf.printf
    "simulating %d cycles of the KCM (per-event exchange), time in seconds:\n\n"
    cycles;
  Printf.printf "%-10s %14s %14s %14s %12s\n" "RTT" "local applet" "Web-CAD"
    "JavaCAD" "speedup";
  let rtts = [ 0.0002; 0.001; 0.005; 0.010; 0.020; 0.050; 0.100; 0.200 ] in
  List.iter
    (fun rtt ->
       let run arch =
         let endpoint = kcm_endpoint ~constant:(-56) in
         Cosim.simulation_cost ~arch
           ~network:(Network.with_rtt Network.campus rtt) ~endpoint ~cycles
           ~drive:(fun i ->
             [ ("multiplicand", Bits.of_int ~width:8 (i land 0xFF)) ])
           ~observe:[ "product" ] ()
       in
       let local = run Cosim.Local_applet in
       let webcad = run Cosim.Webcad in
       let javacad = run Cosim.Javacad in
       Printf.printf "%7.1f ms %14.4f %14.3f %14.3f %11.0fx\n" (rtt *. 1000.0)
         local.Cosim.wall_seconds webcad.Cosim.wall_seconds
         javacad.Cosim.wall_seconds
         (webcad.Cosim.wall_seconds /. local.Cosim.wall_seconds))
    rtts;
  print_endline
    "\nshape check: local is flat in RTT; Web-CAD/JavaCAD grow linearly \
     (per-event round trips);";
  print_endline
    "the applet pays instead a one-time download (C2) - the paper's trade.";
  (* amortization: cycles after which local wins including its download *)
  let jars = Partition.jars_for Partition.all_components in
  let download = Download.jars_seconds Download.dsl_1m jars in
  let rtt = 0.020 in
  let per_cycle_remote =
    let endpoint = kcm_endpoint ~constant:(-56) in
    let cost =
      Cosim.simulation_cost ~arch:Cosim.Webcad
        ~network:(Network.with_rtt Network.campus rtt) ~endpoint ~cycles:100
        ~drive:(fun i -> [ ("multiplicand", Bits.of_int ~width:8 i) ])
        ~observe:[ "product" ] ()
    in
    cost.Cosim.wall_seconds /. 100.0
  in
  Printf.printf
    "\namortization at 20 ms RTT over 1M DSL: applet download %.1f s ~ %.0f \
     simulated cycles of Web-CAD\n"
    download
    (download /. per_cycle_remote)

(* ------------------------------------------------------------------ *)
(* C1f: local vs remote simulation under loss                          *)
(* ------------------------------------------------------------------ *)

let claim_c1_faulty () =
  section "C1f"
    "claim C1 under loss: per-event RPC architectures degrade faster than \
     the local applet";
  let cycles = 300 in
  let rtt = 0.020 in
  let seed = 2002 in
  Printf.printf
    "%d cycles at %.0f ms RTT, drop faults with recovery (seq numbers, \
     checksums,\nretransmission with backoff); the applet's loopback cannot \
     drop:\n\n"
    cycles (rtt *. 1000.0);
  Printf.printf "%-10s %14s %14s %14s %10s %10s\n" "drop rate" "local applet"
    "Web-CAD" "JavaCAD" "retries" "slowdown";
  let clean_webcad = ref 0.0 in
  List.iter
    (fun rate ->
       let run arch =
         let endpoint = kcm_endpoint ~constant:(-56) in
         Cosim.simulation_cost ~arch
           ~network:(Network.with_rtt Network.campus rtt) ~endpoint ~cycles
           ~drive:(fun i ->
             [ ("multiplicand", Bits.of_int ~width:8 (i land 0xFF)) ])
           ~observe:[ "product" ]
           ?faults:
             (if rate > 0.0 then Some (Fault.only Fault.Drop ~rate ~seed)
              else None)
           ()
       in
       let local = run Cosim.Local_applet in
       match (run Cosim.Webcad, run Cosim.Javacad) with
       | exception Cosim.Exchange_failed reason ->
         (* enough consecutive losses exhaust the retry budget: at this
            rate the remote session dies mid-run *)
         Printf.printf "%8.0f %% %14.4f %14s %14s %10s  session died (%s)\n"
           (rate *. 100.0) local.Cosim.wall_seconds "-" "-" "-" reason
       | webcad, javacad ->
         if rate = 0.0 then clean_webcad := webcad.Cosim.wall_seconds;
         Printf.printf "%8.0f %% %14.4f %14.3f %14.3f %10d %9.1fx\n"
           (rate *. 100.0) local.Cosim.wall_seconds webcad.Cosim.wall_seconds
           javacad.Cosim.wall_seconds
           (webcad.Cosim.retry_count + javacad.Cosim.retry_count)
           (webcad.Cosim.wall_seconds /. !clean_webcad))
    [ 0.0; 0.01; 0.05; 0.10; 0.20 ];
  print_endline
    "\nshape check: every retransmission costs a timeout plus backoff on top \
     of the RTT, so the";
  print_endline
    "remote architectures' slowdown compounds with loss while the local \
     applet column never";
  print_endline
    "moves - claim C1 is strictly stronger on the consumer links the paper \
     targets."

(* ------------------------------------------------------------------ *)
(* C2: download time                                                   *)
(* ------------------------------------------------------------------ *)

let claim_c2 () =
  section "C2" "claim (Section 4.4): partitioned jars vs monolithic download";
  let links =
    [ Download.modem_56k; Download.isdn_128k; Download.dsl_1m;
      Download.lan_10m; Download.lan_100m ]
  in
  let passive_jars =
    Partition.jars_for [ Partition.Base; Partition.Virtex; Partition.Applet ]
  in
  let full_jars = Partition.jars_for Partition.all_components in
  let mono = [ Partition.monolithic () ] in
  let update = Partition.jars_for [ Partition.Applet ] in
  Printf.printf "%-10s %12s %12s %12s %14s\n" "link" "passive" "full applet"
    "monolithic" "update revisit";
  List.iter
    (fun link ->
       Printf.printf "%-10s %10.1f s %10.1f s %10.1f s %12.2f s\n"
         (Download.link_name link)
         (Download.jars_seconds link passive_jars)
         (Download.jars_seconds link full_jars)
         (Download.jars_seconds link mono)
         (Download.update_seconds link ~changed:update ()))
    links;
  Printf.printf
    "\npassive applets skip %d kB of viewer classes; revisits after a vendor \
     update move only the %d kB applet jar.\n"
    (kb (Jar.compressed_size (Partition.jar_of Partition.Viewer)))
    (kb (Jar.compressed_size (Partition.jar_of Partition.Applet)))

(* C2f: the partitioned download story under loss - resumable fetches *)
let claim_c2_faulty () =
  section "C2f"
    "claim C2 under loss: retried, byte-offset-resumable jar fetches";
  let jars = Partition.jars_for Partition.all_components in
  let clean = Download.jars_seconds Download.modem_56k jars in
  Printf.printf
    "full applet jar set over a 56k modem (clean transfer: %.1f s):\n\n" clean;
  Printf.printf "%-12s %12s %12s %14s %12s\n" "drop rate" "delivered"
    "attempts" "dead bytes" "total time";
  List.iter
    (fun rate ->
       let fetches =
         Download.fetch_jars
           ?faults:
             (if rate > 0.0 then
                Some (Fault.only Fault.Drop ~rate ~seed:2002)
              else None)
           Download.modem_56k jars
       in
       let delivered =
         List.length (List.filter (fun f -> f.Download.delivered) fetches)
       in
       let payload = Partition.total_compressed jars in
       let dead = max 0 (Download.fetch_total_bytes fetches - payload) in
       Printf.printf "%10.0f %% %9d/%d %12d %11d kB %10.1f s\n"
         (rate *. 100.0) delivered (List.length jars)
         (Download.fetch_attempts fetches)
         (kb dead)
         (Download.fetch_total_seconds fetches))
    [ 0.0; 0.10; 0.30; 0.50 ];
  print_endline
    "\nshape check: resume-at-offset keeps the dead-byte overhead to the \
     lost tail of each";
  print_endline
    "attempt, so even heavy loss costs retries and backoff, not whole-jar \
     re-downloads.";
  print_endline
    "The monolithic baseline re-pays its full 795 kB on every corruption - \
     partitioning wins again."

(* ------------------------------------------------------------------ *)
(* A1: KCM vs shift-add                                                *)
(* ------------------------------------------------------------------ *)

let ablation_a1 () =
  section "A1"
    "ablation: KCM vs shift-add constant multiplier (FPL 2001 context)";
  Printf.printf "width sweep at dense constant K=0xAB (CSD nonzeros: %d):\n\n"
    (Multiplier.adder_count_for ~constant:0xAB + 1);
  Printf.printf "%6s %16s %16s %18s %18s\n" "width" "KCM LUTs"
    "shift-add LUTs" "KCM path (ps)" "shift-add path (ps)";
  List.iter
    (fun n ->
       let pw = n + 8 in
       let d_kcm =
         kcm_design ~n ~pw ~signed_mode:false ~pipelined_mode:false
           ~constant:0xAB
       in
       let d_sa = shift_add_design ~n ~pw ~constant:0xAB in
       let a_kcm = (Estimate.area_of_design d_kcm).Estimate.area.Virtex.luts in
       let a_sa = (Estimate.area_of_design d_sa).Estimate.area.Virtex.luts in
       let t_kcm =
         (Estimate.timing_of_design d_kcm).Estimate.critical_path_ps
       in
       let t_sa = (Estimate.timing_of_design d_sa).Estimate.critical_path_ps in
       Printf.printf "%6d %16d %16d %18d %18d\n" n a_kcm a_sa t_kcm t_sa)
    [ 4; 8; 12; 16 ];
  Printf.printf "\nconstant-density sweep at width 8 (KCM is density-blind):\n\n";
  Printf.printf "%10s %10s %16s %16s %18s %18s\n" "constant" "CSD adds"
    "KCM LUTs" "shift-add LUTs" "KCM path (ps)" "shift-add path (ps)";
  List.iter
    (fun constant ->
       let pw = 16 in
       let d_kcm =
         kcm_design ~n:8 ~pw ~signed_mode:false ~pipelined_mode:false ~constant
       in
       let d_sa = shift_add_design ~n:8 ~pw ~constant in
       Printf.printf "%10d %10d %16d %16d %18d %18d\n" constant
         (Multiplier.adder_count_for ~constant)
         (Estimate.area_of_design d_kcm).Estimate.area.Virtex.luts
         (Estimate.area_of_design d_sa).Estimate.area.Virtex.luts
         (Estimate.timing_of_design d_kcm).Estimate.critical_path_ps
         (Estimate.timing_of_design d_sa).Estimate.critical_path_ps)
    [ 64; 129; 85; 171; 219; 255 ];
  print_endline
    "\nshape check: KCM cost depends only on widths; shift-add grows with \
     CSD density and";
  print_endline "its critical path stacks one adder per non-zero digit.";
  let unpipelined =
    kcm_design ~n:16 ~pw:24 ~signed_mode:false ~pipelined_mode:false
      ~constant:0xAB
  in
  let pipelined =
    kcm_design ~n:16 ~pw:24 ~signed_mode:false ~pipelined_mode:true
      ~constant:0xAB
  in
  Printf.printf "\npipelining the 16-bit KCM: %d ps -> %d ps critical path\n"
    (Estimate.timing_of_design unpipelined).Estimate.critical_path_ps
    (Estimate.timing_of_design pipelined).Estimate.critical_path_ps

(* ------------------------------------------------------------------ *)
(* A1b: filter architectures - KCM-FIR vs distributed arithmetic       *)
(* ------------------------------------------------------------------ *)

let ablation_a1b () =
  section "A1b"
    "ablation: KCM-based FIR vs distributed-arithmetic FIR (same response)";
  let coefficients = [ 3; 5; 7; 9 ] in
  let build_kcm_fir xw =
    let top = Cell.root ~name:"fir_top" () in
    let clk = Wire.create top ~name:"clk" 1 in
    let x = Wire.create top ~name:"x" xw in
    let y = Wire.create top ~name:"y" 24 in
    let _ = Fir.create top ~clk ~x ~y ~signed_mode:false ~coefficients () in
    let d = Design.create top in
    Design.add_port d "clk" Types.Input clk;
    Design.add_port d "x" Types.Input x;
    Design.add_port d "y" Types.Output y;
    d
  in
  let build_da_fir xw =
    let top = Cell.root ~name:"da_top" () in
    let clk = Wire.create top ~name:"clk" 1 in
    let x = Wire.create top ~name:"x" xw in
    let y = Wire.create top ~name:"y" 24 in
    let _ = Dafir.create top ~clk ~x ~y ~signed_mode:false ~coefficients () in
    let d = Design.create top in
    Design.add_port d "clk" Types.Input clk;
    Design.add_port d "x" Types.Input x;
    Design.add_port d "y" Types.Output y;
    d
  in
  Printf.printf "4 taps %s, input width sweep:\n\n"
    (String.concat "," (List.map string_of_int coefficients));
  Printf.printf "%6s %14s %14s %14s %14s\n" "width" "KCM-FIR LUTs"
    "DA-FIR LUTs" "KCM FFs" "DA FFs";
  List.iter
    (fun xw ->
       let a_kcm = (Estimate.area_of_design (build_kcm_fir xw)).Estimate.area in
       let a_da = (Estimate.area_of_design (build_da_fir xw)).Estimate.area in
       Printf.printf "%6d %14d %14d %14d %14d\n" xw a_kcm.Virtex.luts
         a_da.Virtex.luts a_kcm.Virtex.ffs a_da.Virtex.ffs)
    [ 4; 6; 8; 10; 12 ];
  print_endline
    "\nshape check: DA table area grows with input width (one LUT bank per \
     bit); the KCM filter's";
  print_endline
    "partial-product tables grow with coefficient width - the classic \
     trade between the";
  print_endline "two Virtex filter styles. Both match the same golden response \
     (test dafir/da matches kcm fir)."

(* ------------------------------------------------------------------ *)
(* A2: security overhead                                               *)
(* ------------------------------------------------------------------ *)

let ablation_a2 () =
  section "A2" "ablation: IP protection overheads (Section 4.3)";
  print_endline "class-file obfuscation (renaming shrinks constant pools):";
  Printf.printf "%-14s %10s %12s %10s\n" "jar" "original" "obfuscated" "saved";
  List.iter
    (fun component ->
       let jar = Partition.jar_of component in
       let obfuscated, _ = Obfuscator.obfuscate jar in
       let shrinkage = Obfuscator.shrinkage ~original:jar ~obfuscated in
       Printf.printf "%-14s %7d kB %9d kB %9.1f%%\n"
         (Partition.component_name component)
         (kb (Jar.compressed_size jar))
         (kb (Jar.compressed_size obfuscated))
         (shrinkage *. 100.0))
    Partition.all_components;
  print_endline "\nwatermarking (signature in inert LUT INITs):";
  Printf.printf "%10s %12s %16s %14s %10s\n" "bits" "extra LUTs"
    "KCM LUTs before" "LUTs after" "verifies";
  List.iter
    (fun bits ->
       let d =
         kcm_design ~n:8 ~pw:12 ~signed_mode:true ~pipelined_mode:false
           ~constant:(-56)
       in
       let before = (Estimate.area_of_design d).Estimate.area.Virtex.luts in
       let added = Watermark.embed d ~vendor:"BYU" ~bits () in
       let after = (Estimate.area_of_design d).Estimate.area.Virtex.luts in
       Printf.printf "%10d %12d %16d %14d %10b\n" bits added before after
         (Watermark.verify d ~vendor:"BYU"))
    [ 16; 64; 128; 256 ];
  let key = Crypto.key_of_string "vendor-secret" in
  let d =
    kcm_design ~n:8 ~pw:12 ~signed_mode:true ~pipelined_mode:false
      ~constant:(-56)
  in
  let edif = Edif.of_design d in
  let encrypted = Crypto.encrypt key edif in
  Printf.printf
    "\nclass/netlist encryption: %d bytes -> %d bytes (stream cipher, \
     size-preserving); roundtrip ok: %b\n"
    (String.length edif) (String.length encrypted)
    (Crypto.decrypt key encrypted = edif)

(* ------------------------------------------------------------------ *)
(* A3: delivery-form comparison (the JBits contrast of Section 1.2.3)  *)
(* ------------------------------------------------------------------ *)

let ablation_a3 () =
  section "A3"
    "ablation: delivery forms - structural netlist vs JBits bitstream vs \
     black-box applet (Section 1.2.3)";
  let d =
    kcm_design ~n:8 ~pw:12 ~signed_mode:true ~pipelined_mode:false
      ~constant:(-56)
  in
  let p = Jbits.package ~device_rows:32 ~device_cols:16 d in
  let edif_bytes = String.length (Edif.of_design d) in
  Format.printf "%a"
    Jbits.pp_visibility_table
    [ Jbits.visibility_of_netlist ~bytes:edif_bytes;
      Jbits.visibility_of_package p;
      Jbits.visibility_of_applet
        ~bytes:(Jar.compressed_size (Partition.jar_of Partition.Applet)) ];
  Printf.printf
    "\nthe KCM occupies %d slice resources; its partial bitstream touches \
     %d/%d columns.\n"
    p.Jbits.slices_used
    (List.length p.Jbits.frames)
    16;
  (* delivery roundtrip check: customer-side install equals vendor config *)
  let customer = Config_mem.create ~rows:32 ~cols:16 in
  Jbits.install ~into:customer p;
  let vendor_side = Config_mem.create ~rows:32 ~cols:16 in
  let _ = Config_mem.configure vendor_side d in
  Printf.printf "bitstream install reproduces the vendor configuration: %b\n"
    (Config_mem.equal customer vendor_side);
  Printf.printf
    "readback from the bitstream recovers %d LUT INITs but no names, \
     hierarchy or connectivity\n"
    (List.length (Config_mem.readback_luts customer));
  print_endline
    "shape check (paper): bitstream delivery hides structure but cannot be \
     simulated or retargeted;";
  print_endline
    "the applet keeps the structure hidden while staying simulatable - the \
     paper's middle ground."

(* ------------------------------------------------------------------ *)
(* A4: relative placement ablation (Section 2.1 motivation)            *)
(* ------------------------------------------------------------------ *)

let ablation_a4 () =
  section "A4"
    "ablation: pre-placed macro vs stripped placement (placement-aware \
     timing)";
  Printf.printf "%-22s %18s %18s %10s\n" "design" "placed path (ps)"
    "stripped path (ps)" "gain";
  let strip design =
    Cell.iter_rec Cell.clear_rloc (Design.root design);
    design
  in
  List.iter
    (fun (label, build) ->
       let placed =
         (Estimate.timing_of_design ~use_placement:true (build ()))
           .Estimate.critical_path_ps
       in
       let stripped =
         (Estimate.timing_of_design ~use_placement:true (strip (build ())))
           .Estimate.critical_path_ps
       in
       Printf.printf "%-22s %18d %18d %9.1f%%\n" label placed stripped
         (100.0 *. float_of_int (stripped - placed) /. float_of_int stripped))
    [ ("kcm 8x8 (preplaced)",
       fun () ->
         kcm_design ~n:8 ~pw:12 ~signed_mode:true ~pipelined_mode:false
           ~constant:(-56));
      ("kcm 16-bit",
       fun () ->
         kcm_design ~n:16 ~pw:24 ~signed_mode:false ~pipelined_mode:false
           ~constant:0xAB);
      ("16-bit adder",
       fun () ->
         let top = Cell.root ~name:"add_top" () in
         let a = Wire.create top ~name:"a" 16 in
         let b = Wire.create top ~name:"b" 16 in
         let sum = Wire.create top ~name:"sum" 16 in
         let _ = Adders.carry_chain top ~a ~b ~sum () in
         let d = Design.create top in
         Design.add_port d "a" Types.Input a;
         Design.add_port d "b" Types.Input b;
         Design.add_port d "sum" Types.Output sum;
         d) ];
  (* generator placement vs automatic vs random, on the same netlist *)
  let build () =
    kcm_design ~n:8 ~pw:15 ~signed_mode:true ~pipelined_mode:false
      ~constant:(-56)
  in
  let time d =
    (Estimate.timing_of_design ~use_placement:true d)
      .Estimate.critical_path_ps
  in
  let hand = build () in
  let auto = build () in
  let auto_result = Placer.auto_place auto ~rows:16 ~cols:16 in
  let random = build () in
  let random_result = Placer.random_place random ~rows:16 ~cols:16 ~seed:7 in
  Printf.printf
    "\nplacement source comparison (8x8 KCM):\n%-22s %18s %14s\n" "placement"
    "critical path (ps)" "wirelength";
  Printf.printf "%-22s %18d %14s\n" "generator RLOCs" (time hand)
    (match Placer.wirelength hand with
     | Some wl -> string_of_int wl
     | None -> "-");
  Printf.printf "%-22s %18d %14d\n" "auto placer" (time auto)
    auto_result.Placer.wirelength;
  Printf.printf "%-22s %18d %14d\n" "random placer" (time random)
    random_result.Placer.wirelength;
  print_endline
    "\nshape check (paper Section 2.1): \"the designer can view the relative \
     layout of FPGA circuits";
  print_endline
    "that include performance enhancing placement attributes\" - stripping \
     the RLOCs costs timing";
  print_endline
    "because every macro-internal net falls back to the generic loaded-net \
     estimate; the greedy";
  print_endline
    "auto placer recovers most of the hand placement's quality, the random \
     baseline none of it."

(* ------------------------------------------------------------------ *)
(* A5: KCM accumulation structure - chain vs tree                      *)
(* ------------------------------------------------------------------ *)

(* the unsigned n-bit KCM by 0xAB with either accumulation structure;
   A5 compares the two, AN1 proves them equal *)
let kcm_structure_design ~n structure =
  let top = Cell.root ~name:"kcm_top" () in
  let m = Wire.create top ~name:"m" n in
  let p = Wire.create top ~name:"p" (n + 8) in
  let _ =
    Kcm.create top ~adder_structure:structure ~multiplicand:m ~product:p
      ~signed_mode:false ~pipelined_mode:false ~constant:0xAB ()
  in
  let d = Design.create top in
  Design.add_port d "m" Types.Input m;
  Design.add_port d "p" Types.Output p;
  d

let ablation_a5 () =
  section "A5" "ablation: KCM partial-product accumulation - chain vs tree";
  Printf.printf "%6s %8s %16s %16s %16s %16s\n" "width" "digits"
    "chain path (ps)" "tree path (ps)" "chain LUTs" "tree LUTs";
  List.iter
    (fun n ->
       let measure structure =
         let d = kcm_structure_design ~n structure in
         ( (Estimate.timing_of_design d).Estimate.critical_path_ps,
           (Estimate.area_of_design d).Estimate.area.Virtex.luts )
       in
       let chain_t, chain_a = measure `Chain in
       let tree_t, tree_a = measure `Tree in
       Printf.printf "%6d %8d %16d %16d %16d %16d\n" n ((n + 3) / 4) chain_t
         tree_t chain_a tree_a)
    [ 8; 16; 24; 32 ];
  print_endline
    "\nshape check: on carry-chain fabric the tree only pays off once the \
     chain is long";
  print_endline
    "(crossover near 6-8 digits); below that the cheap MUXCY hops make the \
     chain's narrow,";
  print_endline
    "low-bit-passthrough adders as fast as the tree's full-width levels - \
     which is why";
  print_endline
    "FPGA module generators (the paper's included) ship chains by default."

(* ------------------------------------------------------------------ *)
(* AN1: formal analysis - BDD proofs of the chain-vs-tree KCM          *)
(* ------------------------------------------------------------------ *)

(* The flagship equivalence query - chain-structured vs tree-structured
   KCM - closed by a BDD proof over every defined input, at four widths.
   A row that falls back to a vector sweep aborts the run. *)
let analysis_an1 () =
  section "AN1" "formal analysis: BDD proofs of the chain vs tree KCM";
  Printf.printf "%6s %12s %10s\n" "width" "output bits" "BDD nodes";
  List.iter
    (fun n ->
       match
         Equiv.check (kcm_structure_design ~n `Chain)
           (kcm_structure_design ~n `Tree)
       with
       | Equiv.Proved { outputs; bdd_nodes; _ } ->
         Printf.printf "%6d %12d %10d\n" n outputs bdd_nodes
       | other ->
         failwith
           (Format.asprintf "AN1: expected a proof at width %d, got %a" n
              Equiv.pp_result other))
    [ 6; 8; 10; 12 ];
  print_endline
    "\nthe proof needs no vectors at all: its cost grows with BDD size, \
     not input count."

(* ------------------------------------------------------------------ *)
(* R1: overload resilience - load x fault-rate sweep                   *)
(* ------------------------------------------------------------------ *)

(* The chaos engine's parametric scenario (calm / storm / calm) played
   over a grid of offered loads and download-fault rates, all on one
   fixed seed. The service rate is ~20 req/s, so the 40 rps column runs
   2x oversubscribed: goodput there is the brownout ladder and breaker
   doing their job - typed sheds instead of failures - and the recovery
   column shows goodput returning once the storm passes. *)
let resilience_r1 () =
  section "R1"
    "overload resilience: offered load x fault rate (chaos sweep scenario)";
  let seed = 2002 in
  let loads = [ 10.0; 20.0; 40.0 ] in
  let rates = [ 0.0; 0.15; 0.35 ] in
  Printf.printf
    "%8s %8s %9s %9s %9s %9s %13s %9s %6s\n" "load" "faults" "offered"
    "goodput" "shed" "failed" "p95 wait(ms)" "recovery" "pass";
  let violations = ref 0 in
  List.iter
    (fun load_rps ->
       List.iter
         (fun fault_rate ->
          let scenario = Chaos.sweep ~load_rps ~fault_rate () in
          let r = Chaos.run ~seed scenario in
          let offered = float_of_int r.Chaos.offered in
          let goodput = float_of_int r.Chaos.ok /. offered in
          let shed =
            r.Chaos.offered - r.Chaos.ok - r.Chaos.failed
          in
          let shed_rate = float_of_int shed /. offered in
          Printf.printf
            "%6.0f/s %7.0f%% %9d %9.3f %9.3f %9d %13.1f %9.3f %6s\n"
            load_rps (fault_rate *. 100.0) r.Chaos.offered goodput
            shed_rate r.Chaos.failed r.Chaos.p95_queue_wait_ms
            r.Chaos.recovery_goodput
            (if Chaos.passed r then "ok" else "FAIL");
          if not (Chaos.passed r) then incr violations)
         rates)
    loads;
  if !violations > 0 then
    failwith "R1: a sweep cell violated a recovery invariant";
  print_endline
    "\nshape check: goodput falls with oversubscription but the shed column \
     absorbs the loss";
  print_endline
    "as typed refusals, and every cell's recovery goodput returns to >= 90% \
     of its calm";
  print_endline
    "baseline once the storm passes - the brownout ladder sheds load, it \
     does not lose it."

let () =
  table1 ();
  figure1 ();
  figure2 ();
  figure3 ();
  figure4 ();
  claim_c1 ();
  claim_c1_faulty ();
  claim_c2 ();
  claim_c2_faulty ();
  ablation_a1 ();
  ablation_a1b ();
  ablation_a2 ();
  ablation_a3 ();
  ablation_a4 ();
  ablation_a5 ();
  analysis_an1 ();
  resilience_r1 ();
  print_endline "\nall experiments complete."
