(* Checkpoint blobs: round-trips across every catalog design, kernel <->
   interpreter cross-restores, and rejection of anything that is not an
   intact blob from the same design. *)

module Bits = Jhdl_logic.Bits
module Wire = Jhdl_circuit.Wire
module Design = Jhdl_circuit.Design
module Simulator = Jhdl_sim.Simulator
module Reference = Jhdl_sim.Reference
module Snapshot = Jhdl_sim.Snapshot
module Ip_module = Jhdl_applet.Ip_module
module Catalog = Jhdl_applet.Catalog

let bits = Alcotest.testable Bits.pp Bits.equal

let built_of_ip ip = ip.Ip_module.build (Ip_module.defaults ip)

let clock_of built =
  Option.bind built.Ip_module.clock_port (fun name ->
    Option.map
      (fun p -> p.Design.port_wire)
      (Design.find_port built.Ip_module.design name))

let sim_of built =
  Simulator.create ?clock:(clock_of built) built.Ip_module.design

let ref_of built =
  Reference.create ?clock:(clock_of built) built.Ip_module.design

(* drive every non-clock input with a deterministic pattern and run a
   few cycles, so the snapshot carries non-initial register state *)
let warm_up set_input cycle built step_count =
  let clock_name = built.Ip_module.clock_port in
  List.iteri
    (fun i p ->
       if Some p.Design.port_name <> clock_name then
         set_input p.Design.port_name
           (Bits.of_int
              ~width:(Wire.width p.Design.port_wire)
              ((i * 37) + 13)))
    (Design.inputs built.Ip_module.design);
  cycle step_count

let output_map get_port design =
  List.map
    (fun p -> (p.Design.port_name, get_port p.Design.port_name))
    (Design.outputs design)

(* acceptance: Simulator.restore (snapshot sim) round-trips on every
   catalog design — outputs, cycle counter, and forward behavior *)
let test_roundtrip_every_catalog_design () =
  List.iter
    (fun ip ->
       let name = ip.Ip_module.ip_name in
       let built = built_of_ip ip in
       let sim = sim_of built in
       warm_up
         (fun port v -> Simulator.set_input sim port v)
         (fun n -> Simulator.cycle ~n sim)
         built 5;
       let blob = Simulator.snapshot sim in
       let twin = sim_of (built_of_ip ip) in
       Simulator.restore twin blob;
       Alcotest.(check int)
         (name ^ ": cycle counter restored")
         (Simulator.cycle_count sim) (Simulator.cycle_count twin);
       List.iter2
         (fun (port, expected) (_, actual) ->
            Alcotest.check bits
              (Printf.sprintf "%s: output %s restored" name port)
              expected actual)
         (output_map (Simulator.get_port sim) built.Ip_module.design)
         (output_map (Simulator.get_port twin) built.Ip_module.design);
       (* the restored simulator must also keep simulating identically *)
       Simulator.cycle ~n:3 sim;
       Simulator.cycle ~n:3 twin;
       List.iter2
         (fun (port, expected) (_, actual) ->
            Alcotest.check bits
              (Printf.sprintf "%s: output %s identical after resume" name port)
              expected actual)
         (output_map (Simulator.get_port sim) built.Ip_module.design)
         (output_map (Simulator.get_port twin) built.Ip_module.design))
    Catalog.all

(* blobs are portable between the compiled kernel and the golden
   interpreter: same design signature, same net codes *)
let test_cross_restore_kernel_and_interpreter () =
  List.iter
    (fun ip ->
       let name = ip.Ip_module.ip_name in
       let built = built_of_ip ip in
       let sim = sim_of built in
       warm_up
         (fun port v -> Simulator.set_input sim port v)
         (fun n -> Simulator.cycle ~n sim)
         built 4;
       let blob = Simulator.snapshot sim in
       let interp = ref_of (built_of_ip ip) in
       Reference.restore interp blob;
       List.iter2
         (fun (port, expected) (_, actual) ->
            Alcotest.check bits
              (Printf.sprintf "%s: kernel -> interpreter %s" name port)
              expected actual)
         (output_map (Simulator.get_port sim) built.Ip_module.design)
         (output_map (Reference.get_port interp) built.Ip_module.design);
       (* and back: interpreter blob into a fresh kernel *)
       let back = Reference.snapshot interp in
       let twin = sim_of (built_of_ip ip) in
       Simulator.restore twin back;
       List.iter2
         (fun (port, expected) (_, actual) ->
            Alcotest.check bits
              (Printf.sprintf "%s: interpreter -> kernel %s" name port)
              expected actual)
         (output_map (Simulator.get_port sim) built.Ip_module.design)
         (output_map (Simulator.get_port twin) built.Ip_module.design))
    Catalog.all

let counter_sim () =
  let ip =
    match Catalog.find "UpCounter" with
    | Some ip -> ip
    | None -> Alcotest.fail "no UpCounter in catalog"
  in
  let built = built_of_ip ip in
  (built, sim_of built)

let expect_error label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Snapshot.Error" label
  | exception Snapshot.Error _ -> ()

let test_rejects_damaged_blobs () =
  let _, sim = counter_sim () in
  Simulator.cycle ~n:3 sim;
  let blob = Simulator.snapshot sim in
  let flip i =
    let b = Bytes.of_string blob in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
    Bytes.to_string b
  in
  expect_error "empty" (fun () -> Simulator.restore sim "");
  expect_error "bad magic" (fun () -> Simulator.restore sim (flip 0));
  expect_error "bad version" (fun () -> Simulator.restore sim (flip 4));
  expect_error "flipped signature fails CRC or signature" (fun () ->
    Simulator.restore sim (flip 5));
  expect_error "flipped body byte fails CRC" (fun () ->
    Simulator.restore sim (flip (String.length blob / 2)));
  expect_error "flipped CRC trailer" (fun () ->
    Simulator.restore sim (flip (String.length blob - 1)));
  expect_error "truncated" (fun () ->
    Simulator.restore sim (String.sub blob 0 (String.length blob - 3)));
  expect_error "trailing garbage" (fun () ->
    Simulator.restore sim (blob ^ "\x00"));
  (* the undamaged blob still restores after all those rejections *)
  Simulator.restore sim blob;
  Alcotest.(check int) "still at cycle 3" 3 (Simulator.cycle_count sim)

let test_rejects_wrong_design () =
  let _, counter = counter_sim () in
  Simulator.cycle ~n:2 counter;
  let counter_blob = Simulator.snapshot counter in
  let kcm_ip =
    match Catalog.find "VirtexKCMMultiplier" with
    | Some ip -> ip
    | None -> Alcotest.fail "no VirtexKCMMultiplier in catalog"
  in
  let kcm = sim_of (built_of_ip kcm_ip) in
  (match Simulator.restore kcm counter_blob with
   | () -> Alcotest.fail "expected signature mismatch"
   | exception Snapshot.Error reason ->
     Alcotest.(check bool) "names the mismatch" true
       (let needle = "signature mismatch" in
        let hl = String.length reason and nl = String.length needle in
        let rec scan i =
          i + nl <= hl && (String.sub reason i nl = needle || scan (i + 1))
        in
        scan 0));
  (* the rejected simulator is untouched *)
  Alcotest.(check int) "kcm still at cycle 0" 0 (Simulator.cycle_count kcm)

(* Forged blobs, resealed through [Snapshot.encode] so the signature and
   CRC still hold, whose state entries are not exactly the design's
   sequential elements: every simulator must reject each one before it
   writes anything, so its own snapshot is byte-identical afterwards. *)
let test_restore_is_all_or_nothing () =
  let built, src = counter_sim () in
  let design = built.Ip_module.design and clock = clock_of built in
  warm_up (Simulator.set_input src) (fun n -> Simulator.cycle ~n src) built 5;
  let img = Snapshot.decode (Simulator.snapshot src) in
  let seq = img.Snapshot.image_seq in
  let last = List.length seq - 1 in
  let reseal image_seq = Snapshot.encode { img with Snapshot.image_seq } in
  let at_last f = List.mapi (fun i entry -> if i = last then f entry else entry) seq in
  let forged =
    [ ("renamed path", reseal (at_last (fun (path, st) -> (path ^ "_x", st))));
      ( "swapped kind",
        reseal
          (at_last (fun (path, st) ->
             match st with
             | Snapshot.Flop _ -> (path, Snapshot.Mem (Bytes.make 16 '\001'))
             | Snapshot.Mem _ -> (path, Snapshot.Flop 1))) );
      ("dropped entry", reseal (List.filteri (fun i _ -> i <> last) seq));
      ("duplicated entry", reseal (seq @ [ List.nth seq last ])) ]
  in
  let check_untouched kind snapshot restore =
    List.iter
      (fun (label, blob) ->
         let before = snapshot () in
         expect_error (kind ^ ": " ^ label) (fun () -> restore blob);
         Alcotest.(check bool)
           (Printf.sprintf "%s: %s leaves the state untouched" kind label)
           true
           (String.equal before (snapshot ())))
      forged
  in
  let sim = sim_of built in
  warm_up (Simulator.set_input sim) (fun n -> Simulator.cycle ~n sim) built 2;
  check_untouched "simulator"
    (fun () -> Simulator.snapshot sim)
    (Simulator.restore sim);
  let batch = Simulator.Batch.create ?clock ~lanes:2 design in
  warm_up
    (Simulator.Batch.set_input batch ~lane:0)
    (fun n -> Simulator.Batch.cycle ~n batch)
    built 2;
  check_untouched "batch"
    (fun () -> Simulator.Batch.snapshot_lane batch ~lane:0)
    (Simulator.Batch.restore_lane batch ~lane:0);
  let interp = ref_of built in
  warm_up (Reference.set_input interp) (fun n -> Reference.cycle ~n interp) built 2;
  check_untouched "reference"
    (fun () -> Reference.snapshot interp)
    (Reference.restore interp)

let test_watch_history_survives () =
  let built, sim = counter_sim () in
  let q =
    match Design.find_port built.Ip_module.design "q" with
    | Some p -> p.Design.port_wire
    | None -> Alcotest.fail "no q port"
  in
  Simulator.watch sim ~label:"q" q;
  Simulator.cycle ~n:4 sim;
  let blob = Simulator.snapshot sim in
  let samples label s =
    match List.assoc_opt label (Simulator.history s) with
    | Some samples -> samples
    | None -> Alcotest.failf "no %s history" label
  in
  let before = samples "q" sim in
  (* keep simulating, then roll back: the history must roll back too *)
  Simulator.cycle ~n:6 sim;
  Alcotest.(check bool) "history grew" true
    (List.length (samples "q" sim) > List.length before);
  Simulator.restore sim blob;
  let after = samples "q" sim in
  Alcotest.(check int) "history rolled back" (List.length before)
    (List.length after);
  List.iter2
    (fun (ca, va) (cb, vb) ->
       Alcotest.(check int) "sample cycle" ca cb;
       Alcotest.check bits "sample value" va vb)
    before after

(* A checkpoint of the 16-tap co-simulation FIR costs at most three
   blob-sized blocks of allocation, snapshot and restore together: the
   lane's net codes, the blob written once at its exact size, and the
   decoder's one copy of the nets. *)
let test_checkpoint_allocation () =
  let top = Jhdl_circuit.Cell.root ~name:"fir_top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let x = Wire.create top ~name:"x" 8 and y = Wire.create top ~name:"y" 20 in
  let _ =
    Jhdl_modgen.Fir.create top ~clk ~x ~y ~signed_mode:true
      ~coefficients:[ -1; 3; -5; 7; -9; 11; 13; 17; 17; 13; 11; -9; 7; -5; 3; -1 ] ()
  in
  let d = Design.create top in
  Design.add_port d "clk" Jhdl_circuit.Types.Input clk;
  Design.add_port d "x" Jhdl_circuit.Types.Input x;
  Design.add_port d "y" Jhdl_circuit.Types.Output y;
  let sim = Simulator.create ~clock:clk d in
  for c = 1 to 20 do
    Simulator.set_input sim "x" (Bits.of_int ~width:8 (c * 37 land 0xFF));
    Simulator.cycle sim
  done;
  (* the first snapshot computes the design signature *)
  Simulator.restore sim (Simulator.snapshot sim);
  let before = Gc.allocated_bytes () in
  Simulator.restore sim (Simulator.snapshot sim);
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  let blob_words =
    float_of_int (String.length (Simulator.snapshot sim) / (Sys.word_size / 8))
  in
  if words > 3.0 *. blob_words then
    Alcotest.failf "snapshot + restore allocated %.0f words (blob: %.0f words)" words
      blob_words

let test_version_and_signature_exposed () =
  Alcotest.(check int) "format version" 1 Snapshot.version;
  let built, _ = counter_sim () in
  let s1 = Snapshot.signature built.Ip_module.design in
  let built2, _ = counter_sim () in
  let s2 = Snapshot.signature built2.Ip_module.design in
  Alcotest.(check int) "signature is structural, not per-instance" s1 s2;
  let kcm =
    match Catalog.find "VirtexKCMMultiplier" with
    | Some ip -> built_of_ip ip
    | None -> Alcotest.fail "no kcm"
  in
  Alcotest.(check bool) "different designs differ" true
    (s1 <> Snapshot.signature kcm.Ip_module.design)

let suite =
  [ Alcotest.test_case "roundtrip on every catalog design" `Quick
      test_roundtrip_every_catalog_design;
    Alcotest.test_case "kernel/interpreter cross-restore" `Quick
      test_cross_restore_kernel_and_interpreter;
    Alcotest.test_case "damaged blobs rejected" `Quick
      test_rejects_damaged_blobs;
    Alcotest.test_case "wrong design rejected" `Quick test_rejects_wrong_design;
    Alcotest.test_case "restore is all-or-nothing" `Quick
      test_restore_is_all_or_nothing;
    Alcotest.test_case "watch history survives" `Quick
      test_watch_history_survives;
    Alcotest.test_case "version and signature" `Quick
      test_version_and_signature_exposed;
    Alcotest.test_case "checkpoint allocates three blobs at most" `Quick
      test_checkpoint_allocation ]
