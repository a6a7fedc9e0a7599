(* Network-protocol tests: wire format, endpoints, black-box
   co-simulation against the monolithic simulator, and the Figure 4 /
   C1 cost model's shape. *)

module Bits = Jhdl_logic.Bits
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Types = Jhdl_circuit.Types
module Simulator = Jhdl_sim.Simulator
module Network = Jhdl_netproto.Network
module Protocol = Jhdl_netproto.Protocol
module Endpoint = Jhdl_netproto.Endpoint
module Cosim = Jhdl_netproto.Cosim
module Kcm = Jhdl_modgen.Kcm
module Counter = Jhdl_modgen.Counter
module Prng = Jhdl_faults.Prng
module Fault = Jhdl_faults.Fault

let bits = Alcotest.testable Bits.pp Bits.equal

(* {1 protocol} *)

let roundtrip message =
  match Protocol.decode (Protocol.encode message) with
  | Ok decoded -> decoded
  | Error reason -> Alcotest.failf "decode failed: %s" reason

let test_protocol_roundtrips () =
  let messages =
    [ Protocol.Set_inputs [ ("a", Bits.of_string "1x0z"); ("clk", Bits.of_string "1") ];
      Protocol.Cycle 1;
      Protocol.Cycle 1_000_000;
      Protocol.Reset;
      Protocol.Get_outputs [ "p"; "q" ];
      Protocol.Outputs_are [ ("p", Bits.of_string "0101") ];
      Protocol.Ack;
      Protocol.Protocol_error "no such port" ]
  in
  List.iter
    (fun m ->
       let back = roundtrip m in
       Alcotest.(check string)
         (Format.asprintf "%a" Protocol.pp m)
         (Format.asprintf "%a" Protocol.pp m)
         (Format.asprintf "%a" Protocol.pp back))
    messages

let test_protocol_rejects_garbage () =
  Alcotest.(check bool) "empty" true (Result.is_error (Protocol.decode ""));
  Alcotest.(check bool) "unknown tag" true (Result.is_error (Protocol.decode "Z"));
  Alcotest.(check bool) "truncated" true
    (Result.is_error (Protocol.decode "I\x00\x02"));
  Alcotest.(check bool) "trailing" true
    (Result.is_error (Protocol.decode (Protocol.encode Protocol.Ack ^ "x")))

let test_protocol_sizes () =
  Alcotest.(check int) "ack is one byte" 1 (Protocol.size Protocol.Ack);
  Alcotest.(check bool) "inputs scale with payload" true
    (Protocol.size (Protocol.Set_inputs [ ("a", Bits.zero 64) ])
     > Protocol.size (Protocol.Set_inputs [ ("a", Bits.zero 8) ]))

let prop_protocol_roundtrip =
  let gen =
    QCheck.Gen.(
      let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
      let value =
        map
          (fun (w, k) -> Bits.of_int ~width:w k)
          (pair (int_range 1 24) (int_bound 0xFFFF))
      in
      oneof
        [ map (fun pairs -> Protocol.Set_inputs pairs)
            (small_list (pair name value));
          map (fun n -> Protocol.Cycle n) (int_bound 1000000);
          return Protocol.Reset;
          map (fun names -> Protocol.Get_outputs names) (small_list name);
          map (fun pairs -> Protocol.Outputs_are pairs)
            (small_list (pair name value));
          return Protocol.Ack;
          map (fun s -> Protocol.Protocol_error s) name ])
  in
  QCheck.Test.make ~name:"protocol encode/decode roundtrip" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Protocol.pp) gen)
    (fun m ->
       match Protocol.decode (Protocol.encode m) with
       | Ok back ->
         Format.asprintf "%a" Protocol.pp back = Format.asprintf "%a" Protocol.pp m
       | Error _ -> false)

(* {1 packets: sequence numbers + checksums} *)

(* seeded message generator for the packet roundtrip sweep *)
let random_message prng =
  let name () =
    String.init
      (1 + Prng.int prng 8)
      (fun _ -> Char.chr (Char.code 'a' + Prng.int prng 26))
  in
  let value () =
    Bits.of_int ~width:(1 + Prng.int prng 24) (Prng.int prng 0x10000)
  in
  let pairs () = List.init (Prng.int prng 4) (fun _ -> (name (), value ())) in
  match Prng.int prng 7 with
  | 0 -> Protocol.Set_inputs (pairs ())
  | 1 -> Protocol.Cycle (Prng.int prng 1_000_000)
  | 2 -> Protocol.Reset
  | 3 -> Protocol.Get_outputs (List.init (Prng.int prng 5) (fun _ -> name ()))
  | 4 -> Protocol.Outputs_are (pairs ())
  | 5 -> Protocol.Ack
  | _ -> Protocol.Protocol_error (name ())

let test_packet_roundtrip_sweep () =
  let prng = Prng.create 7 in
  for _ = 1 to 200 do
    let message = random_message prng in
    let seq = Prng.int prng (Protocol.max_seq + 1) in
    Alcotest.(check int) "size matches encoded length"
      (String.length (Protocol.encode message))
      (Protocol.size message);
    let frame = Protocol.encode_packet ~seq message in
    Alcotest.(check int) "packet_size matches framed length"
      (String.length frame)
      (Protocol.packet_size { Protocol.seq; payload = message });
    match Protocol.decode_packet frame with
    | Error reason -> Alcotest.failf "decode_packet failed: %s" reason
    | Ok packet ->
      Alcotest.(check int) "seq survives" seq packet.Protocol.seq;
      Alcotest.(check string) "payload survives"
        (Format.asprintf "%a" Protocol.pp message)
        (Format.asprintf "%a" Protocol.pp packet.Protocol.payload)
  done

let test_packet_detects_any_single_byte_corruption () =
  let frame =
    Protocol.encode_packet ~seq:513
      (Protocol.Set_inputs [ ("multiplicand", Bits.of_string "1x0z1010") ])
  in
  (* flip every byte in turn, including the seq and checksum fields:
     CRC-16 must reject each one *)
  String.iteri
    (fun i _ ->
       let mangled = Bytes.of_string frame in
       Bytes.set mangled i (Char.chr (Char.code frame.[i] lxor 0x41));
       Alcotest.(check bool)
         (Printf.sprintf "corruption at byte %d detected" i)
         true
         (Result.is_error (Protocol.decode_packet (Bytes.to_string mangled))))
    frame;
  Alcotest.(check bool) "short frame rejected" true
    (Result.is_error (Protocol.decode_packet "ab"))

(* Framing checksums the frame in place. When it copied the body to
   checksum it, a 16-byte Set_inputs frame cost 51 minor words to encode
   and 101 to decode, measured as here. *)
let test_packet_allocation () =
  let message = Protocol.Set_inputs [ ("x", Bits.of_string "0101") ] in
  let frame = Protocol.encode_packet ~seq:7 message in
  Alcotest.(check int) "16-byte frame" 16 (String.length frame);
  let words_per_call f =
    let calls = 10_000 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let encode = words_per_call (fun () -> Protocol.encode_packet ~seq:7 message) in
  let decode = words_per_call (fun () -> Protocol.decode_packet frame) in
  Alcotest.(check bool)
    (Printf.sprintf "encode: %.1f words < 51" encode)
    true (encode < 51.);
  Alcotest.(check bool)
    (Printf.sprintf "decode: %.1f words < 101" decode)
    true (decode < 101.)

let test_prng_determinism_and_split () =
  let a = Prng.create 5 and b = Prng.create 5 in
  let child_a = Prng.split a and child_b = Prng.split b in
  for _ = 1 to 50 do
    Alcotest.(check (float 0.0)) "same seed, same stream" (Prng.float a)
      (Prng.float b);
    Alcotest.(check (float 0.0)) "same split, same child stream"
      (Prng.float child_a) (Prng.float child_b)
  done;
  let c = Prng.create 6 in
  Alcotest.(check bool) "different seeds diverge" true
    (Prng.float a <> Prng.float c);
  let d = Prng.create 9 in
  for _ = 1 to 100 do
    let f = Prng.float d in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0);
    let k = Prng.int d 10 in
    Alcotest.(check bool) "int in bound" true (k >= 0 && k < 10)
  done

(* {1 network model} *)

let test_network_accounting () =
  let channel = Network.create (Network.with_rtt Network.lan 0.010) in
  Network.send channel ~bytes:100;
  Network.send channel ~bytes:100;
  Alcotest.(check int) "two messages" 2 (Network.messages channel);
  Alcotest.(check bool) "latency dominates small messages" true
    (Network.elapsed_seconds channel > 0.0099);
  let before = Network.elapsed_seconds channel in
  Network.add_compute channel 1.0;
  Alcotest.(check bool) "compute added" true
    (Network.elapsed_seconds channel -. before >= 1.0)

let test_network_bandwidth_term () =
  let fast = Network.create Network.lan in
  let slow = Network.create Network.modem in
  Network.send fast ~bytes:100_000;
  Network.send slow ~bytes:100_000;
  Alcotest.(check bool) "modem slower" true
    (Network.elapsed_seconds slow > Network.elapsed_seconds fast)

(* {1 endpoints and cosim} *)

let kcm_design ~constant =
  let top = Cell.root ~name:"kcm_top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let m = Wire.create top ~name:"multiplicand" 8 in
  let p = Wire.create top ~name:"product" 19 in
  let kcm =
    Kcm.create top ~clk ~multiplicand:m ~product:p ~signed_mode:true
      ~pipelined_mode:false ~constant ()
  in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "multiplicand" Types.Input m;
  Design.add_port d "product" Types.Output p;
  (d, kcm)

let kcm_endpoint ~constant =
  let d, kcm = kcm_design ~constant in
  let clk =
    match Design.find_port d "clk" with
    | Some p -> p.Design.port_wire
    | None -> assert false
  in
  (Endpoint.of_simulator ~name:"kcm" (Simulator.create ~clock:clk d), kcm)

let test_endpoint_handles_messages () =
  let endpoint, kcm = kcm_endpoint ~constant:(-56) in
  ignore kcm;
  (match
     Endpoint.handle endpoint
       (Protocol.Set_inputs [ ("multiplicand", Bits.of_int ~width:8 100) ])
   with
   | Protocol.Ack -> ()
   | _ -> Alcotest.fail "expected ack");
  match Endpoint.handle endpoint (Protocol.Get_outputs [ "product" ]) with
  | Protocol.Outputs_are [ ("product", v) ] ->
    Alcotest.(check (option int)) "-56*100" (Some (-5600)) (Bits.to_signed_int v)
  | _ -> Alcotest.fail "expected outputs"

let test_endpoint_bad_port () =
  let endpoint, _ = kcm_endpoint ~constant:7 in
  match Endpoint.handle endpoint (Protocol.Get_outputs [ "bogus" ]) with
  | Protocol.Protocol_error _ -> ()
  | _ -> Alcotest.fail "expected protocol error"

let test_endpoint_reset () =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let q = Wire.create top ~name:"q" 4 in
  let _ = Counter.up_counter top ~clk ~q () in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "q" Types.Output q;
  let endpoint =
    Endpoint.of_simulator ~name:"counter"
      (Simulator.create
         ~clock:(match Design.find_port d "clk" with
                 | Some p -> p.Design.port_wire
                 | None -> assert false)
         d)
  in
  let _ = Endpoint.handle endpoint (Protocol.Cycle 5) in
  let _ = Endpoint.handle endpoint Protocol.Reset in
  match Endpoint.handle endpoint (Protocol.Get_outputs [ "q" ]) with
  | Protocol.Outputs_are [ (_, v) ] ->
    Alcotest.check bits "back to zero" (Bits.zero 4) v
  | _ -> Alcotest.fail "expected outputs"

(* black-box co-simulation must agree with direct simulation *)
let test_cosim_matches_monolithic () =
  let endpoint, _ = kcm_endpoint ~constant:(-56) in
  let cosim = Cosim.create () in
  Cosim.attach cosim endpoint Network.campus;
  let direct_design, _ = kcm_design ~constant:(-56) in
  let direct = Simulator.create direct_design in
  List.iter
    (fun x ->
       let xb = Bits.of_int ~width:8 x in
       Cosim.set_inputs cosim ~box:"kcm" [ ("multiplicand", xb) ];
       Simulator.set_input direct "multiplicand" xb;
       let remote = Cosim.get_output cosim ~box:"kcm" "product" in
       Alcotest.check bits
         (Printf.sprintf "agree on %d" x)
         (Simulator.get_port direct "product")
         remote;
       Cosim.cycle cosim;
       Simulator.cycle direct)
    [ 0; 1; -1; 100; -100; 127; -128 ];
  Alcotest.(check bool) "traffic recorded" true (Cosim.total_messages cosim > 20)

let test_cosim_duplicate_names_rejected () =
  let e1, _ = kcm_endpoint ~constant:1 in
  let e2, _ = kcm_endpoint ~constant:2 in
  let cosim = Cosim.create () in
  Cosim.attach cosim e1 Network.loopback;
  Alcotest.(check bool) "duplicate refused" true
    (try Cosim.attach cosim e2 Network.loopback; false
     with Invalid_argument _ -> true)

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_cosim_unknown_box () =
  let endpoint, _ = kcm_endpoint ~constant:3 in
  let cosim = Cosim.create () in
  Cosim.attach cosim endpoint Network.loopback;
  Alcotest.(check bool) "unknown box refused" true
    (try
       let _ = Cosim.get_output cosim ~box:"nonexistent" "product" in
       false
     with Invalid_argument message ->
       (* the message must name the missing box *)
       contains_substring message "nonexistent")

let test_cosim_protocol_error_surfaces () =
  let endpoint, _ = kcm_endpoint ~constant:3 in
  let cosim = Cosim.create () in
  Cosim.attach cosim endpoint Network.loopback;
  Alcotest.(check bool) "bad port surfaces as Invalid_argument naming the box"
    true
    (try
       Cosim.set_inputs cosim ~box:"kcm" [ ("bogus", Bits.of_int ~width:8 1) ];
       false
     with Invalid_argument message -> contains_substring message "kcm")

(* {1 fault injection and recovery} *)

let counter_endpoint () =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let q = Wire.create top ~name:"q" 8 in
  let _ = Counter.up_counter top ~clk ~q () in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "q" Types.Output q;
  Endpoint.of_simulator ~name:"counter"
    (Simulator.create
       ~clock:(match Design.find_port d "clk" with
               | Some p -> p.Design.port_wire
               | None -> assert false)
       d)

let test_endpoint_dedupes_retransmissions () =
  let endpoint = counter_endpoint () in
  let cycle_packet = { Protocol.seq = 17; payload = Protocol.Cycle 1 } in
  let first = Endpoint.handle_packet endpoint cycle_packet in
  (* the reply was "lost"; the sender retransmits the same sequence *)
  let second = Endpoint.handle_packet endpoint cycle_packet in
  Alcotest.(check bool) "replayed reply matches" true
    (Format.asprintf "%a" Protocol.pp first.Protocol.payload
     = Format.asprintf "%a" Protocol.pp second.Protocol.payload);
  match
    Endpoint.handle_packet endpoint
      { Protocol.seq = 18; payload = Protocol.Get_outputs [ "q" ] }
  with
  | { Protocol.payload = Protocol.Outputs_are [ (_, v) ]; _ } ->
    (* two deliveries of seq 17 must clock the counter exactly once *)
    Alcotest.check bits "clocked once, not twice" (Bits.of_int ~width:8 1) v
  | _ -> Alcotest.fail "expected outputs"

let test_network_transmit_faults () =
  let clean = Network.create Network.lan in
  (match Network.transmit clean ~bytes:50 with
   | Network.Delivered -> ()
   | _ -> Alcotest.fail "clean channel must deliver");
  let lossy =
    Network.create
      ~faults:(Fault.only Fault.Drop ~rate:1.0 ~seed:3)
      Network.lan
  in
  (match Network.transmit lossy ~bytes:50 with
   | Network.Dropped -> ()
   | _ -> Alcotest.fail "certain drop must drop");
  Alcotest.(check int) "drop tallied" 1
    (List.assoc Fault.Drop (Network.fault_counts lossy));
  let flaky =
    Network.create
      ~faults:(Fault.only Fault.Latency_spike ~rate:1.0 ~seed:3)
      Network.lan
  in
  let before = Network.elapsed_seconds flaky in
  (match Network.transmit flaky ~bytes:50 with
   | Network.Delivered -> ()
   | _ -> Alcotest.fail "spikes still deliver");
  Alcotest.(check bool) "spike charged extra time" true
    (Network.elapsed_seconds flaky -. before > 0.2)

(* drive a short session and collect every observed output *)
let drive_session cosim =
  let outputs = ref [] in
  for i = 0 to 11 do
    Cosim.set_inputs cosim ~box:"kcm"
      [ ("multiplicand", Bits.of_int ~width:8 (17 * i land 0xFF)) ];
    outputs := Cosim.get_output cosim ~box:"kcm" "product" :: !outputs;
    Cosim.cycle cosim
  done;
  List.rev !outputs

let baseline_outputs () =
  let endpoint, _ = kcm_endpoint ~constant:(-56) in
  let cosim = Cosim.create () in
  Cosim.attach cosim endpoint Network.campus;
  drive_session cosim

(* The fault matrix: {kind} x {rate} x {retry on/off}. Every cell must
   either recover (outputs byte-identical to the fault-free run) or fail
   cleanly with Exchange_failed — never return wrong data. *)
let test_fault_matrix () =
  let baseline = baseline_outputs () in
  List.iter
    (fun kind ->
       List.iter
         (fun rate ->
            List.iter
              (fun (retry_name, retry) ->
                 let cell =
                   Printf.sprintf "%s @ %.0f%% (%s)" (Fault.kind_name kind)
                     (rate *. 100.0) retry_name
                 in
                 let endpoint, _ = kcm_endpoint ~constant:(-56) in
                 let cosim = Cosim.create () in
                 Cosim.attach cosim
                   ?faults:
                     (if rate > 0.0 then
                        Some (Fault.only kind ~rate ~seed:11)
                      else None)
                   ~retry endpoint Network.campus;
                 match drive_session cosim with
                 | outputs ->
                   Alcotest.(check int)
                     (cell ^ ": recovered run has every output")
                     (List.length baseline) (List.length outputs);
                   List.iteri
                     (fun i (expected, actual) ->
                        Alcotest.check bits
                          (Printf.sprintf "%s: output %d identical" cell i)
                          expected actual)
                     (List.combine baseline outputs);
                   if rate > 0.0 && Cosim.total_faults_injected cosim > 0 then
                     Alcotest.(check bool)
                       (cell ^ ": recovery cost simulated time")
                       true
                       (Cosim.total_retries cosim > 0
                        || List.assoc Fault.Duplicate (Cosim.fault_counts cosim)
                           > 0
                        || List.assoc Fault.Latency_spike
                             (Cosim.fault_counts cosim)
                           > 0)
                 | exception Cosim.Exchange_failed _ ->
                   (* clean failure: only acceptable on an actually
                      faulty channel *)
                   Alcotest.(check bool)
                     (cell ^ ": clean failure only under faults") true
                     (rate > 0.0))
              [ ("retries on", Cosim.default_retry);
                ("retries off", Cosim.no_retry) ])
         [ 0.0; 0.05; 0.5 ])
    Fault.all_kinds

(* 5% drop with retries must recover fully: every cell of this config
   is the acceptance criterion of the fault-injection PR *)
let test_drop_with_retries_recovers () =
  let baseline = baseline_outputs () in
  let endpoint, _ = kcm_endpoint ~constant:(-56) in
  let cosim = Cosim.create () in
  Cosim.attach cosim
    ~faults:(Fault.only Fault.Drop ~rate:0.05 ~seed:42)
    ~retry:Cosim.default_retry endpoint Network.campus;
  let outputs = drive_session cosim in
  List.iteri
    (fun i (expected, actual) ->
       Alcotest.check bits (Printf.sprintf "output %d identical" i) expected
         actual)
    (List.combine baseline outputs)

(* acceptance: seed fixed, 5% drop + retries => byte-identical outputs,
   strictly more simulated wall time, nonzero retry accounting *)
let test_faulty_run_determinism_and_cost () =
  let collect ?faults () =
    let endpoint, _ = kcm_endpoint ~constant:(-56) in
    let acc = ref [] in
    let cost =
      Cosim.simulation_cost ~arch:Cosim.Webcad ~network:Network.campus
        ~endpoint ~cycles:200
        ~drive:(fun i -> [ ("multiplicand", Bits.of_int ~width:8 (i land 0xFF)) ])
        ~observe:[ "product" ] ?faults
        ~on_outputs:(fun _ pairs -> acc := pairs :: !acc)
        ()
    in
    (cost, List.rev !acc)
  in
  let faults = Fault.only Fault.Drop ~rate:0.05 ~seed:42 in
  let clean_cost, clean_outputs = collect () in
  let faulty_cost, faulty_outputs = collect ~faults () in
  let faulty_cost2, faulty_outputs2 = collect ~faults () in
  Alcotest.(check int) "same sample count"
    (List.length clean_outputs) (List.length faulty_outputs);
  List.iter2
    (fun a b ->
       match (a, b) with
       | [ (_, va) ], [ (_, vb) ] ->
         Alcotest.check bits "faulty run output identical to clean run" va vb
       | _ -> Alcotest.fail "unexpected shape")
    clean_outputs faulty_outputs;
  Alcotest.(check bool) "faults were actually injected" true
    (faulty_cost.Cosim.faults_injected > 0);
  Alcotest.(check bool) "retries happened" true
    (faulty_cost.Cosim.retry_count > 0);
  Alcotest.(check bool) "recovery retransmitted bytes" true
    (faulty_cost.Cosim.retransmitted_bytes > 0);
  Alcotest.(check bool) "recovery costs wall time" true
    (faulty_cost.Cosim.wall_seconds > clean_cost.Cosim.wall_seconds);
  Alcotest.(check bool) "clean run pays no recovery" true
    (clean_cost.Cosim.retry_count = 0
     && clean_cost.Cosim.faults_injected = 0);
  (* same seed => bit-for-bit replay, including the cost accounting *)
  Alcotest.(check (float 0.0)) "replay: same wall clock"
    faulty_cost.Cosim.wall_seconds faulty_cost2.Cosim.wall_seconds;
  Alcotest.(check int) "replay: same retries"
    faulty_cost.Cosim.retry_count faulty_cost2.Cosim.retry_count;
  List.iter2
    (fun a b ->
       match (a, b) with
       | [ (_, va) ], [ (_, vb) ] -> Alcotest.check bits "replay: same outputs" va vb
       | _ -> Alcotest.fail "unexpected shape")
    faulty_outputs faulty_outputs2

(* {1 architecture cost model (claim C1)} *)

let session_cost ~arch ~rtt =
  let endpoint, _ = kcm_endpoint ~constant:(-56) in
  Cosim.simulation_cost ~arch ~network:(Network.with_rtt Network.campus rtt)
    ~endpoint ~cycles:100
    ~drive:(fun i -> [ ("multiplicand", Bits.of_int ~width:8 (i land 0x7F)) ])
    ~observe:[ "product" ] ()

let test_local_beats_remote () =
  let rtt = 0.020 in
  let local = session_cost ~arch:Cosim.Local_applet ~rtt in
  let webcad = session_cost ~arch:Cosim.Webcad ~rtt in
  let javacad = session_cost ~arch:Cosim.Javacad ~rtt in
  Alcotest.(check bool) "local is fastest" true
    (local.Cosim.wall_seconds < webcad.Cosim.wall_seconds
     && local.Cosim.wall_seconds < javacad.Cosim.wall_seconds);
  Alcotest.(check bool) "rmi overhead costs more than raw sockets" true
    (javacad.Cosim.byte_count > webcad.Cosim.byte_count)

let test_remote_scales_with_rtt () =
  let webcad_slow = session_cost ~arch:Cosim.Webcad ~rtt:0.100 in
  let webcad_fast = session_cost ~arch:Cosim.Webcad ~rtt:0.001 in
  let local_slow = session_cost ~arch:Cosim.Local_applet ~rtt:0.100 in
  let local_fast = session_cost ~arch:Cosim.Local_applet ~rtt:0.001 in
  Alcotest.(check bool) "webcad grows with rtt" true
    (webcad_slow.Cosim.wall_seconds > 10.0 *. webcad_fast.Cosim.wall_seconds);
  Alcotest.(check bool) "local is rtt-independent" true
    (abs_float (local_slow.Cosim.wall_seconds -. local_fast.Cosim.wall_seconds)
     < 1e-9)

let test_outputs_functionally_identical_across_archs () =
  let collect arch =
    let acc = ref [] in
    let _ =
      let endpoint, _ = kcm_endpoint ~constant:(-56) in
      Cosim.simulation_cost ~arch ~network:Network.campus ~endpoint ~cycles:10
        ~drive:(fun i -> [ ("multiplicand", Bits.of_int ~width:8 (i * 11)) ])
        ~observe:[ "product" ]
        ~on_outputs:(fun _ pairs -> acc := pairs :: !acc)
        ()
    in
    List.rev !acc
  in
  let local = collect Cosim.Local_applet in
  let webcad = collect Cosim.Webcad in
  Alcotest.(check int) "same sample count" (List.length local) (List.length webcad);
  List.iter2
    (fun a b ->
       match a, b with
       | [ (_, va) ], [ (_, vb) ] -> Alcotest.check bits "same value" va vb
       | _ -> Alcotest.fail "unexpected shape")
    local webcad

(* {1 crash-safe sessions} *)

module Reference = Jhdl_sim.Reference

let port_wire d name =
  match Design.find_port d name with
  | Some p -> p.Design.port_wire
  | None -> Alcotest.failf "no port %s" name

(* the unfaulted golden run: the interpreter, no network at all *)
let golden_kcm_run () =
  let d, _ = kcm_design ~constant:(-56) in
  let r = Reference.create ~clock:(port_wire d "clk") d in
  Reference.watch r ~label:"product" (port_wire d "product");
  let outputs = ref [] in
  for i = 0 to 11 do
    Reference.set_input r "multiplicand"
      (Bits.of_int ~width:8 (17 * i land 0xFF));
    outputs := Reference.get_port r "product" :: !outputs;
    Reference.cycle r
  done;
  (List.rev !outputs, Reference.history r)

let kcm_endpoint_watched () =
  let d, _ = kcm_design ~constant:(-56) in
  let sim = Simulator.create ~clock:(port_wire d "clk") d in
  Simulator.watch sim ~label:"product" (port_wire d "product");
  (Endpoint.of_simulator ~name:"kcm" sim, sim)

let check_against_golden label (golden_outputs, golden_history) outputs sim =
  List.iteri
    (fun i (expected, actual) ->
       Alcotest.check bits
         (Printf.sprintf "%s: output %d matches golden" label i)
         expected actual)
    (List.combine golden_outputs outputs);
  List.iter2
    (fun (glabel, gsamples) (slabel, ssamples) ->
       Alcotest.(check string) (label ^ ": history label") glabel slabel;
       Alcotest.(check int)
         (label ^ ": history length")
         (List.length gsamples) (List.length ssamples);
       List.iter2
         (fun (gc, gv) (sc, sv) ->
            Alcotest.(check int) (label ^ ": sample cycle") gc sc;
            Alcotest.check bits (label ^ ": sample value") gv sv)
         gsamples ssamples)
    golden_history (Simulator.history sim)

(* a scripted mid-run crash with the session layer armed is invisible in
   the answers: checkpoint + journal replay + resume reconstruct
   everything, including the waveform history *)
let test_scripted_crash_resumes_bit_identical () =
  let golden = golden_kcm_run () in
  let run () =
    let endpoint, sim = kcm_endpoint_watched () in
    let cosim = Cosim.create () in
    Cosim.attach cosim ~session:Cosim.default_session_policy endpoint
      Network.campus;
    Cosim.crash_at cosim ~box:"kcm" ~exchange:9;
    let outputs = drive_session cosim in
    (cosim, outputs, sim)
  in
  let cosim, outputs, sim = run () in
  check_against_golden "crash_at" golden outputs sim;
  Alcotest.(check int) "exactly one crash" 1
    (Cosim.total_session_crashes cosim);
  Alcotest.(check bool) "resumed at least once" true
    (Cosim.total_resumes cosim >= 1);
  Alcotest.(check bool) "journal replayed" true
    (Cosim.total_replayed_messages cosim > 0);
  (* scripted crashes are deterministic: byte-for-byte replay *)
  let cosim2, outputs2, _ = run () in
  Alcotest.(check int) "replay: same messages"
    (Cosim.total_messages cosim) (Cosim.total_messages cosim2);
  Alcotest.(check int) "replay: same bytes"
    (Cosim.total_bytes cosim) (Cosim.total_bytes cosim2);
  Alcotest.(check (float 0.0)) "replay: same wall clock"
    (Cosim.elapsed_seconds cosim) (Cosim.elapsed_seconds cosim2);
  List.iter2 (Alcotest.check bits "replay: same outputs") outputs outputs2

(* a crash without the session layer stays a clean failure *)
let test_scripted_crash_without_session_fails_cleanly () =
  let endpoint, _ = kcm_endpoint_watched () in
  let cosim = Cosim.create () in
  Cosim.attach cosim endpoint Network.campus;
  Cosim.crash_at cosim ~box:"kcm" ~exchange:2;
  (match drive_session cosim with
   | _ -> Alcotest.fail "expected Exchange_failed"
   | exception Cosim.Exchange_failed reason ->
     Alcotest.(check bool) "failure names the box" true
       (contains_substring reason "kcm"));
  Alcotest.(check bool) "endpoint is dead" true
    (not (Endpoint.is_alive endpoint))

(* the chaos run: randomized crash, drop and corruption points, several
   seeds — every recovered run must be bit-identical to the golden
   interpreter run, and each seed must replay deterministically *)
let test_chaos_crash_points_match_golden () =
  let golden = golden_kcm_run () in
  let chaos_faults seed =
    { Fault.none with
      Fault.drop_rate = 0.10;
      corrupt_rate = 0.05;
      session_crash_rate = 0.08;
      seed }
  in
  let run seed =
    let endpoint, sim = kcm_endpoint_watched () in
    let cosim = Cosim.create () in
    Cosim.attach cosim ~faults:(chaos_faults seed)
      ~session:
        { Cosim.default_session_policy with
          Cosim.checkpoint_every = 4;
          (* heavy chaos: a resume can itself be crashed, so give each
             exchange a deep recovery budget *)
          resume_attempts = 10 }
      endpoint Network.campus;
    let outputs = drive_session cosim in
    (cosim, outputs, sim)
  in
  let total_crashes = ref 0 in
  List.iter
    (fun seed ->
       let label = Printf.sprintf "chaos seed %d" seed in
       let cosim, outputs, sim = run seed in
       check_against_golden label golden outputs sim;
       total_crashes := !total_crashes + Cosim.total_session_crashes cosim;
       let cosim2, outputs2, _ = run seed in
       Alcotest.(check int) (label ^ ": replay same crashes")
         (Cosim.total_session_crashes cosim)
         (Cosim.total_session_crashes cosim2);
       Alcotest.(check int) (label ^ ": replay same resumes")
         (Cosim.total_resumes cosim) (Cosim.total_resumes cosim2);
       Alcotest.(check (float 0.0)) (label ^ ": replay same wall clock")
         (Cosim.elapsed_seconds cosim) (Cosim.elapsed_seconds cosim2);
       List.iter2
         (Alcotest.check bits (label ^ ": replay same outputs"))
         outputs outputs2)
    [ 3; 7; 11; 42; 1337 ];
  (* the sweep is pointless if nothing ever crashed *)
  Alcotest.(check bool) "some seed actually crashed the endpoint" true
    (!total_crashes > 0)

(* {1 endpoint edge cases} *)

(* a late duplicate from before a Reset must be refused, not re-executed:
   replaying it would clock the freshly-reset counter *)
let test_stale_duplicate_across_reset_refused () =
  let endpoint = counter_endpoint () in
  let cycle_packet = { Protocol.seq = 10; payload = Protocol.Cycle 1 } in
  let _ = Endpoint.handle_packet endpoint cycle_packet in
  let _ =
    Endpoint.handle_packet endpoint { Protocol.seq = 11; payload = Protocol.Reset }
  in
  (match Endpoint.handle_packet endpoint cycle_packet with
   | { Protocol.payload = Protocol.Protocol_error reason; _ } ->
     Alcotest.(check bool) "refusal says stale" true
       (contains_substring reason "stale")
   | _ -> Alcotest.fail "expected stale-sequence refusal");
  match
    Endpoint.handle_packet endpoint
      { Protocol.seq = 12; payload = Protocol.Get_outputs [ "q" ] }
  with
  | { Protocol.payload = Protocol.Outputs_are [ (_, v) ]; _ } ->
    Alcotest.check bits "counter still reset" (Bits.zero 8) v
  | _ -> Alcotest.fail "expected outputs"

(* sequence numbers wrap at 2^16: 0 right after 65535 is the next
   request, not a 65535-step-old duplicate *)
let test_sequence_wraparound () =
  let endpoint = counter_endpoint () in
  let _ =
    Endpoint.handle_packet endpoint
      { Protocol.seq = Protocol.max_seq; payload = Protocol.Cycle 1 }
  in
  (match
     Endpoint.handle_packet endpoint
       { Protocol.seq = 0; payload = Protocol.Cycle 1 }
   with
   | { Protocol.payload = Protocol.Ack; _ } -> ()
   | _ -> Alcotest.fail "wrapped sequence must execute");
  (match
     Endpoint.handle_packet endpoint
       { Protocol.seq = 1; payload = Protocol.Get_outputs [ "q" ] }
   with
   | { Protocol.payload = Protocol.Outputs_are [ (_, v) ]; _ } ->
     Alcotest.check bits "both cycles applied" (Bits.of_int ~width:8 2) v
   | _ -> Alcotest.fail "expected outputs");
  (* and the old pre-wrap sequence is now stale *)
  match
    Endpoint.handle_packet endpoint
      { Protocol.seq = Protocol.max_seq; payload = Protocol.Cycle 1 }
  with
  | { Protocol.payload = Protocol.Protocol_error reason; _ } ->
    Alcotest.(check bool) "pre-wrap duplicate refused" true
      (contains_substring reason "stale")
  | _ -> Alcotest.fail "expected stale-sequence refusal"

(* a retransmitted request whose cached reply was corrupted in flight:
   the sender asks again with the same sequence number and must get the
   same answer, computed zero additional times *)
let test_corrupted_reply_retransmission_replays_cache () =
  let endpoint = counter_endpoint () in
  let _ =
    Endpoint.handle_packet endpoint { Protocol.seq = 1; payload = Protocol.Cycle 3 }
  in
  let read = { Protocol.seq = 2; payload = Protocol.Get_outputs [ "q" ] } in
  let first = Endpoint.handle_packet endpoint read in
  let journal_after_first = Endpoint.journal_length endpoint in
  (* the reply is mangled on the wire; the sender's CRC rejects it and
     retransmits the identical request *)
  let second = Endpoint.handle_packet endpoint read in
  Alcotest.(check string) "cached reply replayed verbatim"
    (Format.asprintf "%a" Protocol.pp first.Protocol.payload)
    (Format.asprintf "%a" Protocol.pp second.Protocol.payload);
  Alcotest.(check int) "replay did not re-journal" journal_after_first
    (Endpoint.journal_length endpoint);
  match
    Endpoint.handle_packet endpoint
      { Protocol.seq = 3; payload = Protocol.Get_outputs [ "q" ] }
  with
  | { Protocol.payload = Protocol.Outputs_are [ (_, v) ]; _ } ->
    Alcotest.check bits "counter advanced exactly 3" (Bits.of_int ~width:8 3) v
  | _ -> Alcotest.fail "expected outputs"

(* the journal is bounded: overflow forces an automatic checkpoint, and
   a crash right after still restarts to the exact state *)
let test_journal_overflow_autocheckpoints () =
  let top = Cell.root ~name:"top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let q = Wire.create top ~name:"q" 8 in
  let _ = Counter.up_counter top ~clk ~q () in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "q" Types.Output q;
  let endpoint =
    Endpoint.of_simulator ~journal_cap:4 ~name:"counter"
      (Simulator.create ~clock:(port_wire d "clk") d)
  in
  (match
     Endpoint.handle_packet endpoint
       { Protocol.seq = 0; payload = Protocol.Hello "s" }
   with
   | { Protocol.payload = Protocol.Ack; _ } -> ()
   | _ -> Alcotest.fail "hello refused");
  for i = 1 to 12 do
    match
      Endpoint.handle_packet endpoint
        { Protocol.seq = i; payload = Protocol.Cycle 1 }
    with
    | { Protocol.payload = Protocol.Ack; _ } -> ()
    | _ -> Alcotest.failf "cycle %d refused" i
  done;
  Alcotest.(check bool) "journal stays bounded" true
    (Endpoint.journal_length endpoint <= 4);
  Alcotest.(check bool) "overflow forced checkpoints" true
    (Endpoint.checkpoints_taken endpoint >= 2);
  Endpoint.crash endpoint;
  (match Endpoint.restart endpoint with
   | Ok replayed ->
     Alcotest.(check bool) "replay bounded by journal cap" true (replayed <= 4)
   | Error reason -> Alcotest.failf "restart failed: %s" reason);
  match
    Endpoint.handle_packet endpoint
      { Protocol.seq = 13; payload = Protocol.Get_outputs [ "q" ] }
  with
  | { Protocol.payload = Protocol.Outputs_are [ (_, v) ]; _ } ->
    Alcotest.check bits "all 12 cycles survive the crash"
      (Bits.of_int ~width:8 12) v
  | _ -> Alcotest.fail "expected outputs"

(* restart without a session has nothing durable to restore *)
let test_restart_without_session_fails () =
  let endpoint = counter_endpoint () in
  Endpoint.crash endpoint;
  (match Endpoint.restart endpoint with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "restart must fail without a session");
  Alcotest.(check bool) "dead endpoint refuses packets" true
    (try
       let _ =
         Endpoint.handle_packet endpoint
           { Protocol.seq = 0; payload = Protocol.Ack }
       in
       false
     with Invalid_argument _ -> true)

(* fuzz: arbitrary bytes never crash the decoder *)
let prop_decode_fuzz =
  QCheck.Test.make ~name:"decoder is total on arbitrary bytes" ~count:500
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 64) QCheck.Gen.char)
    (fun junk ->
       match Protocol.decode junk with
       | Ok _ | Error _ -> true)

let suite =
  [ Alcotest.test_case "protocol roundtrips" `Quick test_protocol_roundtrips;
    Alcotest.test_case "protocol rejects garbage" `Quick
      test_protocol_rejects_garbage;
    Alcotest.test_case "protocol sizes" `Quick test_protocol_sizes;
    Alcotest.test_case "network accounting" `Quick test_network_accounting;
    Alcotest.test_case "network bandwidth term" `Quick
      test_network_bandwidth_term;
    Alcotest.test_case "endpoint handles messages" `Quick
      test_endpoint_handles_messages;
    Alcotest.test_case "endpoint bad port" `Quick test_endpoint_bad_port;
    Alcotest.test_case "endpoint reset" `Quick test_endpoint_reset;
    Alcotest.test_case "cosim matches monolithic" `Quick
      test_cosim_matches_monolithic;
    Alcotest.test_case "cosim duplicate names" `Quick
      test_cosim_duplicate_names_rejected;
    Alcotest.test_case "cosim unknown box" `Quick test_cosim_unknown_box;
    Alcotest.test_case "cosim protocol error surfaces" `Quick
      test_cosim_protocol_error_surfaces;
    Alcotest.test_case "packet roundtrip sweep" `Quick
      test_packet_roundtrip_sweep;
    Alcotest.test_case "packet detects single-byte corruption" `Quick
      test_packet_detects_any_single_byte_corruption;
    Alcotest.test_case "packet codec allocation" `Quick test_packet_allocation;
    Alcotest.test_case "prng determinism and split" `Quick
      test_prng_determinism_and_split;
    Alcotest.test_case "endpoint dedupes retransmissions" `Quick
      test_endpoint_dedupes_retransmissions;
    Alcotest.test_case "network transmit faults" `Quick
      test_network_transmit_faults;
    Alcotest.test_case "fault matrix" `Quick test_fault_matrix;
    Alcotest.test_case "5% drop with retries recovers" `Quick
      test_drop_with_retries_recovers;
    Alcotest.test_case "faulty run determinism and cost" `Quick
      test_faulty_run_determinism_and_cost;
    Alcotest.test_case "local beats remote" `Quick test_local_beats_remote;
    Alcotest.test_case "remote scales with rtt" `Quick test_remote_scales_with_rtt;
    Alcotest.test_case "outputs identical across archs" `Quick
      test_outputs_functionally_identical_across_archs;
    Alcotest.test_case "scripted crash resumes bit-identical" `Quick
      test_scripted_crash_resumes_bit_identical;
    Alcotest.test_case "crash without session fails cleanly" `Quick
      test_scripted_crash_without_session_fails_cleanly;
    Alcotest.test_case "chaos crash points match golden" `Quick
      test_chaos_crash_points_match_golden;
    Alcotest.test_case "stale duplicate across reset refused" `Quick
      test_stale_duplicate_across_reset_refused;
    Alcotest.test_case "sequence wraparound" `Quick test_sequence_wraparound;
    Alcotest.test_case "corrupted reply retransmission replays cache" `Quick
      test_corrupted_reply_retransmission_replays_cache;
    Alcotest.test_case "journal overflow autocheckpoints" `Quick
      test_journal_overflow_autocheckpoints;
    Alcotest.test_case "restart without session fails" `Quick
      test_restart_without_session_fails ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_protocol_roundtrip; prop_decode_fuzz ]
