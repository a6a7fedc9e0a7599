(* cosim_session: the Figure-4 co-simulation. A system simulator drives
   two black boxes, a KCM 8x8 multiplier and a 16-tap FIR filter, over
   campus links that drop, corrupt and crash (seeded), with the
   crash-safe session layer armed. Closed loop: one co-simulated cycle
   after another. Every cycle's outputs are checked against
   Kcm.expected_product and Fir.expected_response. *)

open Jhdl

let kcm_assignment =
  [ ("multiplicand_width", Ip_module.Int_value 8);
    ("product_width", Ip_module.Int_value 16);
    ("signed", Ip_module.Bool_value true);
    ("pipelined", Ip_module.Bool_value false);
    ("constant", Ip_module.Int_value (-56)) ]

let fir_coefficients = [ -1; 3; -5; 7; -9; 11; 13; 17; 17; 13; 11; -9; 7; -5; 3; -1 ]
let fir_in = 8
let fir_out = 20

let fir_design () =
  let top = Cell.root ~name:"fir_top" () in
  let clk = Wire.create top ~name:"clk" 1 in
  let x = Wire.create top ~name:"x" fir_in in
  let y = Wire.create top ~name:"y" fir_out in
  let _ = Fir.create top ~clk ~x ~y ~signed_mode:true ~coefficients:fir_coefficients () in
  let d = Design.create top in
  Design.add_port d "clk" Types.Input clk;
  Design.add_port d "x" Types.Input x;
  Design.add_port d "y" Types.Output y;
  (d, clk)

let kcm_design () =
  let built = Catalog.kcm.Ip_module.build kcm_assignment in
  let d = built.Ip_module.design in
  (d, (Option.get (Design.find_port d "clk")).Design.port_wire)

(* a fresh simulator per box, as the served applet would hold *)
let simulators () =
  let kd, kclk = kcm_design () and fd, fclk = fir_design () in
  (Simulator.create ~clock:kclk kd, Simulator.create ~clock:fclk fd)

let faults ~seed box =
  { Fault.none with
    Fault.drop_rate = 0.02;
    corrupt_rate = 0.01;
    session_crash_rate = 0.002;
    seed = (seed * 1_000_003) + box }

let setup ~seed =
  let ksim, fsim = simulators () in
  let cosim = Cosim.create () in
  Cosim.attach cosim ~faults:(faults ~seed 1) ~session:Cosim.default_session_policy
    (Endpoint.of_simulator ~name:"kcm" ksim) Network.campus;
  Cosim.attach cosim ~faults:(faults ~seed 2) ~session:Cosim.default_session_policy
    (Endpoint.of_simulator ~name:"fir" fsim) Network.campus;
  cosim

(* inputs and golden outputs *)
type stimulus = {
  kx : int array;  (* signed 8-bit multiplicands *)
  fx : int array;  (* signed 8-bit samples *)
  kcm_expected : Bits.t array;
  fir_expected : Bits.t array;
}

let stimulus ~seed n =
  let st = Gen.state ~seed ~tag:"cosim" in
  let draw () = Random.State.int st 256 - 128 in
  let kx = Array.init n (fun _ -> draw ()) in
  let fx = Array.init n (fun _ -> draw ()) in
  let full_width = 8 + Modgen_util.bits_for_constant (-56) in
  { kx; fx;
    kcm_expected =
      Array.map
        (fun x ->
           Kcm.expected_product ~signed_mode:true ~constant:(-56) ~full_width
             ~product_width:16 (Bits.of_int ~width:8 x))
        kx;
    fir_expected =
      Array.of_list
        (Fir.expected_response ~signed_mode:true ~coefficients:fir_coefficients
           ~full_width:(Fir.accumulation_width ~x_width:fir_in ~coefficients:fir_coefficients)
           ~out_width:fir_out (Array.to_list fx)) }

(* one co-simulated cycle: drive both boxes, read both outputs before
   the edge (the FIR output is combinational in its current sample),
   clock. Spans wrap each Cosim call. *)
let cycle r tr cosim s i =
  let sp = Trace.id tr in
  let call name f = Trace.span tr (sp name) f in
  match
    Report.attempt r (fun () ->
      call "cosim.set_inputs" (fun () ->
        Cosim.set_inputs cosim ~box:"kcm" [ ("multiplicand", Bits.of_int ~width:8 s.kx.(i)) ]);
      call "cosim.set_inputs" (fun () ->
        Cosim.set_inputs cosim ~box:"fir" [ ("x", Bits.of_int ~width:fir_in s.fx.(i)) ]);
      let y = call "cosim.get_output" (fun () -> Cosim.get_output cosim ~box:"fir" "y") in
      let p =
        call "cosim.get_output" (fun () -> Cosim.get_output cosim ~box:"kcm" "product")
      in
      call "cosim.cycle" (fun () -> Cosim.cycle cosim);
      (p, y))
  with
  | None -> ()
  | Some (p, y) ->
    Report.check r (Bits.equal p s.kcm_expected.(i)) (fun () ->
      Printf.sprintf "cycle %d: kcm product" i);
    Report.check r (Bits.equal y s.fir_expected.(i)) (fun () ->
      Printf.sprintf "cycle %d: fir y" i)

(* run cycles [0, n) in [windows] consecutive blocks: each block's
   rate and per-cycle latencies *)
let session r tr cosim s n ~windows =
  List.map
    (fun (lo, len) ->
       let lat = Stats.samples () in
       let start = Trace.now () in
       for i = lo to lo + len - 1 do
         Trace.set_request tr i;
         let t0 = Trace.now () in
         cycle r tr cosim s i;
         Stats.add lat (Trace.now () -. t0)
       done;
       (float_of_int len /. (Trace.now () -. start), lat))
    (Measure.blocks n windows)

let counts cosim n =
  let per_cycle x = float_of_int x /. float_of_int (max 1 n) in
  [ ("netproto.messages_per_cycle", per_cycle (Cosim.total_messages cosim), "count");
    ("netproto.retries", float_of_int (Cosim.total_retries cosim), "count");
    ("netproto.resumes", float_of_int (Cosim.total_resumes cosim), "count");
    ("netproto.checkpoints", float_of_int (Cosim.total_checkpoints cosim), "count");
    ("netproto.replayed", float_of_int (Cosim.total_replayed_messages cosim), "count");
    ( "netproto.modeled_ms_per_cycle",
      Cosim.elapsed_seconds cosim *. 1e3 /. float_of_int (max 1 n),
      "ms" ) ]

(* ------------------------------------------------------------------ *)
(* the loopback replay behind the per-layer numbers                    *)
(* ------------------------------------------------------------------ *)

(* The session's data messages for cycles [0, n) travel, per box,
   through Protocol and Endpoint.handle_packet on a perfect loopback;
   a shadow simulator applies the same operations so the endpoint's
   own handling time can be separated from simulation time. A
   Checkpoint rides every [checkpoint_every] data exchanges, as the
   session policy sends it, and [crashes] crash/restart rounds are
   spread evenly over the run. *)
let replay r tr s n ~crashes =
  let sp = Trace.id tr in
  let ksim, fsim = simulators () in
  let kshadow, fshadow = simulators () in
  let handle_only = Stats.samples () in
  let evals0 = Simulator.eval_count kshadow + Simulator.eval_count fshadow in
  let events0 = Simulator.event_count kshadow + Simulator.event_count fshadow in
  let boxes =
    [| (Endpoint.of_simulator ~name:"kcm" ksim, kshadow, "multiplicand", 8, s.kx, "product");
       (Endpoint.of_simulator ~name:"fir" fsim, fshadow, "x", fir_in, s.fx, "y") |]
  in
  let seqs = [| 0; 0 |] and since = [| 0; 0 |] in
  let exchange b message shadow =
    let ep, _, _, _, _, _ = boxes.(b) in
    let seq = seqs.(b) in
    seqs.(b) <- (seq + 1) land Protocol.max_seq;
    Trace.enter tr (sp "netproto.exchange");
    let wire = Trace.span tr (sp "netproto.encode") (fun () -> Protocol.encode_packet ~seq message) in
    let packet =
      Trace.span tr (sp "netproto.decode") (fun () ->
        match Protocol.decode_packet wire with Ok p -> p | Error e -> failwith e)
    in
    let span_name =
      match message with Protocol.Checkpoint -> "netproto.checkpoint" | _ -> "netproto.handle"
    in
    let h0 = Trace.now () in
    let reply = Trace.span tr (sp span_name) (fun () -> Endpoint.handle_packet ep packet) in
    let handled = Trace.now () -. h0 in
    let back = Trace.span tr (sp "netproto.encode") (fun () ->
      Protocol.encode_packet ~seq:reply.Protocol.seq reply.Protocol.payload)
    in
    let reply =
      Trace.span tr (sp "netproto.decode") (fun () ->
        match Protocol.decode_packet back with Ok p -> p.Protocol.payload | Error e -> failwith e)
    in
    Trace.exit tr;
    let s0 = Trace.now () in
    shadow ();
    if span_name = "netproto.handle" then Stats.add handle_only (handled -. (Trace.now () -. s0));
    reply
  in
  let data b message shadow =
    let reply = exchange b message shadow in
    since.(b) <- since.(b) + 1;
    if since.(b) >= Cosim.default_session_policy.Cosim.checkpoint_every then begin
      since.(b) <- 0;
      ignore (exchange b Protocol.Checkpoint ignore : Protocol.message)
    end;
    reply
  in
  Array.iteri
    (fun b (ep, _, _, _, _, _) ->
       ignore (exchange b (Protocol.Hello (Endpoint.name ep)) ignore : Protocol.message))
    boxes;
  let crash_every = if crashes = 0 then max_int else max 1 (n / (crashes + 1)) in
  ignore
    (Report.attempt r (fun () ->
       for i = 0 to n - 1 do
         Array.iteri
           (fun b (ep, shadow, port, width, xs, out) ->
              let v = Bits.of_int ~width xs.(i) in
              ignore (data b (Protocol.Set_inputs [ (port, v) ]) (fun () ->
                Simulator.set_inputs shadow [ (port, v) ]) : Protocol.message);
              (match
                 data b (Protocol.Get_outputs [ out ]) (fun () ->
                   ignore (Simulator.get_port shadow out : Bits.t))
               with
               | Protocol.Outputs_are [ (_, got) ] ->
                 let expected = if b = 0 then s.kcm_expected.(i) else s.fir_expected.(i) in
                 Report.check r (Bits.equal got expected) (fun () ->
                   Printf.sprintf "replay cycle %d: %s" i out)
               | _ -> Report.check r false (fun () -> "replay: unexpected reply"));
              ignore
                (data b (Protocol.Cycle 1) (fun () ->
                   Trace.span tr (sp "sim.cycle") (fun () -> Simulator.cycle shadow))
                 : Protocol.message);
              if (i + 1) mod crash_every = 0 && i + 1 < n then
                Trace.span tr (sp "netproto.restart") (fun () ->
                  Endpoint.crash ep;
                  match Endpoint.restart ep with Ok _ -> () | Error e -> failwith e))
           boxes
       done));
  let per_cycle x = float_of_int x /. float_of_int (max 1 n) in
  let us name = Measure.us (Trace.self_p50 tr name) in
  Report.metric r "netproto.encode_us" (us "netproto.encode") "us";
  Report.metric r "netproto.decode_us" (us "netproto.decode") "us";
  Report.metric r "netproto.handle_us" (Measure.us (Stats.p50 handle_only)) "us";
  Report.metric r "netproto.checkpoint_ms" (Measure.ms (Trace.self_p50 tr "netproto.checkpoint")) "ms";
  Report.metric r "netproto.restart_ms" (Measure.ms (Trace.self_p50 tr "netproto.restart")) "ms";
  Report.metric r "sim.cycle_us" (us "sim.cycle") "us";
  Report.metric r "sim.evals_per_cycle"
    (per_cycle (Simulator.eval_count kshadow + Simulator.eval_count fshadow - evals0)) "count";
  Report.metric r "sim.events_per_cycle"
    (per_cycle (Simulator.event_count kshadow + Simulator.event_count fshadow - events0)) "count"

(* cycles per second of run length, from the measured rate on a 2-core
   x86-64 host, and the windows the session is cut into *)
let cycles_per_second = 1100.0
let windows = 15

let inputs ~seed ~seconds =
  let n = max windows (int_of_float (cycles_per_second *. 0.8 *. seconds)) in
  let s = stimulus ~seed n in
  ( n, s,
    Gen.digest
      (Fault.describe (faults ~seed 1)
       :: Fault.describe (faults ~seed 2)
       :: Array.to_list (Array.map2 (Printf.sprintf "%d %d") s.kx s.fx)) )

let run r (o : Measure.opts) =
  (* set up before drawing the inputs, as Deliver.run does *)
  let cosim = Measure.setups r o (fun () -> setup ~seed:o.Measure.seed) in
  let n, s, digest = inputs ~seed:o.Measure.seed ~seconds:o.Measure.seconds in
  r.Report.digest <- digest;
  match o.Measure.trace with
  | None ->
    let blocks = session r Trace.off cosim s n ~windows in
    Measure.e2e r ~windows:(List.map snd blocks) ~rates:(List.map fst blocks);
    List.iter (fun (name, v, u) -> Report.extra ~exact:true r name v u) (counts cosim n);
    Report.extra ~exact:true r "netproto.crashes"
      (float_of_int (Cosim.total_session_crashes cosim)) "count"
  | Some tr ->
    let q = max 1 (n / 4) in
    let untraced =
      snd (List.hd (Measure.runtime r ~ops:q (fun () -> session r Trace.off cosim s q ~windows:1)))
    in
    let traced_cosim = setup ~seed:o.Measure.seed in
    let traced = snd (List.hd (session r tr traced_cosim s q ~windows:1)) in
    List.iter (fun (name, v, u) -> Report.metric r name v u) (counts traced_cosim q);
    (* the Chrome trace keeps the session's spans, not the replay's *)
    Trace.set_request tr Trace.chrome_requests;
    replay r tr s q ~crashes:(Cosim.total_session_crashes traced_cosim);
    Measure.trace_quality r tr ~root:"netproto.exchange" ~traced_p50:(Stats.p50 traced)
      ~untraced_p50:(Stats.p50 untraced)
