(* sim_sweep: the applet's evaluate-and-validate step, on the customer's
   side. For each of 24 designs (the 6 catalog IPs, each at its largest
   point and at 3 graded points): compile the scalar and batch kernels,
   run a seeded 63-lane stimulus on Simulator.Batch and lanes 0/31/62
   on scalar kernels, and check that each of those lanes' batch
   snapshot is byte-identical to its scalar run's. Closed loop, fixed
   work; the server and the wire protocol do nothing here. *)

open Jhdl

let lanes = Simulator.Batch.max_lanes
let scalar_lanes = [ 0; 31; lanes - 1 ]

(* every parameter at the top of its range (the first tap set, the
   longest): the heaviest design each generator makes *)
let largest ip =
  Gen.point ip
    (List.map
       (fun (name, kind) ->
          ( name,
            match kind with
            | Ip_module.Int_param { max_value; _ } -> Ip_module.Int_value max_value
            | Ip_module.Bool_param _ -> Ip_module.Bool_value true
            | Ip_module.Choice_param { choices; _ } -> Ip_module.Choice_value (List.hd choices) ))
       ip.Ip_module.params)

(* The designs are fixed: each IP's largest point and three graded
   ones, small, medium and large. The seed draws the stimulus. Seeded
   design points would move the median simulated cycle from one design
   to another between seeds, a spread no bound could hold. *)
let points = List.concat_map (fun ip -> largest ip :: Gen.graded_points ip 3) Catalog.all

type design = {
  pt : Gen.point;
  d : Design.t;
  clock : Wire.t option;
  inputs : (string * int) array;  (* driven ports and their widths *)
  salt : int;
}

let elaborate ~seed i pt =
  let built = pt.Gen.ip.Ip_module.build pt.Gen.assignment in
  let d = built.Ip_module.design in
  let clock_name = built.Ip_module.clock_port in
  { pt; d;
    clock =
      Option.map (fun n -> (Option.get (Design.find_port d n)).Design.port_wire) clock_name;
    inputs =
      Array.of_list
        (List.filter_map
           (fun (p : Design.port) ->
              if p.Design.port_dir = Types.Input && Some p.Design.port_name <> clock_name
              then Some (p.Design.port_name, Wire.width p.Design.port_wire)
              else None)
           (Design.ports d));
    salt = (seed * 1_000_003) + i }

(* the stimulus: a fixed hash of (seed and design, cycle, lane, port) *)
let hash ~salt ~cycle ~lane ~port =
  let h = (salt * 0x2545F491) lxor (cycle * 0x9E3779B1) lxor (lane * 0x85EBCA77) lxor port in
  let h = h lxor (h lsr 29) in
  let h = h * 0xBF58476D1CE4E5B in
  h lxor (h lsr 32)

let value dz ~cycle ~lane ~port width =
  Bits.of_int ~width (hash ~salt:dz.salt ~cycle ~lane ~port land ((1 lsl width) - 1))

type totals = {
  scalar : Stats.samples;  (* per scalar cycle: drive + clock *)
  designs : Stats.samples;  (* per design evaluation *)
  compile : Stats.samples;  (* scalar and batch create *)
  mutable scalar_cycles : int;
  mutable batch_time : float;
  mutable batch_lane_cycles : int;
  mutable evals : int;
  mutable events : int;
}

let totals () =
  { scalar = Stats.samples (); designs = Stats.samples (); compile = Stats.samples ();
    scalar_cycles = 0; batch_time = 0.0; batch_lane_cycles = 0; evals = 0; events = 0 }

let evaluate r tr tot dz ~cycles =
  let id = Trace.id tr in
  let design = id "design" and batch_drive = id "sim.batch_drive"
  and batch_cycle = id "sim.batch_cycle" and drive = id "sim.drive"
  and cycle = id "sim.cycle" and snapshot = id "sim.snapshot" and restore = id "sim.restore" in
  let timed samples f =
    let t0 = Trace.now () in
    let v = f () in
    Stats.add samples (Trace.now () -. t0);
    v
  in
  let d0 = Trace.now () in
  Trace.enter tr design;
  ignore
    (Report.attempt r (fun () ->
       let compile span f = Trace.span tr span (fun () -> timed tot.compile f) in
       let batch =
         compile (id "sim.batch_compile") (fun () ->
           Simulator.Batch.create ?clock:dz.clock ~lanes dz.d)
       in
       let b0 = Trace.now () in
       for c = 0 to cycles - 1 do
         Trace.enter tr batch_drive;
         for lane = 0 to lanes - 1 do
           Array.iteri
             (fun port (name, width) ->
                Simulator.Batch.set_input batch ~lane name (value dz ~cycle:c ~lane ~port width))
             dz.inputs
         done;
         Trace.exit tr;
         Trace.enter tr batch_cycle;
         Simulator.Batch.cycle batch;
         Trace.exit tr
       done;
       tot.batch_time <- tot.batch_time +. (Trace.now () -. b0);
       tot.batch_lane_cycles <- tot.batch_lane_cycles + (cycles * lanes);
       (* one scalar kernel; each lane after the first starts from the
          fresh kernel's snapshot, which is what a new kernel would be *)
       let sim = compile (id "sim.compile") (fun () -> Simulator.create ?clock:dz.clock dz.d) in
       let fresh = Trace.span tr snapshot (fun () -> Simulator.snapshot sim) in
       List.iteri
         (fun k lane ->
            if k > 0 then
              Trace.span tr restore (fun () -> Simulator.restore sim fresh);
            let e0 = Simulator.eval_count sim and v0 = Simulator.event_count sim in
            for c = 0 to cycles - 1 do
              let t0 = Trace.now () in
              Trace.enter tr drive;
              Simulator.set_inputs sim
                (Array.to_list
                   (Array.mapi
                      (fun port (name, width) -> (name, value dz ~cycle:c ~lane ~port width))
                      dz.inputs));
              Trace.exit tr;
              Trace.enter tr cycle;
              Simulator.cycle sim;
              Trace.exit tr;
              Stats.add tot.scalar (Trace.now () -. t0)
            done;
            tot.scalar_cycles <- tot.scalar_cycles + cycles;
            tot.evals <- tot.evals + Simulator.eval_count sim - e0;
            tot.events <- tot.events + Simulator.event_count sim - v0;
            let same =
              Trace.span tr snapshot (fun () ->
                String.equal (Simulator.Batch.snapshot_lane batch ~lane) (Simulator.snapshot sim))
            in
            Report.check r same (fun () ->
              Printf.sprintf "%s lane %d: batch snapshot differs from scalar"
                dz.pt.Gen.descriptor lane))
         scalar_lanes)
     : unit option);
  Trace.exit tr;
  Stats.add tot.designs (Trace.now () -. d0)

(* scalar cycles per design per second of run length, from the measured
   rate on a 2-core x86-64 host; a run of 25 s or more makes 5 passes
   over the 24 designs, each pass a window for the end-to-end metrics *)
let cycles_per_second = 130.0
let passes ~seconds = max 1 (min 5 (int_of_float (seconds /. 5.0)))

(* the designs, the cycles per design and pass, and a digest of the
   designs and of each one's first stimulus words *)
let inputs ~seed ~seconds =
  let cycles =
    max 4 (int_of_float (cycles_per_second *. seconds /. float_of_int (passes ~seconds)))
  in
  let stimulus i =
    let salt = (seed * 1_000_003) + i in
    String.concat " "
      (List.init 4 (fun cycle -> string_of_int (hash ~salt ~cycle ~lane:0 ~port:0)))
  in
  ( points, cycles,
    Gen.digest
      (string_of_int cycles
       :: List.mapi (fun i p -> p.Gen.descriptor ^ " " ^ stimulus i) points) )

let run r (o : Measure.opts) =
  let pts, cycles, digest = inputs ~seed:o.Measure.seed ~seconds:o.Measure.seconds in
  r.Report.digest <- digest;
  let designs =
    Measure.setups r o (fun () ->
      List.mapi (fun i pt -> elaborate ~seed:o.Measure.seed i pt) pts)
  in
  match o.Measure.trace with
  | None ->
    let runs =
      List.init (passes ~seconds:o.Measure.seconds) (fun _ ->
        let tot = totals () in
        List.iter (fun dz -> evaluate r Trace.off tot dz ~cycles) designs;
        tot)
    in
    (* an operation is one design's evaluate-and-validate step, so both
       compile and simulation speed show end to end *)
    Measure.e2e r
      ~windows:(List.map (fun t -> t.designs) runs)
      ~rates:(List.map (fun t -> float_of_int (Stats.length t.designs) /. Stats.total t.designs) runs);
    Report.extra r "sim.cycles_per_s"
      (Stats.median
         (List.map (fun t -> float_of_int t.scalar_cycles /. Stats.total t.scalar) runs))
      "1/s";
    Report.extra r "sim.compile_ms_p50"
      (Measure.ms (Stats.median (List.map (fun t -> Stats.p50 t.compile) runs))) "ms";
    Report.extra r "sim.lane_cycles_per_s"
      (Stats.median
         (List.map (fun t -> float_of_int t.batch_lane_cycles /. t.batch_time) runs))
      "1/s";
    (* the same every pass *)
    let first = List.hd runs in
    Report.extra ~exact:true r "sim.evals_per_cycle"
      (float_of_int first.evals /. float_of_int first.scalar_cycles) "count";
    Report.extra ~exact:true r "sim.events_per_cycle"
      (float_of_int first.events /. float_of_int first.scalar_cycles) "count"
  | Some tr ->
    let cycles = max 1 (cycles * passes ~seconds:o.Measure.seconds / 4) in
    let untraced = totals () in
    Measure.runtime r ~ops:(List.length designs) (fun () ->
      List.iter (fun dz -> evaluate r Trace.off untraced dz ~cycles) designs);
    let tot = totals () in
    List.iteri
      (fun i dz ->
         Trace.set_request tr i;
         evaluate r tr tot dz ~cycles)
      designs;
    let us name = Measure.us (Trace.self_p50 tr name) in
    Report.metric r "sim.compile_ms" (Measure.ms (Trace.self_p50 tr "sim.compile")) "ms";
    Report.metric r "sim.batch_compile_ms"
      (Measure.ms (Trace.self_p50 tr "sim.batch_compile")) "ms";
    Report.metric r "sim.cycle_us" (us "sim.cycle") "us";
    Report.metric r "sim.batch_cycle_us" (us "sim.batch_cycle") "us";
    Report.metric r "sim.batch_drive_us" (us "sim.batch_drive") "us";
    Report.metric r "sim.evals_per_cycle"
      (float_of_int tot.evals /. float_of_int tot.scalar_cycles) "count";
    Report.metric r "sim.events_per_cycle"
      (float_of_int tot.events /. float_of_int tot.scalar_cycles) "count";
    Measure.trace_quality r tr ~root:"design" ~traced_p50:(Stats.p50 tot.designs)
      ~untraced_p50:(Stats.p50 untraced.designs)
