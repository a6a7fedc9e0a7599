module Bits = Jhdl_logic.Bits
module Bit = Jhdl_logic.Bit
module Wire = Jhdl_circuit.Wire
module Design = Jhdl_circuit.Design
module Prim = Jhdl_circuit.Prim
module Levelize = Jhdl_circuit.Levelize
module Simulator = Jhdl_sim.Simulator
module Batch = Jhdl_sim.Simulator.Batch
module Bdd = Jhdl_analysis.Bdd
module Cone = Jhdl_analysis.Cone
open Jhdl_circuit.Types

type mismatch = {
  inputs : (string * Bits.t) list;
  cycle : int;
  port : string;
  value_a : Bits.t;
  value_b : Bits.t;
}

type result =
  | Proved of { outputs : int; bdd_nodes : int; sequential : bool }
  | Equivalent of { vectors : int; exhaustive : bool }
  | Not_equivalent of mismatch
  | Interface_mismatch of string

type strategy = [ `Auto | `Sweep ]

(* ------------------------------------------------------------------ *)
(* Metrics: instruments are minted once per registry (duplicate names
   raise on a live registry) and cached by physical equality.          *)

module Metrics = Jhdl_metrics.Metrics

type instruments = {
  ins_registry : Metrics.t;
  ins_proofs : Metrics.counter;
  ins_fallbacks : Metrics.counter;
  ins_refutations : Metrics.counter;
  ins_sweeps : Metrics.counter;
  ins_nodes : Metrics.histogram;
}

let ins_cache : instruments option ref = ref None

let instruments registry =
  match !ins_cache with
  | Some i when i.ins_registry == registry -> i
  | _ ->
    let i =
      { ins_registry = registry;
        ins_proofs = Metrics.counter registry "equiv_proofs_total";
        ins_fallbacks = Metrics.counter registry "equiv_proof_fallbacks_total";
        ins_refutations = Metrics.counter registry "equiv_refutations_total";
        ins_sweeps = Metrics.counter registry "equiv_sweep_vectors_total";
        ins_nodes = Metrics.histogram registry "equiv_proof_bdd_nodes" }
    in
    ins_cache := Some i;
    i

(* ------------------------------------------------------------------ *)

let interface design =
  List.map
    (fun p ->
       (p.Design.port_name, p.Design.port_dir, Wire.width p.Design.port_wire))
    (Design.ports design)
  |> List.sort compare

type proof_outcome =
  | Proof_ok of { outputs : int; bdd_nodes : int; sequential : bool }
  | Proof_refuted of (string * Bits.t) list
  | Proof_unknown

(* a behavioural black box is opaque to the proof and cannot be
   lane-packed by the sweep *)
let has_black_box d =
  List.exists
    (fun s ->
       match s.Levelize.prim with
       | Prim.Black_box _ -> true
       | _ -> false)
    (Levelize.sources_of_root (Design.root d))

(* The BDD proof. Both designs are analysed in Defined mode on one
   shared manager/allocator, so input-port leaves coincide and pair
   equality is physical. A Defined-mode pair describes behaviour under
   every defined input vector — exactly what an exhaustive sweep
   samples — and because the gate rules mirror the batch kernel's
   plane rules, "both planes equal" means "bit-for-bit equal outputs,
   including X-ness, on every defined stimulus".

   Sequential designs use matched FF frontiers: the FFs of both
   designs are partitioned by (pin configuration, INIT), each class
   gets one shared state leaf, and the partition is refined until each
   class's members have physically equal next-state cones. Equal INITs
   plus equal next-state functions give, by induction over clock
   edges, equal states forever — so physically equal output cones over
   the class leaves prove equivalence without unrolling. A mismatch
   here is NOT a refutation (the distinguishing state may be
   unreachable); only the combinational path extracts and confirms
   counterexamples. *)
let prove ~node_budget ~clock ~has_clock ~inputs ~outputs a b =
  let scope_ok d =
    List.for_all (fun n -> n.extra_drivers = []) (Design.all_nets d)
    && not (has_black_box d)
  in
  if not (scope_ok a && scope_ok b) then Proof_unknown
  else begin
    let seq_sources d =
      List.filter
        (fun s -> Prim.is_sequential s.Levelize.prim)
        (Levelize.sources_of_root (Design.root d))
    in
    let seq_a = seq_sources a and seq_b = seq_sources b in
    let clock_net d =
      match Design.find_port d clock with
      | Some p when Array.length p.Design.port_wire.nets = 1 ->
        Some p.Design.port_wire.nets.(0).net_id
      | _ -> None
    in
    let ff_ok d (s : Levelize.source) =
      match s.Levelize.prim with
      | Prim.Ff { init; _ } ->
        Bit.is_defined init
        && (match
              (List.assoc_opt "C" s.Levelize.in_ports, clock_net d)
            with
            | Some nets, Some cn when Array.length nets = 1 ->
              nets.(0).net_id = cn
            | _ -> false)
      | _ -> false  (* SRL/RAM frontiers: fall back to the sweep *)
    in
    let sequential = seq_a <> [] || seq_b <> [] in
    if
      sequential
      && not
           (has_clock
            && List.for_all (ff_ok a) seq_a
            && List.for_all (ff_ok b) seq_b)
    then Proof_unknown
    else begin
      let man = Bdd.create ~budget:node_budget () in
      let al = Cone.allocator man in
      let compare_outputs ca cb =
        let pa = Cone.output_pairs ca and pb = Cone.output_pairs cb in
        let diffs = ref [] in
        let bits = ref 0 in
        List.iter
          (fun port ->
             match (List.assoc_opt port pa, List.assoc_opt port pb) with
             | Some xs, Some ys when Array.length xs = Array.length ys ->
               Array.iteri
                 (fun i x ->
                    incr bits;
                    let y = ys.(i) in
                    if
                      not
                        (Bdd.equal x.Cone.p0 y.Cone.p0
                         && Bdd.equal x.Cone.p1 y.Cone.p1)
                    then diffs := (x, y) :: !diffs)
                 xs
             | _ -> diffs := (Cone.const_pair Bit.X, Cone.const_pair Bit.Z) :: !diffs)
          outputs;
        (!bits, List.rev !diffs)
      in
      try
        if not sequential then begin
          let ca = Cone.analyze ~mode:Cone.Defined ~alloc:al a in
          let cb = Cone.analyze ~mode:Cone.Defined ~alloc:al b in
          if Cone.opaque_leaves ca > 0 || Cone.opaque_leaves cb > 0 then
            Proof_unknown
          else begin
            let bits, diffs = compare_outputs ca cb in
            match diffs with
            | [] ->
              Proof_ok
                { outputs = bits;
                  bdd_nodes = Bdd.nodes_created man;
                  sequential = false }
            | (x, y) :: _ ->
              let d =
                Bdd.or_ man
                  (Bdd.xor man x.Cone.p0 y.Cone.p0)
                  (Bdd.xor man x.Cone.p1 y.Cone.p1)
              in
              (match Bdd.any_sat d with
               | None -> Proof_unknown
               | Some assignment ->
                 (* defined-mode leaves: variable 2i is the value of
                    leaf i; unassigned variables are don't-cares and
                    default to zero *)
                 let leaves = Cone.leaves al in
                 let values =
                   List.map (fun (nm, w) -> (nm, Array.make w false)) inputs
                 in
                 List.iter
                   (fun (v, bv) ->
                      if v land 1 = 0 then
                        match leaves.(v / 2) with
                        | Cone.Input { port; bit } ->
                          (match List.assoc_opt port values with
                           | Some arr when bit < Array.length arr ->
                             arr.(bit) <- bv
                           | _ -> ())
                        | _ -> ())
                   assignment;
                 Proof_refuted
                   (List.map
                      (fun (nm, arr) ->
                         ( nm,
                           Bits.of_string
                             (String.init (Array.length arr) (fun i ->
                                  if arr.(Array.length arr - 1 - i) then '1'
                                  else '0')) ))
                      values))
          end
        end
        else begin
          (* matched FF frontiers: partition refinement to a fixpoint *)
          let ffs =
            List.map (fun s -> (a, s)) seq_a @ List.map (fun s -> (b, s)) seq_b
          in
          let config_key (s : Levelize.source) =
            match s.Levelize.prim with
            | Prim.Ff { clock_enable; async_clear; sync_reset; init } ->
              Printf.sprintf "%b%b%b%d" clock_enable async_clear sync_reset
                (Bit.to_code init)
            | _ -> assert false
          in
          let class_of = Hashtbl.create 32 in
          let n_classes = ref 0 in
          let assign key_of =
            Hashtbl.reset class_of;
            let ids = Hashtbl.create 32 in
            n_classes := 0;
            List.iter
              (fun (_, s) ->
                 let key = key_of s in
                 let id =
                   match Hashtbl.find_opt ids key with
                   | Some id -> id
                   | None ->
                     let id = !n_classes in
                     incr n_classes;
                     Hashtbl.add ids key id;
                     id
                 in
                 Hashtbl.replace class_of s.Levelize.inst.cell_id id)
              ffs
          in
          assign config_key;
          let round = ref 0 in
          let analyzed = ref None in
          let rec refine () =
            incr round;
            let state (s : Levelize.source) _cell =
              Cone.State_leaf
                (Printf.sprintf "r%d:c%d" !round
                   (Hashtbl.find class_of s.Levelize.inst.cell_id))
            in
            let ca = Cone.analyze ~mode:Cone.Defined ~alloc:al ~state a in
            let cb = Cone.analyze ~mode:Cone.Defined ~alloc:al ~state b in
            if Cone.opaque_leaves ca > 0 || Cone.opaque_leaves cb > 0 then
              false
            else begin
              analyzed := Some (ca, cb);
              let signature (d, (s : Levelize.source)) =
                let c = if d == a then ca else cb in
                let next = (Cone.next_state c s).(0) in
                Printf.sprintf "%d:%d.%d"
                  (Hashtbl.find class_of s.Levelize.inst.cell_id)
                  (Bdd.id next.Cone.p0) (Bdd.id next.Cone.p1)
              in
              let sigs =
                List.map (fun ff -> (snd ff, signature ff)) ffs
              in
              let before = !n_classes in
              assign (fun s -> List.assq s sigs);
              if !n_classes = before then true else refine ()
            end
          in
          if not (refine ()) then Proof_unknown
          else
            match !analyzed with
            | None -> Proof_unknown
            | Some (ca, cb) ->
              let bits, diffs = compare_outputs ca cb in
              if diffs = [] then
                Proof_ok
                  { outputs = bits;
                    bdd_nodes = Bdd.nodes_created man;
                    sequential = true }
              else Proof_unknown
        end
      with Bdd.Budget_exceeded -> Proof_unknown
    end
  end

let check ?(max_exhaustive_bits = 14) ?(random_vectors = 500)
    ?cycles_per_vector ?(clock = "clk") ?(strategy = (`Auto : strategy))
    ?(node_budget = 200_000) ?metrics a b =
  let ia = interface a and ib = interface b in
  if ia <> ib then
    Interface_mismatch
      (Printf.sprintf "A has ports {%s}, B has {%s}"
         (String.concat ", " (List.map (fun (n, _, w) -> Printf.sprintf "%s<%d>" n w) ia))
         (String.concat ", " (List.map (fun (n, _, w) -> Printf.sprintf "%s<%d>" n w) ib)))
  else begin
    let ins = Option.map instruments metrics in
    let has_clock = List.exists (fun (n, d, _) -> n = clock && d = Input) ia in
    let cycles =
      match cycles_per_vector with
      | Some n -> n
      | None -> if has_clock then 1 else 0
    in
    let inputs =
      List.filter (fun (n, d, _) -> d = Input && n <> clock) ia
      |> List.map (fun (n, _, w) -> (n, w))
    in
    let outputs =
      List.filter (fun (_, d, _) -> d = Output) ia |> List.map (fun (n, _, _) -> n)
    in
    let total_bits = List.fold_left (fun acc (_, w) -> acc + w) 0 inputs in
    let clock_wire design =
      if has_clock then
        Option.map (fun p -> p.Design.port_wire) (Design.find_port design clock)
      else None
    in
    (* split an integer seed into per-port values, LSB first *)
    let vector_of_int value =
      let rec split acc value = function
        | [] -> List.rev acc
        | (name, width) :: rest ->
          let mask = (1 lsl width) - 1 in
          split ((name, Bits.of_int ~width (value land mask)) :: acc)
            (value lsr width) rest
      in
      split [] value inputs
    in
    let exhaustive = total_bits <= max_exhaustive_bits in
    let vectors =
      if exhaustive then List.init (1 lsl total_bits) vector_of_int
      else begin
        let state = ref 0x2545F491 in
        List.init random_vectors (fun _ ->
          state := ((!state * 1103515245) + 12345) land 0x3FFFFFFFFFFF;
          vector_of_int (!state lsr 13))
      end
    in
    (* up to 63 vectors share every settle; one when a black box
       rules out lane packing *)
    let sweep () =
      let v_arr = Array.of_list vectors in
      let n = Array.length v_arr in
      if n = 0 then Equivalent { vectors = 0; exhaustive }
      else begin
        let lanes =
          if has_black_box a || has_black_box b then 1
          else min n Batch.max_lanes
        in
        let ba = Batch.create ?clock:(clock_wire a) ~lanes a in
        let bb = Batch.create ?clock:(clock_wire b) ~lanes b in
        let result = ref None in
        let idx = ref 0 in
        while !result = None && !idx < n do
          let chunk = min lanes (n - !idx) in
          Batch.reset ba;
          Batch.reset bb;
          for l = 0 to chunk - 1 do
            Batch.set_inputs ba ~lane:l v_arr.(!idx + l);
            Batch.set_inputs bb ~lane:l v_arr.(!idx + l)
          done;
          let compare_cycle cycle =
            let rec lane l =
              if l >= chunk then None
              else
                match
                  List.find_map
                    (fun port ->
                       let value_a = Batch.get_port ba ~lane:l port in
                       let value_b = Batch.get_port bb ~lane:l port in
                       if Bits.equal value_a value_b then None
                       else
                         Some
                           { inputs = v_arr.(!idx + l);
                             cycle;
                             port;
                             value_a;
                             value_b })
                    outputs
                with
                | Some m -> Some m
                | None -> lane (l + 1)
            in
            lane 0
          in
          let rec step cycle =
            match compare_cycle cycle with
            | Some m -> result := Some m
            | None ->
              if cycle < cycles then begin
                Batch.cycle ba;
                Batch.cycle bb;
                step (cycle + 1)
              end
          in
          step 0;
          Option.iter (fun i -> Metrics.add i.ins_sweeps chunk) ins;
          idx := !idx + chunk
        done;
        match !result with
        | Some m -> Not_equivalent m
        | None -> Equivalent { vectors = n; exhaustive }
      end
    in
    let confirm stimulus =
      (* replay a BDD counterexample on the real simulators before
         claiming anything — the proof layer never gets the last word
         on a refutation *)
      let sim_a = Simulator.create ?clock:(clock_wire a) a in
      let sim_b = Simulator.create ?clock:(clock_wire b) b in
      List.iter
        (fun (port, value) ->
           Simulator.set_input sim_a port value;
           Simulator.set_input sim_b port value)
        stimulus;
      List.find_map
        (fun port ->
           let value_a = Simulator.get_port sim_a port in
           let value_b = Simulator.get_port sim_b port in
           if Bits.equal value_a value_b then None
           else Some { inputs = stimulus; cycle = 0; port; value_a; value_b })
        outputs
    in
    match strategy with
    | `Sweep -> sweep ()
    | `Auto ->
      (match
         prove ~node_budget ~clock ~has_clock ~inputs ~outputs a b
       with
       | Proof_ok { outputs; bdd_nodes; sequential } ->
         Option.iter
           (fun i ->
              Metrics.incr i.ins_proofs;
              Metrics.observe i.ins_nodes bdd_nodes)
           ins;
         Proved { outputs; bdd_nodes; sequential }
       | Proof_refuted stimulus ->
         (match confirm stimulus with
          | Some m ->
            Option.iter (fun i -> Metrics.incr i.ins_refutations) ins;
            Not_equivalent m
          | None ->
            Option.iter (fun i -> Metrics.incr i.ins_fallbacks) ins;
            sweep ())
       | Proof_unknown ->
         Option.iter (fun i -> Metrics.incr i.ins_fallbacks) ins;
         sweep ())
  end

let pp_result fmt = function
  | Proved { outputs; bdd_nodes; sequential } ->
    Format.fprintf fmt "PROVED equivalent (%s, %d output bit(s), %d BDD nodes)"
      (if sequential then "sequential induction" else "combinational")
      outputs bdd_nodes
  | Equivalent { vectors; exhaustive } ->
    Format.fprintf fmt "equivalent over %d %s vector(s)" vectors
      (if exhaustive then "exhaustive" else "random")
  | Not_equivalent m ->
    Format.fprintf fmt
      "NOT equivalent: at cycle %d, port %s: A=%s B=%s under {%s}" m.cycle
      m.port (Bits.to_string m.value_a) (Bits.to_string m.value_b)
      (String.concat ", "
         (List.map
            (fun (n, v) -> Printf.sprintf "%s=%s" n (Bits.to_string v))
            m.inputs))
  | Interface_mismatch reason ->
    Format.fprintf fmt "interface mismatch: %s" reason
