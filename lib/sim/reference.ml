(* The original interpreter-style evaluator, retained verbatim (minus the
   mem_read and hook-dispatch fixes shared with the kernel) as the golden
   model for differential testing of the compiled dense kernel in
   [Simulator]. Hot-path performance is a non-goal here; faithfulness to
   the documented 4-value semantics is the only requirement. *)

open Jhdl_circuit.Types
module Bit = Jhdl_logic.Bit
module Bits = Jhdl_logic.Bits
module Lut_init = Jhdl_logic.Lut_init
module Prim = Jhdl_circuit.Prim
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Levelize = Jhdl_circuit.Levelize

exception Combinational_cycle of string list

module Int_set = Set.Make (Int)

type node_state =
  | No_state
  | Ff_state of { value : Bit.t ref; init : Bit.t }
  | Mem_state of { cells : Bit.t array; init : Bit.t array }
  | Bb_state of Prim.behavior

type node = {
  inst : cell;
  prim : Prim.t;
  in_ports : (string * net array) list;
  out_ports : (string * net array) list;
  state : node_state;
}

type watch_entry = {
  watch_label : string;
  watch_wire : wire;
  mutable samples : (int * Bits.t) list; (* newest first *)
}

type t = {
  sim_design : Design.t;
  clock_nets : (int, unit) Hashtbl.t option;
  values : (int, Bit.t) Hashtbl.t;
  order : node array; (* topological evaluation order *)
  seq_nodes : (node * int) list; (* with their rank in [order] *)
  consumers : (int, int list) Hashtbl.t;
      (* net id -> ranks of nodes reading it combinationally *)
  mutable pending : Int_set.t; (* dirty node ranks, drained in rank order *)
  mutable cycles : int;
  mutable watches : watch_entry list; (* reverse watch order *)
  mutable cycle_hooks : (int -> unit) list; (* registration order *)
  depth : int;
  (* lifetime work counters, mirroring the kernel's *)
  mutable stat_evals : int;
  mutable stat_changes : int;
}

let read_net sim n =
  Option.value (Hashtbl.find_opt sim.values n.net_id) ~default:Bit.X

(* every net write is change-tracked: a changed value marks the net's
   combinational consumers dirty, which is what incremental propagation
   drains *)
let write_net sim n v =
  let before = Option.value (Hashtbl.find_opt sim.values n.net_id) ~default:Bit.X in
  if not (Bit.equal before v) then begin
    Hashtbl.replace sim.values n.net_id v;
    sim.stat_changes <- sim.stat_changes + 1;
    match Hashtbl.find_opt sim.consumers n.net_id with
    | None -> ()
    | Some ranks ->
      sim.pending <-
        List.fold_left (fun acc r -> Int_set.add r acc) sim.pending ranks
  end

let read_nets sim nets = Bits.init (Array.length nets) (fun i -> read_net sim nets.(i))

let port_nets ports name =
  match List.assoc_opt name ports with
  | Some nets -> nets
  | None -> invalid_arg (Printf.sprintf "Simulator: no port %s" name)

let read_in1 sim node name =
  let nets = port_nets node.in_ports name in
  read_net sim nets.(0)

let write_out1 sim node name v =
  let nets = port_nets node.out_ports name in
  write_net sim nets.(0) v

(* Reading a 16-entry memory with possibly-undefined address bits: every
   cell reachable under the unknown-bit mask must agree on a defined
   value, matching Lut_init.eval's pessimism. The reachable cells are
   visited by the subset walk [sub' = (sub - mask) land mask] — a direct
   scan, no 2^k address-list allocation. *)
let mem_read cells addr_bits =
  let mask = ref 0 in
  let base = ref 0 in
  Array.iteri
    (fun i b ->
       match Bit.to_bool b with
       | Some true -> base := !base lor (1 lsl i)
       | Some false -> ()
       | None -> mask := !mask lor (1 lsl i))
    addr_bits;
  let base = !base and mask = !mask in
  if mask = 0 then cells.(base)
  else
    let v = cells.(base) in
    if not (Bit.is_defined v) then Bit.X
    else
      let rec agree sub =
        if not (Bit.equal cells.(base lor sub) v) then Bit.X
        else if sub = mask then v
        else agree ((sub - mask) land mask)
      in
      agree ((0 - mask) land mask)

let addr_of sim node =
  Array.init 4 (fun i -> read_in1 sim node (Printf.sprintf "A%d" i))

let bb_read sim node port =
  match List.assoc_opt port node.in_ports with
  | Some nets -> read_nets sim nets
  | None -> read_nets sim (port_nets node.out_ports port)

(* Combinational evaluation of one node from current net values. *)
let eval_node sim node =
  match node.prim, node.state with
  | Prim.Lut init, _ ->
    let k = Lut_init.inputs init in
    let addr =
      Array.init k (fun i -> read_in1 sim node (Printf.sprintf "I%d" i))
    in
    write_out1 sim node "O" (Lut_init.eval init addr)
  | Prim.Ff { async_clear; _ }, Ff_state { value; _ } ->
    let q =
      if async_clear then
        Bit.mux ~sel:(read_in1 sim node "CLR") !value Bit.Zero
      else !value
    in
    write_out1 sim node "Q" q
  | Prim.Muxcy, _ ->
    let s = read_in1 sim node "S"
    and di = read_in1 sim node "DI"
    and ci = read_in1 sim node "CI" in
    write_out1 sim node "O" (Bit.mux ~sel:s di ci)
  | Prim.Xorcy, _ ->
    write_out1 sim node "O" (Bit.xor (read_in1 sim node "LI") (read_in1 sim node "CI"))
  | Prim.Mult_and, _ ->
    write_out1 sim node "LO" (Bit.and_ (read_in1 sim node "I0") (read_in1 sim node "I1"))
  | Prim.Srl16 _, Mem_state { cells; _ } ->
    write_out1 sim node "Q" (mem_read cells (addr_of sim node))
  | Prim.Ram16x1 _, Mem_state { cells; _ } ->
    write_out1 sim node "O" (mem_read cells (addr_of sim node))
  | Prim.Buf, _ -> write_out1 sim node "O" (read_in1 sim node "I")
  | Prim.Inv, _ -> write_out1 sim node "O" (Bit.not_ (read_in1 sim node "I"))
  | Prim.Gnd, _ -> write_out1 sim node "G" Bit.Zero
  | Prim.Vcc, _ -> write_out1 sim node "P" Bit.One
  | Prim.Black_box _, Bb_state behavior ->
    let outs = behavior.Prim.comb ~read:(bb_read sim node) in
    List.iter
      (fun (port, bits) ->
         let nets = port_nets node.out_ports port in
         if Array.length nets <> Bits.width bits then
           invalid_arg
             (Printf.sprintf "Simulator: black box %s wrote %d bits to %d-bit port %s"
                (Cell.path node.inst) (Bits.width bits) (Array.length nets) port);
         Array.iteri (fun i n -> write_net sim n (Bits.get bits i)) nets)
      outs
  | (Prim.Ff _ | Prim.Srl16 _ | Prim.Ram16x1 _ | Prim.Black_box _), _ ->
    (* state construction below guarantees matching node_state *)
    assert false

(* Ports whose value combinationally affects the node's outputs; the
   shared levelizer only draws edges through these. *)
let node_comb_inputs node =
  match node.prim with
  | Prim.Black_box _ -> List.map fst node.in_ports
  | p -> Levelize.comb_input_ports p

let make_node inst =
  match Cell.prim_of inst with
  | None -> assert false
  | Some prim ->
    let ins = ref [] and outs = ref [] in
    List.iter
      (fun b ->
         match b.dir with
         | Input -> ins := (b.formal, b.actual.nets) :: !ins
         | Output -> outs := (b.formal, b.actual.nets) :: !outs)
      inst.port_bindings;
    let state =
      match prim with
      | Prim.Ff { init; _ } -> Ff_state { value = ref init; init }
      | Prim.Srl16 { init } | Prim.Ram16x1 { init } ->
        let init_bits =
          Array.init 16 (fun i -> Bit.of_bool ((init lsr i) land 1 = 1))
        in
        Mem_state { cells = Array.copy init_bits; init = init_bits }
      | Prim.Black_box { make_behavior; _ } -> Bb_state (make_behavior ())
      | Prim.Lut _ | Prim.Muxcy | Prim.Xorcy | Prim.Mult_and | Prim.Buf
      | Prim.Inv | Prim.Gnd | Prim.Vcc -> No_state
    in
    { inst; prim; in_ports = !ins; out_ports = !outs; state }

(* Shared Kahn levelization over combinational edges: project nodes to
   the bare [Levelize.source] view, walk, then map the resulting order
   back to the stateful nodes. *)
let levelize nodes =
  let by_id = Hashtbl.create 256 in
  List.iter (fun node -> Hashtbl.replace by_id node.inst.cell_id node) nodes;
  let sources =
    List.map
      (fun node ->
         { Levelize.inst = node.inst;
           prim = node.prim;
           in_ports = node.in_ports;
           out_ports = node.out_ports })
      nodes
  in
  let order, _, max_level =
    try Levelize.levelize sources
    with Levelize.Cycle cells ->
      raise (Combinational_cycle (List.map Cell.path cells))
  in
  Array.map (fun s -> Hashtbl.find by_id s.Levelize.inst.cell_id) order, max_level

(* full pass: evaluate everything once in topological order (used at
   create and reset); leaves no pending work *)
let propagate_full sim =
  Array.iter (eval_node sim) sim.order;
  sim.stat_evals <- sim.stat_evals + Array.length sim.order;
  sim.pending <- Int_set.empty

(* incremental settle: drain dirty nodes in rank order; evaluating a node
   re-marks downstream consumers only when an output actually changed *)
let propagate sim =
  let rec drain () =
    match Int_set.min_elt_opt sim.pending with
    | None -> ()
    | Some rank ->
      sim.pending <- Int_set.remove rank sim.pending;
      sim.stat_evals <- sim.stat_evals + 1;
      eval_node sim sim.order.(rank);
      drain ()
  in
  drain ()

let create ?clock design =
  (* Combinational loops are excluded from the design-rule pre-check so
     levelization reports them through the canonical [Combinational_cycle]
     exception, carrying the same cell list as [Design.validate]. *)
  (match
     List.filter
       (function Design.Combinational_loop _ -> false | _ -> true)
       (Design.errors design)
   with
   | [] -> ()
   | violation :: _ ->
     invalid_arg
       (Format.asprintf "Reference.create: design-rule error: %a"
          Design.pp_violation violation));
  let clock_nets =
    match clock with
    | None -> None
    | Some w ->
      if Wire.width w <> 1 then
        invalid_arg "Reference.create: clock wire must be 1 bit wide";
      let table = Hashtbl.create 4 in
      Array.iter (fun n -> Hashtbl.replace table n.net_id ()) (Wire.nets w);
      Some table
  in
  let nodes = List.map make_node (Design.all_prims design) in
  let order, depth = levelize nodes in
  let rank_of = Hashtbl.create 256 in
  Array.iteri (fun rank node -> Hashtbl.replace rank_of node.inst.cell_id rank) order;
  let seq_nodes =
    List.filter_map
      (fun n ->
         match n.prim with
         | Prim.Ff _ | Prim.Srl16 _ | Prim.Ram16x1 _ | Prim.Black_box _ ->
           Some (n, Hashtbl.find rank_of n.inst.cell_id)
         | Prim.Lut _ | Prim.Muxcy | Prim.Xorcy | Prim.Mult_and | Prim.Buf
         | Prim.Inv | Prim.Gnd | Prim.Vcc -> None)
      nodes
  in
  let consumers = Hashtbl.create 512 in
  Array.iteri
    (fun rank node ->
       List.iter
         (fun port ->
            match List.assoc_opt port node.in_ports with
            | None -> ()
            | Some nets ->
              Array.iter
                (fun n ->
                   Hashtbl.replace consumers n.net_id
                     (rank
                      :: Option.value (Hashtbl.find_opt consumers n.net_id)
                        ~default:[]))
                nets)
         (node_comb_inputs node))
    order;
  let sim =
    { sim_design = design;
      clock_nets;
      values = Hashtbl.create 1024;
      order;
      seq_nodes;
      consumers;
      pending = Int_set.empty;
      cycles = 0;
      watches = [];
      cycle_hooks = [];
      depth;
      stat_evals = 0;
      stat_changes = 0 }
  in
  propagate_full sim;
  sim

let design sim = sim.sim_design

let set_input_wire sim w bits =
  if Bits.width bits <> Wire.width w then
    invalid_arg
      (Printf.sprintf "Simulator.set_input_wire: %d bits for %d-bit wire %s"
         (Bits.width bits) (Wire.width w) (Wire.name w));
  Array.iteri
    (fun i n ->
       (match n.driver with
        | Some term ->
          invalid_arg
            (Printf.sprintf "Simulator.set_input_wire: net %s[%d] is driven by %s"
               (Wire.name w) i (Cell.path term.term_cell))
        | None -> ());
       write_net sim n (Bits.get bits i))
    (Wire.nets w);
  propagate sim

let set_input sim port bits =
  match Design.find_port sim.sim_design port with
  | None -> invalid_arg (Printf.sprintf "Simulator.set_input: no port %s" port)
  | Some p ->
    (match p.Design.port_dir with
     | Input -> set_input_wire sim p.Design.port_wire bits
     | Output ->
       invalid_arg (Printf.sprintf "Simulator.set_input: %s is an output" port))

let get sim w = read_nets sim (Wire.nets w)

let get_port sim port =
  match Design.find_port sim.sim_design port with
  | None -> invalid_arg (Printf.sprintf "Simulator.get_port: no port %s" port)
  | Some p -> get sim p.Design.port_wire

let in_clock_domain sim node =
  match sim.clock_nets with
  | None -> true
  | Some table ->
    (match Prim.clock_port node.prim with
     | None -> true (* black boxes follow the global cycle *)
     | Some port ->
       (match List.assoc_opt port node.in_ports with
        | None -> false
        | Some nets ->
          Array.exists (fun n -> Hashtbl.mem table n.net_id) nets))

(* Next-state of one sequential node from pre-edge values, as a commit
   thunk so that all nodes sample the same pre-edge state. *)
let clock_compute sim node =
  match node.prim, node.state with
  | Prim.Ff { clock_enable; async_clear; sync_reset; _ }, Ff_state st ->
    let ce = if clock_enable then read_in1 sim node "CE" else Bit.One in
    let clr = if async_clear then read_in1 sim node "CLR" else Bit.Zero in
    let r = if sync_reset then read_in1 sim node "R" else Bit.Zero in
    let d = read_in1 sim node "D" in
    let next =
      if Bit.equal clr Bit.One then Bit.Zero
      else
        let loaded = Bit.mux ~sel:r d Bit.Zero in
        let held = Bit.mux ~sel:ce !(st.value) loaded in
        if Bit.equal clr Bit.Zero then held
        else (* CLR unknown: zero and the clocked value must agree *)
          Bit.mux ~sel:clr held Bit.Zero
    in
    Some
      (fun () ->
         let changed = not (Bit.equal !(st.value) next) in
         st.value := next;
         changed)
  | Prim.Srl16 _, Mem_state { cells; _ } ->
    let ce = read_in1 sim node "CE" in
    let d = read_in1 sim node "D" in
    (match Bit.to_bool ce with
     | Some false -> None
     | Some true ->
       let next = Array.init 16 (fun i -> if i = 0 then d else cells.(i - 1)) in
       Some
         (fun () ->
            let changed = not (Array.for_all2 Bit.equal next cells) in
            Array.blit next 0 cells 0 16;
            changed)
     | None ->
       let next =
         Array.init 16 (fun i ->
           let shifted = if i = 0 then d else cells.(i - 1) in
           if Bit.equal shifted cells.(i) && Bit.is_defined shifted then shifted
           else Bit.X)
       in
       Some
         (fun () ->
            let changed = not (Array.for_all2 Bit.equal next cells) in
            Array.blit next 0 cells 0 16;
            changed))
  | Prim.Ram16x1 _, Mem_state { cells; _ } ->
    let we = read_in1 sim node "WE" in
    let d = read_in1 sim node "D" in
    let addr = addr_of sim node in
    (match Bit.to_bool we with
     | Some false -> None
     | Some true ->
       let defined = Array.for_all Bit.is_defined addr in
       if defined then begin
         let index = ref 0 in
         Array.iteri
           (fun i b -> if Bit.equal b Bit.One then index := !index lor (1 lsl i))
           addr;
         let i = !index in
         Some
           (fun () ->
              let changed = not (Bit.equal cells.(i) d) in
              cells.(i) <- d;
              changed)
       end
       else
         Some
           (fun () ->
              let changed =
                Array.exists (fun c -> not (Bit.equal c Bit.X)) cells
              in
              Array.fill cells 0 16 Bit.X;
              changed)
     | None ->
       Some
         (fun () ->
            let changed =
              Array.exists (fun c -> not (Bit.equal c Bit.X)) cells
            in
            Array.fill cells 0 16 Bit.X;
            changed))
  | Prim.Black_box _, Bb_state behavior ->
    (match behavior.Prim.clock_edge with
     | None -> None
     | Some edge ->
       let read = bb_read sim node in
       (* behavioural state is opaque: conservatively re-evaluate *)
       Some
         (fun () ->
            edge ~read;
            true))
  | (Prim.Ff _ | Prim.Srl16 _ | Prim.Ram16x1 _ | Prim.Black_box _), _ ->
    assert false
  | ( ( Prim.Lut _ | Prim.Muxcy | Prim.Xorcy | Prim.Mult_and | Prim.Buf
      | Prim.Inv | Prim.Gnd | Prim.Vcc ),
      _ ) -> None

let record_watches sim =
  List.iter
    (fun w -> w.samples <- (sim.cycles, get sim w.watch_wire) :: w.samples)
    sim.watches

let cycle ?(n = 1) sim =
  for _ = 1 to n do
    (* two-phase: compute every next-state from pre-edge values, then
       commit; committers whose state changed are re-evaluated so their
       outputs propagate *)
    let commits =
      List.filter_map
        (fun (node, rank) ->
           if in_clock_domain sim node then
             Option.map (fun commit -> (commit, rank)) (clock_compute sim node)
           else None)
        sim.seq_nodes
    in
    List.iter
      (fun (commit, rank) ->
         if commit () then sim.pending <- Int_set.add rank sim.pending)
      commits;
    sim.cycles <- sim.cycles + 1;
    propagate sim;
    (match sim.watches with [] -> () | _ -> record_watches sim);
    (match sim.cycle_hooks with
     | [] -> ()
     | hooks -> List.iter (fun hook -> hook sim.cycles) hooks)
  done

let reset sim =
  List.iter
    (fun (node, _) ->
       match node.state with
       | Ff_state st -> st.value := st.init
       | Mem_state { cells; init } -> Array.blit init 0 cells 0 16
       | Bb_state behavior ->
         (match behavior.Prim.state_reset with
          | None -> ()
          | Some f -> f ())
       | No_state -> ())
    sim.seq_nodes;
  sim.cycles <- 0;
  List.iter (fun w -> w.samples <- []) sim.watches;
  propagate_full sim;
  record_watches sim

let cycle_count sim = sim.cycles

let watch sim ?label w =
  let watch_label = Option.value label ~default:(Wire.full_name w) in
  let entry = { watch_label; watch_wire = w; samples = [ (sim.cycles, get sim w) ] } in
  sim.watches <- entry :: sim.watches

let history sim =
  List.rev_map
    (fun w -> (w.watch_label, List.rev w.samples))
    sim.watches

let on_cycle sim f = sim.cycle_hooks <- sim.cycle_hooks @ [ f ]
let prim_count sim = Array.length sim.order
let levels sim = sim.depth
let eval_count sim = sim.stat_evals
let event_count sim = sim.stat_changes

let register_metrics sim registry =
  let module M = Jhdl_metrics.Metrics in
  M.probe registry "cycles_total" (fun () -> sim.cycles);
  M.probe registry "settle_evals_total" (fun () -> sim.stat_evals);
  M.probe registry "net_events_total" (fun () -> sim.stat_changes);
  M.probe registry "prims" (fun () -> Array.length sim.order);
  M.probe registry "levels" (fun () -> sim.depth);
  if not (M.is_nil registry) then begin
    let per_cycle = M.histogram registry "settle_evals_per_cycle" in
    let last = ref sim.stat_evals in
    on_cycle sim (fun _ ->
        let now = sim.stat_evals in
        M.observe per_cycle (now - !last);
        last := now)
  end

(* ------------------------------------------------------------------ *)
(* Checkpointing: same path-keyed blob format as [Simulator], so a
   kernel snapshot restores into the interpreter and vice versa.        *)

let seq_node_by_path sim =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (node, _) -> Hashtbl.replace table (Cell.path node.inst) node)
    sim.seq_nodes;
  table

let snapshot sim =
  Snapshot.check_design sim.sim_design;
  let nets_list = Design.all_nets sim.sim_design in
  let image_nets =
    Bytes.init (List.length nets_list) (fun _ -> '\002')
  in
  List.iteri
    (fun i n ->
       Bytes.set image_nets i (Char.chr (Bit.to_code (read_net sim n))))
    nets_list;
  let by_path = seq_node_by_path sim in
  let image_seq =
    List.filter_map
      (fun inst ->
         let path = Cell.path inst in
         match Hashtbl.find_opt by_path path with
         | None -> None
         | Some node ->
           (match node.state with
            | Ff_state { value; _ } ->
              Some (path, Snapshot.Flop (Bit.to_code !value))
            | Mem_state { cells; _ } ->
              Some
                ( path,
                  Snapshot.Mem
                    (Bytes.init 16 (fun i -> Char.chr (Bit.to_code cells.(i))))
                )
            | Bb_state _ | No_state -> None))
      (Design.all_prims sim.sim_design)
  in
  Snapshot.encode
    { Snapshot.image_signature = Snapshot.signature sim.sim_design;
      image_cycles = sim.cycles;
      image_nets;
      image_seq;
      image_watches = history sim }

let restore sim blob =
  let img = Snapshot.decode blob in
  Snapshot.check_design sim.sim_design;
  let expect = Snapshot.signature sim.sim_design in
  if img.Snapshot.image_signature <> expect then
    raise
      (Snapshot.Error
         (Printf.sprintf
            "snapshot: design signature mismatch (blob %08x, design %s is %08x)"
            img.Snapshot.image_signature (Design.name sim.sim_design) expect));
  let nets_list = Design.all_nets sim.sim_design in
  if Bytes.length img.Snapshot.image_nets <> List.length nets_list then
    raise (Snapshot.Error "snapshot: net count mismatch");
  (* all or nothing: the entries must be exactly the design's sequential
     elements, in snapshot order and of matching kinds, before any write *)
  let rec pair entries nodes =
    match entries, nodes with
    | [], [] -> []
    | (path, state) :: entries, node :: nodes
      when String.equal path (Cell.path node.inst) ->
      (match state, node.state with
       | Snapshot.Flop _, Ff_state _ | Snapshot.Mem _, Mem_state _ ->
         (state, node.state) :: pair entries nodes
       | _ -> mismatch path)
    | (path, _) :: _, _ -> mismatch path
    | [], node :: _ ->
      raise (Snapshot.Error ("snapshot: no state entry for " ^ Cell.path node.inst))
  and mismatch path =
    raise (Snapshot.Error ("snapshot: state entry does not match the design at " ^ path))
  in
  let stateful =
    List.filter_map
      (fun (node, _) ->
         match node.state with
         | Ff_state _ | Mem_state _ -> Some node
         | Bb_state _ | No_state -> None)
      sim.seq_nodes
  in
  let states = pair img.Snapshot.image_seq stateful in
  List.iteri
    (fun i n ->
       Hashtbl.replace sim.values n.net_id
         (Bit.of_code (Char.code (Bytes.get img.Snapshot.image_nets i))))
    nets_list;
  List.iter
    (function
      | Snapshot.Flop c, Ff_state { value; _ } -> value := Bit.of_code c
      | Snapshot.Mem src, Mem_state { cells; _ } ->
        for i = 0 to 15 do
          cells.(i) <- Bit.of_code (Char.code (Bytes.get src i))
        done
      | _ -> assert false (* paired by kind above *))
    states;
  sim.cycles <- img.Snapshot.image_cycles;
  List.iter
    (fun w ->
       w.samples <-
         (match List.assoc_opt w.watch_label img.Snapshot.image_watches with
          | Some samples -> List.rev samples
          | None -> []))
    sim.watches;
  propagate_full sim
