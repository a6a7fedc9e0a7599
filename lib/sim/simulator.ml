(* Compiled cycle simulator.

   Instead of interpreting the netlist each cycle (hashtable net store,
   string port lookups, closure lists — see [Reference]), [create] lowers
   the levelized design into flat int-indexed structures once. The
   [Plan] owns what this kernel shares with [Batch]: dense net numbering,
   the CSR fan-out, the level-bucketed dirty worklist and the checkpoint
   tables. This kernel adds:

   - the 4-value state of every dense net in one [Bytes.t] of 2-bit
     codes ([Bit.to_code]);
   - a per-node evaluation closure over the node's dense port indices,
     so the cycle loop never touches association lists or formats port
     names;
   - sequential elements with preallocated next-state buffers, which
     the two-phase clock step writes into, allocating nothing.

   Black boxes keep the boxed [Bits.t] path through their [Prim.behavior]
   closures. Evaluation semantics — pessimistic X propagation, clock
   domains, two-phase edges — are identical to [Reference], which is kept
   as the golden model for differential tests. *)

open Jhdl_circuit.Types
module Bit = Jhdl_logic.Bit
module Bits = Jhdl_logic.Bits
module Lut_init = Jhdl_logic.Lut_init
module Prim = Jhdl_circuit.Prim
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design

exception Combinational_cycle = Plan.Combinational_cycle

(* ------------------------------------------------------------------ *)
(* 2-bit code arithmetic (Zero=0 One=1 X=2 Z=3; defined iff < 2).      *)
(* Each function mirrors the corresponding Bit operation exactly.      *)

let not_code a = if a < 2 then a lxor 1 else 2
let and_code a b = if a = 0 || b = 0 then 0 else if a = 1 && b = 1 then 1 else 2
let xor_code a b = if a < 2 && b < 2 then a lxor b else 2

(* Bit.mux ~sel a b: [a] when sel=0, [b] when sel=1, else X unless both
   agree on a defined value. *)
let mux_code sel a b =
  if sel = 0 then a
  else if sel = 1 then b
  else if a = b && a < 2 then a
  else 2

(* ------------------------------------------------------------------ *)
(* Dense store: one code byte per dense net, plus the shared plan.     *)

type store = {
  vals : Bytes.t;
  plan : Plan.t;
}

let code st idx = Char.code (Bytes.unsafe_get st.vals idx)

(* change-tracked net write: a changed code marks the net's CSR
   consumers dirty *)
let write st idx c =
  if Char.code (Bytes.unsafe_get st.vals idx) <> c then begin
    Bytes.unsafe_set st.vals idx (Char.unsafe_chr c);
    Plan.changed st.plan idx
  end

(* Read [ins] into a packed (base, unknown-mask) pair: bit i of the low
   half is set for a One input, bit i of the high half for an undefined
   one. Packing both into one int keeps the hot path allocation-free;
   LUTs and memories have at most 6 address bits so 16 bits per half is
   ample. *)
let rec gather st ins i acc =
  if i < 0 then acc
  else
    let c = Char.code (Bytes.unsafe_get st.vals (Array.unsafe_get ins i)) in
    gather st ins (i - 1)
      (if c = 1 then acc lor (1 lsl i)
       else if c >= 2 then acc lor (1 lsl (i + 16))
       else acc)

(* Truth-table lookup under an unknown-bit mask: every address reachable
   by flipping masked bits must agree, else X — the subset walk
   [sub' = (sub - umask) land umask] enumerates them without
   allocating. *)
let lut_code table base umask =
  let v = (table lsr base) land 1 in
  if umask = 0 then v
  else
    let rec agree sub =
      if (table lsr (base lor sub)) land 1 <> v then 2
      else if sub = umask then v
      else agree ((sub - umask) land umask)
    in
    agree ((0 - umask) land umask)

(* Same walk over a 16-cell memory; the base cell must itself be defined
   (memories can hold X after a clobbered write). *)
let mem_code cells base umask =
  let v = Char.code (Bytes.unsafe_get cells base) in
  if umask = 0 then v
  else if v >= 2 then 2
  else
    let rec agree sub =
      if Char.code (Bytes.unsafe_get cells (base lor sub)) <> v then 2
      else if sub = umask then v
      else agree ((sub - umask) land umask)
    in
    agree ((0 - umask) land umask)

(* ------------------------------------------------------------------ *)
(* Sequential nodes: preallocated current/next buffers, filled by the
   compute phase and applied by the commit phase of [cycle].           *)

type ff_node = {
  ff_rank : int;
  ff_d : int;
  ff_ce : int; (* dense net index, -1 when the pin is absent *)
  ff_clr : int;
  ff_r : int;
  mutable ff_cur : int;
  mutable ff_next : int;
  ff_init : int;
}

type srl_node = {
  srl_rank : int;
  srl_d : int;
  srl_ce : int;
  srl_cells : Bytes.t;
  srl_next : Bytes.t;
  mutable srl_commit : bool;
  srl_init : Bytes.t;
}

type ram_node = {
  ram_rank : int;
  ram_d : int;
  ram_we : int;
  ram_a : int array;
  ram_cells : Bytes.t;
  mutable ram_wr : int; (* -1 no write, -2 clobber with X, else cell *)
  mutable ram_wd : int;
  ram_init : Bytes.t;
}

type bb_node = {
  bb_rank : int;
  bb_behavior : Prim.behavior;
  bb_read : string -> Bits.t;
}

type snode =
  | S_ff of ff_node
  | S_srl of srl_node
  | S_ram of ram_node
  | S_bb of bb_node

type watch_entry = {
  watch_label : string;
  watch_idx : int array; (* dense index per bit, -1 when unmapped *)
  mutable samples : (int * Bits.t) list; (* newest first *)
}

type t = {
  sim_design : Design.t;
  st : store;
  eval : (unit -> unit) array; (* compiled per-node evaluators, by rank *)
  seq_all : snode array; (* every sequential node, for [reset] *)
  seq_clocked : snode array; (* the selected clock domain *)
  seq_snap : snode array; (* the plan's checkpoint table, entry by entry *)
  mutable cycles : int;
  mutable watches : watch_entry list; (* reverse watch order *)
  mutable cycle_hooks : (int -> unit) list; (* registration order *)
}

(* ------------------------------------------------------------------ *)
(* Settle: the plan's worklist over this kernel's closures.            *)

let propagate_full sim = Plan.full_pass sim.st.plan sim.eval
let propagate sim = ignore (Plan.drain sim.st.plan sim.eval : int)

(* ------------------------------------------------------------------ *)
(* Two-phase clock step. Compute reads pre-edge values into the
   preallocated next buffers; commit applies them and marks the node's
   rank dirty when its outputs may have changed. Commits touch only
   internal state, so black-box edge closures still observe pre-edge
   nets regardless of commit order. *)

let compute_snode st = function
  | S_ff f ->
    let ce = if f.ff_ce >= 0 then code st f.ff_ce else 1 in
    let clr = if f.ff_clr >= 0 then code st f.ff_clr else 0 in
    let r = if f.ff_r >= 0 then code st f.ff_r else 0 in
    let d = code st f.ff_d in
    f.ff_next <-
      (if clr = 1 then 0
       else
         let loaded = mux_code r d 0 in
         let held = mux_code ce f.ff_cur loaded in
         if clr = 0 then held
         else (* CLR unknown: zero and the clocked value must agree *)
           mux_code clr held 0)
  | S_srl s ->
    let ce = code st s.srl_ce in
    if ce = 0 then s.srl_commit <- false
    else begin
      s.srl_commit <- true;
      let d = code st s.srl_d in
      if ce = 1 then begin
        Bytes.blit s.srl_cells 0 s.srl_next 1 15;
        Bytes.unsafe_set s.srl_next 0 (Char.unsafe_chr d)
      end
      else
        (* CE unknown: a tap keeps its value only where shifting would
           not change it *)
        for i = 0 to 15 do
          let sh =
            if i = 0 then d else Char.code (Bytes.unsafe_get s.srl_cells (i - 1))
          in
          let cur = Char.code (Bytes.unsafe_get s.srl_cells i) in
          Bytes.unsafe_set s.srl_next i
            (if sh = cur && sh < 2 then Char.unsafe_chr sh else '\002')
        done
    end
  | S_ram m ->
    let we = code st m.ram_we in
    if we = 0 then m.ram_wr <- -1
    else if we = 1 then begin
      let acc = gather st m.ram_a 3 0 in
      if acc lsr 16 = 0 then begin
        m.ram_wr <- acc land 0xffff;
        m.ram_wd <- code st m.ram_d
      end
      else m.ram_wr <- -2 (* write enabled at an unknown address *)
    end
    else m.ram_wr <- -2
  | S_bb _ -> ()

let commit_snode st = function
  | S_ff f ->
    if f.ff_cur <> f.ff_next then begin
      f.ff_cur <- f.ff_next;
      Plan.mark st.plan f.ff_rank
    end
  | S_srl s ->
    if s.srl_commit && not (Bytes.equal s.srl_next s.srl_cells) then begin
      Bytes.blit s.srl_next 0 s.srl_cells 0 16;
      Plan.mark st.plan s.srl_rank
    end
  | S_ram m ->
    if m.ram_wr >= 0 then begin
      if Char.code (Bytes.get m.ram_cells m.ram_wr) <> m.ram_wd then begin
        Bytes.set m.ram_cells m.ram_wr (Char.chr m.ram_wd);
        Plan.mark st.plan m.ram_rank
      end
    end
    else if m.ram_wr = -2 then begin
      (* any non-X cell (defined or Z) changes under the clobber and
         must re-evaluate the read port *)
      let changed = ref false in
      for i = 0 to 15 do
        if Char.code (Bytes.unsafe_get m.ram_cells i) <> 2 then changed := true
      done;
      Bytes.fill m.ram_cells 0 16 '\002';
      if !changed then Plan.mark st.plan m.ram_rank
    end
  | S_bb b ->
    (match b.bb_behavior.Prim.clock_edge with
     | Some edge ->
       edge ~read:b.bb_read;
       (* behavioural state is opaque: conservatively re-evaluate *)
       Plan.mark st.plan b.bb_rank
     | None -> ())

(* ------------------------------------------------------------------ *)
(* Compilation.                                                        *)

let create ?clock design =
  let plan, nodes = Plan.create ~who:"Simulator" ~clock design in
  let st = { vals = Bytes.make plan.Plan.n_nets '\002' (* all X *); plan } in
  let eval = Array.make (Array.length nodes) (fun () -> ()) in
  let seq_all = ref [] and seq_clocked = ref [] in
  let seq_at = Hashtbl.create 64 in (* rank -> node *)
  Array.iteri
    (fun rank { Plan.inst; prim; ins; outs; clocked } ->
       let add_seq sn on_edge =
         seq_all := sn :: !seq_all;
         Hashtbl.replace seq_at rank sn;
         if on_edge then seq_clocked := sn :: !seq_clocked
       in
       let port_idx = Plan.port plan in
       let p1 ports name = (port_idx ports name).(0) in
       match prim with
       | Prim.Lut init ->
         let k = Lut_init.inputs init in
         let table = Lut_init.to_int init in
         let addrs = Array.init k (fun i -> p1 ins (Printf.sprintf "I%d" i)) in
         let o = p1 outs "O" in
         eval.(rank) <-
           (fun () ->
              let acc = gather st addrs (k - 1) 0 in
              write st o (lut_code table (acc land 0xffff) (acc lsr 16)))
       | Prim.Ff { clock_enable; async_clear; sync_reset; init } ->
         let f =
           { ff_rank = rank;
             ff_d = p1 ins "D";
             ff_ce = (if clock_enable then p1 ins "CE" else -1);
             ff_clr = (if async_clear then p1 ins "CLR" else -1);
             ff_r = (if sync_reset then p1 ins "R" else -1);
             ff_cur = Bit.to_code init;
             ff_next = Bit.to_code init;
             ff_init = Bit.to_code init }
         in
         let q = p1 outs "Q" in
         eval.(rank) <-
           (if async_clear then
              let clr = f.ff_clr in
              fun () -> write st q (mux_code (code st clr) f.ff_cur 0)
            else fun () -> write st q f.ff_cur);
         add_seq (S_ff f) clocked
       | Prim.Muxcy ->
         let s = p1 ins "S" and di = p1 ins "DI" and ci = p1 ins "CI" in
         let o = p1 outs "O" in
         eval.(rank) <-
           (fun () -> write st o (mux_code (code st s) (code st di) (code st ci)))
       | Prim.Xorcy ->
         let li = p1 ins "LI" and ci = p1 ins "CI" in
         let o = p1 outs "O" in
         eval.(rank) <- (fun () -> write st o (xor_code (code st li) (code st ci)))
       | Prim.Mult_and ->
         let i0 = p1 ins "I0" and i1 = p1 ins "I1" in
         let lo = p1 outs "LO" in
         eval.(rank) <- (fun () -> write st lo (and_code (code st i0) (code st i1)))
       | Prim.Srl16 { init } ->
         let init_b = Bytes.init 16 (fun i -> Char.chr ((init lsr i) land 1)) in
         let s =
           { srl_rank = rank;
             srl_d = p1 ins "D";
             srl_ce = p1 ins "CE";
             srl_cells = Bytes.copy init_b;
             srl_next = Bytes.make 16 '\000';
             srl_commit = false;
             srl_init = init_b }
         in
         let a = Array.init 4 (fun i -> p1 ins (Printf.sprintf "A%d" i)) in
         let q = p1 outs "Q" in
         let cells = s.srl_cells in
         eval.(rank) <-
           (fun () ->
              let acc = gather st a 3 0 in
              write st q (mem_code cells (acc land 0xffff) (acc lsr 16)));
         add_seq (S_srl s) clocked
       | Prim.Ram16x1 { init } ->
         let init_b = Bytes.init 16 (fun i -> Char.chr ((init lsr i) land 1)) in
         let m =
           { ram_rank = rank;
             ram_d = p1 ins "D";
             ram_we = p1 ins "WE";
             ram_a = Array.init 4 (fun i -> p1 ins (Printf.sprintf "A%d" i));
             ram_cells = Bytes.copy init_b;
             ram_wr = -1;
             ram_wd = 0;
             ram_init = init_b }
         in
         let o = p1 outs "O" in
         let cells = m.ram_cells and a = m.ram_a in
         eval.(rank) <-
           (fun () ->
              let acc = gather st a 3 0 in
              write st o (mem_code cells (acc land 0xffff) (acc lsr 16)));
         add_seq (S_ram m) clocked
       | Prim.Buf ->
         let i = p1 ins "I" and o = p1 outs "O" in
         eval.(rank) <- (fun () -> write st o (code st i))
       | Prim.Inv ->
         let i = p1 ins "I" and o = p1 outs "O" in
         eval.(rank) <- (fun () -> write st o (not_code (code st i)))
       | Prim.Gnd ->
         let g = p1 outs "G" in
         eval.(rank) <- (fun () -> write st g 0)
       | Prim.Vcc ->
         let v = p1 outs "P" in
         eval.(rank) <- (fun () -> write st v 1)
       | Prim.Black_box { make_behavior; _ } ->
         let behavior = make_behavior () in
         let read port =
           let arr =
             match List.assoc_opt port ins with
             | Some a -> a
             | None -> port_idx outs port
           in
           Bits.init (Array.length arr) (fun i -> Bit.of_code (code st arr.(i)))
         in
         let inst_path = Cell.path inst in
         eval.(rank) <-
           (fun () ->
              let written = behavior.Prim.comb ~read in
              List.iter
                (fun (port, bits) ->
                   let nets = port_idx outs port in
                   if Array.length nets <> Bits.width bits then
                     invalid_arg
                       (Printf.sprintf
                          "Simulator: black box %s wrote %d bits to %d-bit port %s"
                          inst_path (Bits.width bits) (Array.length nets) port);
                   Array.iteri
                     (fun i idx -> write st idx (Bit.to_code (Bits.get bits i)))
                     nets)
                written);
         add_seq
           (S_bb { bb_rank = rank; bb_behavior = behavior; bb_read = read })
           (clocked && Option.is_some behavior.Prim.clock_edge))
    nodes;
  let sim =
    { sim_design = design;
      st;
      eval;
      seq_all = Array.of_list (List.rev !seq_all);
      seq_clocked = Array.of_list (List.rev !seq_clocked);
      seq_snap = Array.map (fun e -> Hashtbl.find seq_at e.Plan.rank) plan.Plan.seq;
      cycles = 0;
      watches = [];
      cycle_hooks = [] }
  in
  propagate_full sim;
  sim

(* ------------------------------------------------------------------ *)
(* Public API.                                                         *)

let design sim = sim.sim_design

let read_nets sim nets =
  Bits.init (Array.length nets) (fun i ->
    match Hashtbl.find_opt sim.st.plan.Plan.net_idx nets.(i).net_id with
    | None -> Bit.X
    | Some idx -> Bit.of_code (code sim.st idx))

let get sim w = read_nets sim (Wire.nets w)

let get_port sim port =
  match Design.find_port sim.sim_design port with
  | None -> invalid_arg (Printf.sprintf "Simulator.get_port: no port %s" port)
  | Some p -> get sim p.Design.port_wire

(* write the wire's nets without settling (shared by the single and
   batch input entry points) *)
let force_wire sim w bits =
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
       match Hashtbl.find_opt sim.st.plan.Plan.net_idx n.net_id with
       | Some idx -> write sim.st idx (Bit.to_code (Bits.get bits i))
       | None -> ())
    (Wire.nets w)

let set_input_wire sim w bits =
  force_wire sim w bits;
  propagate sim

let force_port sim port bits =
  match Design.find_port sim.sim_design port with
  | None -> invalid_arg (Printf.sprintf "Simulator.set_input: no port %s" port)
  | Some p ->
    (match p.Design.port_dir with
     | Input -> force_wire sim p.Design.port_wire bits
     | Output ->
       invalid_arg (Printf.sprintf "Simulator.set_input: %s is an output" port))

let set_input sim port bits =
  force_port sim port bits;
  propagate sim

let set_inputs sim assignments =
  match assignments with
  | [] -> ()
  | _ ->
    (* settle once for the whole batch; on error settle what was already
       applied so the simulator is left in a consistent state *)
    (try List.iter (fun (port, bits) -> force_port sim port bits) assignments
     with e ->
       propagate sim;
       raise e);
    propagate sim

let record_watches sim =
  List.iter
    (fun w ->
       let v =
         Bits.init (Array.length w.watch_idx) (fun i ->
           let idx = w.watch_idx.(i) in
           if idx < 0 then Bit.X else Bit.of_code (code sim.st idx))
       in
       w.samples <- (sim.cycles, v) :: w.samples)
    sim.watches

(* top-level recursion instead of [List.iter (fun hook -> ...)]: the
   iter closure would capture [sim] and cost a minor allocation on every
   instrumented cycle *)
let rec run_cycle_hooks hooks cycles =
  match hooks with
  | [] -> ()
  | hook :: rest ->
    hook cycles;
    run_cycle_hooks rest cycles

let cycle ?(n = 1) sim =
  let st = sim.st in
  let seq = sim.seq_clocked in
  let k = Array.length seq in
  for _ = 1 to n do
    for i = 0 to k - 1 do
      compute_snode st (Array.unsafe_get seq i)
    done;
    for i = 0 to k - 1 do
      commit_snode st (Array.unsafe_get seq i)
    done;
    sim.cycles <- sim.cycles + 1;
    propagate sim;
    (match sim.watches with [] -> () | _ -> record_watches sim);
    run_cycle_hooks sim.cycle_hooks sim.cycles
  done

let reset sim =
  Array.iter
    (function
      | S_ff f -> f.ff_cur <- f.ff_init
      | S_srl s -> Bytes.blit s.srl_init 0 s.srl_cells 0 16
      | S_ram m -> Bytes.blit m.ram_init 0 m.ram_cells 0 16
      | S_bb b ->
        (match b.bb_behavior.Prim.state_reset with
         | None -> ()
         | Some f -> f ()))
    sim.seq_all;
  sim.cycles <- 0;
  List.iter (fun w -> w.samples <- []) sim.watches;
  propagate_full sim;
  record_watches sim

let cycle_count sim = sim.cycles

let watch sim ?label w =
  let watch_label = Option.value label ~default:(Wire.full_name w) in
  let watch_idx =
    Array.map
      (fun n ->
         match Hashtbl.find_opt sim.st.plan.Plan.net_idx n.net_id with
         | None -> -1
         | Some idx -> idx)
      (Wire.nets w)
  in
  let entry = { watch_label; watch_idx; samples = [ (sim.cycles, get sim w) ] } in
  sim.watches <- entry :: sim.watches

let history sim =
  List.rev_map (fun w -> (w.watch_label, List.rev w.samples)) sim.watches

let on_cycle sim f = sim.cycle_hooks <- sim.cycle_hooks @ [ f ]
let prim_count sim = Array.length sim.eval
let levels sim = sim.st.plan.Plan.depth
let eval_count sim = sim.st.plan.Plan.evals
let event_count sim = sim.st.plan.Plan.changes

(* Pull-based registration: the kernel's own counters are sampled as
   probes (zero per-cycle cost) and a per-cycle settle-size histogram
   rides the existing hook list.  Everything the installed hook touches
   is preallocated here, so the steady-state cycle stays allocation-free
   with a live registry attached. *)
let register_metrics sim registry =
  let module M = Jhdl_metrics.Metrics in
  M.probe registry "cycles_total" (fun () -> sim.cycles);
  M.probe registry "settle_evals_total" (fun () -> eval_count sim);
  M.probe registry "net_events_total" (fun () -> event_count sim);
  M.probe registry "prims" (fun () -> prim_count sim);
  M.probe registry "levels" (fun () -> levels sim);
  if not (M.is_nil registry) then begin
    let per_cycle = M.histogram registry "settle_evals_per_cycle" in
    let plan = sim.st.plan in
    let last = ref plan.Plan.evals in
    on_cycle sim (fun _ ->
        let now = plan.Plan.evals in
        M.observe per_cycle (now - !last);
        last := now)
  end

(* ------------------------------------------------------------------ *)
(* Checkpointing. State entries are keyed by instance path ([Snapshot]'s
   contract), so blobs restore across [Simulator]/[Reference] and across
   processes as long as the design signature matches. The plan holds the
   entry order; [seq_snap] holds this kernel's node for each entry.     *)

let snapshot sim =
  let plan = sim.st.plan in
  Plan.check_snapshot plan;
  let state = function
    | S_ff f -> Snapshot.Flop f.ff_cur
    | S_srl s -> Snapshot.Mem s.srl_cells
    | S_ram m -> Snapshot.Mem m.ram_cells
    | S_bb _ -> assert false (* black boxes have no table entry *)
  in
  Snapshot.encode
    { Snapshot.image_signature = Plan.signature plan;
      image_cycles = sim.cycles;
      image_nets = Bytes.sub sim.st.vals 0 plan.Plan.snapshot_nets;
      image_seq =
        List.init (Array.length sim.seq_snap) (fun i ->
          (plan.Plan.seq.(i).Plan.path, state sim.seq_snap.(i)));
      image_watches = history sim }

let restore sim blob =
  let img = Snapshot.decode blob in
  Plan.check_image sim.st.plan img (* before anything is written *);
  let nets = img.Snapshot.image_nets in
  Bytes.blit nets 0 sim.st.vals 0 (Bytes.length nets);
  List.iteri
    (fun i (_, state) ->
       match sim.seq_snap.(i), state with
       | S_ff f, Snapshot.Flop c -> f.ff_cur <- c
       | ( (S_srl { srl_cells = cells; _ } | S_ram { ram_cells = cells; _ }),
           Snapshot.Mem src ) -> Bytes.blit src 0 cells 0 16
       | _ -> assert false (* kinds checked against the plan *))
    img.Snapshot.image_seq;
  sim.cycles <- img.Snapshot.image_cycles;
  List.iter
    (fun w ->
       w.samples <-
         (match List.assoc_opt w.watch_label img.Snapshot.image_watches with
          | Some samples -> List.rev samples
          | None -> []))
    sim.watches;
  propagate_full sim

(* ------------------------------------------------------------------ *)
(* Bit-parallel batch mode: 63 testbench lanes per machine word.       *)

module Batch = Batch
