(* The one-lane face of the simulation kernel.

   [Batch] is the one kernel: it holds the compiled design and the
   primitive rules, for any lane count. A [Simulator] is a one-lane
   [Batch] plus what a single interactive testbench needs on top:

   - input forces that settle at once, with this module's messages;
   - watched wires, sampled after every cycle;
   - cycle hooks;
   - its own cycle counter, which [restore] sets from the blob (batch
     lanes step together and cannot);
   - snapshots that carry the watch histories.

   [Reference] stays apart as the golden model for differential
   tests. *)

open Jhdl_circuit.Types
module Bits = Jhdl_logic.Bits
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design

exception Combinational_cycle = Batch.Combinational_cycle

type watch_entry = {
  watch_label : string;
  watch_wire : Wire.t;
  mutable samples : (int * Bits.t) list; (* newest first *)
}

type t = {
  kernel : Batch.t; (* one lane *)
  mutable cycles : int;
  mutable watches : watch_entry list; (* reverse watch order *)
  mutable cycle_hooks : (int -> unit) list; (* registration order *)
}

let create ?clock design =
  { kernel = Batch.create_as ~who:"Simulator" ~clock ~lanes:1 design;
    cycles = 0;
    watches = [];
    cycle_hooks = [] }

let design sim = Batch.design sim.kernel
let propagate sim = Batch.propagate sim.kernel
let get sim w = Batch.get sim.kernel ~lane:0 w

let get_port sim port =
  match Design.find_port (design sim) port with
  | None -> invalid_arg (Printf.sprintf "Simulator.get_port: no port %s" port)
  | Some p -> get sim p.Design.port_wire

(* write the wire's nets without settling (shared by [set_input_wire],
   [set_input] and [set_inputs]) *)
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
       Batch.force_net sim.kernel ~lane:0 n (Bits.get bits i))
    (Wire.nets w)

let set_input_wire sim w bits =
  force_wire sim w bits;
  propagate sim

let force_port sim port bits =
  match Design.find_port (design sim) port with
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
    (fun w -> w.samples <- (sim.cycles, get sim w.watch_wire) :: w.samples)
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
  for _ = 1 to n do
    Batch.cycle sim.kernel;
    sim.cycles <- sim.cycles + 1;
    (match sim.watches with [] -> () | _ -> record_watches sim);
    run_cycle_hooks sim.cycle_hooks sim.cycles
  done

let reset sim =
  Batch.reset sim.kernel;
  sim.cycles <- 0;
  List.iter (fun w -> w.samples <- []) sim.watches;
  record_watches sim

let cycle_count sim = sim.cycles

let watch sim ?label w =
  let watch_label = Option.value label ~default:(Wire.full_name w) in
  let entry = { watch_label; watch_wire = w; samples = [ (sim.cycles, get sim w) ] } in
  sim.watches <- entry :: sim.watches

let history sim =
  List.rev_map (fun w -> (w.watch_label, List.rev w.samples)) sim.watches

let on_cycle sim f = sim.cycle_hooks <- sim.cycle_hooks @ [ f ]
let prim_count sim = Batch.prim_count sim.kernel
let levels sim = Batch.levels sim.kernel
let eval_count sim = Batch.eval_count sim.kernel
let event_count sim = Batch.event_count sim.kernel

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
    let last = ref (eval_count sim) in
    on_cycle sim (fun _ ->
        let now = eval_count sim in
        M.observe per_cycle (now - !last);
        last := now)
  end

(* ------------------------------------------------------------------ *)
(* Checkpointing: the lane's image, with this face's cycle counter and
   watch histories. State entries are keyed by instance path
   ([Snapshot]'s contract), so blobs restore across [Simulator],
   [Batch] lanes and [Reference] as long as the design signature
   matches.                                                            *)

let snapshot sim =
  Snapshot.encode
    { (Batch.lane_image sim.kernel ~lane:0) with
      Snapshot.image_cycles = sim.cycles;
      image_watches = history sim }

let restore sim blob =
  let img = Snapshot.decode blob in
  Batch.restore_image sim.kernel ~lane:0 img (* validates before writing *);
  sim.cycles <- img.Snapshot.image_cycles;
  List.iter
    (fun w ->
       w.samples <-
         (match List.assoc_opt w.watch_label img.Snapshot.image_watches with
          | Some samples -> List.rev samples
          | None -> []))
    sim.watches

(* ------------------------------------------------------------------ *)
(* The kernel itself, at up to 63 lanes.                               *)

module Batch = Batch
