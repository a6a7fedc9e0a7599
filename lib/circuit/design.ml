open Types

type port = {
  port_name : string;
  port_dir : dir;
  port_wire : Wire.t;
}

type t = {
  design_root : cell;
  mutable design_ports : port list; (* reverse order *)
}

let create root =
  (match root.parent with
   | None -> ()
   | Some _ -> invalid_arg "Design.create: cell is not a root");
  { design_root = root; design_ports = [] }

let root d = d.design_root
let name d = d.design_root.cell_name

let add_port d port_name port_dir port_wire =
  if not (Cell.equal port_wire.wire_owner d.design_root) then
    invalid_arg
      (Printf.sprintf "Design.add_port: wire %s not owned by the root cell"
         port_wire.wire_name);
  if port_wire.wire_is_view then
    invalid_arg "Design.add_port: wire is a slice/concat view";
  if List.exists (fun p -> String.equal p.port_name port_name) d.design_ports
  then invalid_arg (Printf.sprintf "Design.add_port: duplicate port %s" port_name);
  d.design_ports <- { port_name; port_dir; port_wire } :: d.design_ports

let ports d = List.rev d.design_ports
let inputs d = List.filter (fun p -> p.port_dir = Input) (ports d)
let outputs d = List.filter (fun p -> p.port_dir = Output) (ports d)

let find_port d n =
  List.find_opt (fun p -> String.equal p.port_name n) d.design_ports

type violation =
  | Undriven_net of { wire : string; bit : int; sink_count : int }
  | Contended_net of { wire : string; bit : int; drivers : string list }
  | Dangling_driver of { wire : string; bit : int }
  | Combinational_loop of { cells : string list }
  | Port_wire_not_root of { port : string }

let pp_violation fmt = function
  | Undriven_net { wire; bit; sink_count } ->
    Format.fprintf fmt "undriven net %s[%d] with %d sink(s)" wire bit sink_count
  | Contended_net { wire; bit; drivers } ->
    Format.fprintf fmt "net %s[%d] driven by %d sources: %s" wire bit
      (List.length drivers)
      (String.concat ", " drivers)
  | Dangling_driver { wire; bit } ->
    Format.fprintf fmt "driven net %s[%d] has no sinks" wire bit
  | Combinational_loop { cells } ->
    Format.fprintf fmt "combinational loop through: %s"
      (String.concat " -> " cells)
  | Port_wire_not_root { port } ->
    Format.fprintf fmt "port %s wire is not a root wire" port

let net_label n =
  match n.source_wire with
  | Some w -> Wire.full_name w
  | None -> Printf.sprintf "net#%d" n.net_id

(* Only [Wire.create] adds to a cell's [owned_wires], and it creates the
   wire's nets along with it; views ([Wire.bit], [slice], [concat])
   share nets but are never declared. So each net belongs to exactly one
   declared wire, and visiting every cell's declared wires, oldest
   first, meets each net once. [all_nets], [net_count] and [iter_paths]
   all rest on this walk, and so meet the nets in the same order. *)
let iter_declared f c =
  List.iter (fun w -> if not w.wire_is_view then f w) (List.rev c.owned_wires)

let all_nets d =
  let acc = ref [] in
  Cell.iter_rec
    (iter_declared (fun w -> Array.iter (fun n -> acc := n :: !acc) w.nets))
    d.design_root;
  List.rev !acc

let net_count d =
  let count = ref 0 in
  Cell.iter_rec
    (iter_declared (fun w -> count := !count + Array.length w.nets))
    d.design_root;
  !count

let iter_paths d ~cell ~wire =
  Cell.iter_paths
    (fun c path ->
       iter_declared (wire path) c;
       cell c path)
    d.design_root

let all_prims d =
  List.rev (Cell.fold_prims (fun acc c -> c :: acc) [] d.design_root)

(* Cycle detection delegates to the shared levelization walk so the
   validator, the simulators and the timing estimator all report the same
   canonical cell set for a given loop. *)
let find_comb_loop d =
  Option.map (List.map Cell.path) (Levelize.find_cycle d.design_root)

let term_label t =
  Printf.sprintf "%s.%s" (Cell.path t.term_cell) t.term_port

let rule_violations d =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  List.iter
    (fun p ->
       if not (Cell.equal p.port_wire.wire_owner d.design_root) then
         add (Port_wire_not_root { port = p.port_name }))
    (ports d);
  let input_nets = Hashtbl.create 64 in
  let output_nets = Hashtbl.create 64 in
  List.iter
    (fun p ->
       let table = if p.port_dir = Input then input_nets else output_nets in
       Array.iter (fun n -> Hashtbl.replace table n.net_id ()) p.port_wire.nets)
    (ports d);
  List.iter
    (fun n ->
       (match n.driver with
        | None ->
          if n.sinks <> [] && not (Hashtbl.mem input_nets n.net_id) then
            add
              (Undriven_net
                 { wire = net_label n;
                   bit = n.source_bit;
                   sink_count = List.length n.sinks })
        | Some drv ->
          if n.sinks = [] && not (Hashtbl.mem output_nets n.net_id) then
            add (Dangling_driver { wire = net_label n; bit = n.source_bit });
          (* Multiple drivers: extra output terminals recorded through the
             allow_contention escape hatch, or an internal driver fighting
             the top-level input port bound to the same net. *)
          let drivers =
            (if Hashtbl.mem input_nets n.net_id then [ "top-level input port" ]
             else [])
            @ List.map term_label (drv :: List.rev n.extra_drivers)
          in
          if List.length drivers > 1 then
            add
              (Contended_net
                 { wire = net_label n; bit = n.source_bit; drivers })))
    (all_nets d);
  List.rev !violations

let validate d =
  match find_comb_loop d with
  | None -> rule_violations d
  | Some cells -> rule_violations d @ [ Combinational_loop { cells } ]

let is_error = function
  | Dangling_driver _ -> false
  | Undriven_net _ | Contended_net _ | Combinational_loop _
  | Port_wire_not_root _ -> true

let errors d = List.filter is_error (validate d)
let rule_errors d = List.filter is_error (rule_violations d)

type stats = {
  composite_cells : int;
  primitive_instances : int;
  nets : int;
  declared_wires : int;
  max_depth : int;
  prims_by_type : (string * int) list;
}

let stats d =
  let composites = ref 0 and prims = ref 0 and wires = ref 0 in
  let by_type = Hashtbl.create 16 in
  let max_depth = ref 0 in
  let rec depth c = match c.parent with None -> 0 | Some p -> 1 + depth p in
  Cell.iter_rec
    (fun c ->
       (match c.kind with
        | Composite _ -> incr composites
        | Primitive p ->
          incr prims;
          let key = Prim.name p in
          Hashtbl.replace by_type key
            (1 + Option.value (Hashtbl.find_opt by_type key) ~default:0));
       wires := !wires + List.length (Cell.owned_wires c);
       max_depth := max !max_depth (depth c))
    d.design_root;
  { composite_cells = !composites;
    primitive_instances = !prims;
    nets = net_count d;
    declared_wires = !wires;
    max_depth = !max_depth;
    prims_by_type =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_type []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b) }

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>cells: %d composite, %d primitive@,nets: %d (from %d wires)@,depth: %d@,%a@]"
    s.composite_cells s.primitive_instances s.nets s.declared_wires s.max_depth
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt (t, n) ->
       Format.fprintf fmt "  %-10s %d" t n))
    s.prims_by_type
