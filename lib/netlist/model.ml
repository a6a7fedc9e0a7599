open Jhdl_circuit.Types
module Cell = Jhdl_circuit.Cell
module Wire = Jhdl_circuit.Wire
module Design = Jhdl_circuit.Design
module Prim = Jhdl_circuit.Prim
module Lut_init = Jhdl_logic.Lut_init
module Hex = Jhdl_logic.Hex
module Bit = Jhdl_logic.Bit

type attribute = {
  attr_name : string;
  attr_value : string;
}

type connection = {
  conn_port : string;
  conn_dir : dir;
  conn_net : int;
}

type instance = {
  inst_name : string;
  inst_lib_cell : string;
  inst_prim : Prim.t;
  inst_conns : connection list;
  inst_attrs : attribute list;
}

type net_info = {
  net_name : string;
  net_index : int;
  driver_instance : int option;
  sink_count : int;
}

type port_info = {
  p_name : string;
  p_dir : dir;
  p_width : int;
  p_nets : int array;
}

type t = {
  design_name : string;
  ports : port_info list;
  nets : net_info array;
  instances : instance array;
}

(* net and cell ids are allocated in sequence, so they hash as themselves *)
module Ids = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash id = id
  end)

(* [base ^ "[" ^ string_of_int i ^ "]"], the name of bit [i] of a bus *)
let indexed base i =
  let digits = string_of_int i in
  let lb = String.length base and ld = String.length digits in
  let s = Bytes.create (lb + ld + 2) in
  Bytes.blit_string base 0 s 0 lb;
  Bytes.unsafe_set s lb '[';
  Bytes.blit_string digits 0 s (lb + 1) ld;
  Bytes.unsafe_set s (lb + ld + 1) ']';
  Bytes.unsafe_to_string s

let init_attr value = { attr_name = "INIT"; attr_value = value }

(* INIT first, then RLOC, then the cell's own properties in the order
   they were set *)
let attributes c prim =
  let rest =
    let properties =
      List.rev_map (fun (k, v) -> { attr_name = k; attr_value = v }) c.properties
    in
    match c.rloc with
    | Some (r, col) ->
      { attr_name = "RLOC";
        attr_value = String.concat "" [ "R"; string_of_int r; "C"; string_of_int col ] }
      :: properties
    | None -> properties
  in
  match prim with
  | Prim.Lut init -> init_attr (Lut_init.to_hex init) :: rest
  | Prim.Srl16 { init } | Prim.Ram16x1 { init } ->
    init_attr (Hex.upper ~width:4 init) :: rest
  | Prim.Ff { init; _ } ->
    init_attr (match init with Bit.One -> "1" | Bit.Zero | Bit.X | Bit.Z -> "0")
    :: rest
  | Prim.Muxcy | Prim.Xorcy | Prim.Mult_and | Prim.Buf | Prim.Inv | Prim.Gnd
  | Prim.Vcc | Prim.Black_box _ -> rest

let connection net_index b port n =
  { conn_port = port; conn_dir = b.dir; conn_net = Ids.find net_index n.net_id }

(* one connection per bit, bindings in the order they were made; a
   cell keeps its bindings newest first *)
let connections net_index c =
  List.fold_left
    (fun acc b ->
       let nets = b.actual.nets in
       if Array.length nets = 1 then connection net_index b b.formal nets.(0) :: acc
       else begin
         let acc = ref acc in
         for i = Array.length nets - 1 downto 0 do
           acc := connection net_index b (indexed b.formal i) nets.(i) :: !acc
         done;
         !acc
       end)
    [] c.port_bindings

(* One walk over the hierarchy, carrying each cell's path relative to
   the root: each net is named after the declared wire that holds it, in
   the order of [Design.all_nets], and primitives come in the order of
   [Design.all_prims]. *)
let of_design d =
  let root = Design.root d in
  let port_nets = Ids.create 64 in
  List.iter
    (fun p ->
       Array.iter
         (fun n -> Ids.replace port_nets n.net_id ())
         (Wire.nets p.Design.port_wire))
    (Design.ports d);
  (* keep nets that touch a primitive or a top-level port *)
  let net_index = Ids.create 1024 and kept = ref [] and n_kept = ref 0 in
  let inst_index = Ids.create 1024 and prims = ref [] and n_prims = ref 0 in
  Design.iter_paths d
    ~wire:(fun path w ->
      let base = if path = "" then w.wire_name else path ^ "/" ^ w.wire_name in
      let scalar = Array.length w.nets = 1 in
      Array.iteri
        (fun bit n ->
           if Option.is_some n.driver || n.sinks <> [] || Ids.mem port_nets n.net_id
           then begin
             Ids.add net_index n.net_id !n_kept;
             incr n_kept;
             kept := (n, if scalar then base else indexed base bit) :: !kept
           end)
        w.nets)
    ~cell:(fun c path ->
      match c.kind with
      | Primitive prim ->
        Ids.add inst_index c.cell_id !n_prims;
        incr n_prims;
        prims := (c, prim, path) :: !prims
      | Composite _ -> ());
  let instances =
    Array.of_list
      (List.rev_map
         (fun (c, prim, path) ->
            { inst_name = path;
              inst_lib_cell = Prim.name prim;
              inst_prim = prim;
              inst_conns = connections net_index c;
              inst_attrs = attributes c prim })
         !prims)
  in
  let next = ref !n_kept in
  let nets =
    Array.of_list
      (List.rev_map
         (fun (n, name) ->
            decr next;
            { net_name = name;
              net_index = !next;
              driver_instance =
                (match n.driver with
                 | Some t -> Ids.find_opt inst_index t.term_cell.cell_id
                 | None -> None);
              sink_count = List.length n.sinks })
         !kept)
  in
  let ports =
    List.map
      (fun p ->
         { p_name = p.Design.port_name;
           p_dir = p.Design.port_dir;
           p_width = Wire.width p.Design.port_wire;
           p_nets =
             Array.map
               (fun n -> Ids.find net_index n.net_id)
               (Wire.nets p.Design.port_wire) })
      (Design.ports d)
  in
  { design_name = Cell.name root; ports; nets; instances }

let lib_cells m =
  let table = Hashtbl.create 16 in
  Array.iter
    (fun inst ->
       if not (Hashtbl.mem table inst.inst_lib_cell) then begin
         let ports =
           match inst.inst_prim with
           | Prim.Black_box _ ->
             List.map (fun c -> (c.conn_port, c.conn_dir)) inst.inst_conns
           | p ->
             let outs = Prim.output_ports p in
             List.map
               (fun name ->
                  (name, if List.mem name outs then Output else Input))
               (Prim.port_names p)
         in
         Hashtbl.replace table inst.inst_lib_cell ports
       end)
    m.instances;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let instance_count m = Array.length m.instances
let net_count m = Array.length m.nets
