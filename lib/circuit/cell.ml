open Types

type t = cell

let make ~name ~kind ~parent =
  let cell_name =
    match parent with None -> name | Some p -> unique_name p name
  in
  let c =
    { cell_id = next_cell_id ();
      cell_name;
      kind;
      parent;
      children = [];
      port_bindings = [];
      owned_wires = [];
      properties = [];
      rloc = None;
      names = Hashtbl.create 16 }
  in
  (match parent with
   | None -> ()
   | Some p -> p.children <- c :: p.children);
  c

let root ~name ?type_name () =
  let type_name = Option.value type_name ~default:name in
  make ~name ~kind:(Composite { type_name }) ~parent:None

let check_scope_is_composite ~what parent =
  match parent.kind with
  | Composite _ -> ()
  | Primitive _ ->
    invalid_arg (Printf.sprintf "Cell.%s: parent is a primitive instance" what)

let bind_ports c ports =
  List.iter
    (fun (formal, dir, actual) ->
       c.port_bindings <- { formal; dir; actual } :: c.port_bindings)
    ports

let composite parent ~name ?type_name ~ports () =
  check_scope_is_composite ~what:"composite" parent;
  let type_name = Option.value type_name ~default:name in
  let c = make ~name ~kind:(Composite { type_name }) ~parent:(Some parent) in
  bind_ports c ports;
  c

(* Connecting a primitive port registers one terminal per bit on the
   underlying nets; outputs claim the driver slot, inputs append a sink.
   A second output terminal is a construction error unless the caller
   opts into recording the contention for the design-rule checker. *)
let connect_terminals ?(allow_contention = false) inst ~dir ~port (w : wire) =
  Array.iteri
    (fun i n ->
       let term = { term_cell = inst; term_port = port; term_bit = i } in
       match dir with
       | Input -> n.sinks <- term :: n.sinks
       | Output ->
         (match n.driver with
          | Some prev when not allow_contention ->
            invalid_arg
              (Printf.sprintf
                 "Cell: net %s bit %d already driven by %s.%s; second driver %s.%s"
                 (match n.source_wire with
                  | Some sw -> sw.wire_name
                  | None -> string_of_int n.net_id)
                 n.source_bit prev.term_cell.cell_name prev.term_port
                 inst.cell_name port)
          | Some _ -> n.extra_drivers <- term :: n.extra_drivers
          | None -> n.driver <- Some term))
    w.nets

let prim parent ?name ?allow_contention p ~conns =
  check_scope_is_composite ~what:"prim" parent;
  let base = Option.value name ~default:(String.lowercase_ascii (Prim.name p)) in
  let inst = make ~name:base ~kind:(Primitive p) ~parent:(Some parent) in
  let expected = Prim.port_names p in
  let outputs = Prim.output_ports p in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (port, w) ->
       if not (List.mem port expected) then
         invalid_arg
           (Printf.sprintf "Cell.prim: %s has no port %s" (Prim.name p) port);
       if Hashtbl.mem seen port then
         invalid_arg (Printf.sprintf "Cell.prim: port %s connected twice" port);
       Hashtbl.replace seen port ();
       if Array.length w.nets <> 1 then
         invalid_arg
           (Printf.sprintf "Cell.prim: port %s of %s needs a 1-bit wire, got %d"
              port (Prim.name p) (Array.length w.nets));
       let dir = if List.mem port outputs then Output else Input in
       connect_terminals ?allow_contention inst ~dir ~port w;
       inst.port_bindings <- { formal = port; dir; actual = w } :: inst.port_bindings)
    conns;
  List.iter
    (fun port ->
       if not (Hashtbl.mem seen port) then
         invalid_arg
           (Printf.sprintf "Cell.prim: port %s of %s left unconnected" port
              (Prim.name p)))
    expected;
  inst

let black_box parent ?name ~model_name ~make_behavior ~ports () =
  check_scope_is_composite ~what:"black_box" parent;
  let p = Prim.Black_box { model_name; make_behavior } in
  let base = Option.value name ~default:(String.lowercase_ascii model_name) in
  let inst = make ~name:base ~kind:(Primitive p) ~parent:(Some parent) in
  List.iter
    (fun (port, dir, w) ->
       connect_terminals inst ~dir ~port w;
       inst.port_bindings <- { formal = port; dir; actual = w } :: inst.port_bindings)
    ports;
  inst

let name c = c.cell_name
let id c = c.cell_id

let rec path c =
  match c.parent with
  | None -> c.cell_name
  | Some p -> path p ^ "/" ^ c.cell_name

let parent c = c.parent
let children c = List.rev c.children
let port_bindings c = List.rev c.port_bindings

let owned_wires c =
  List.filter (fun w -> not w.wire_is_view) (List.rev c.owned_wires)

let is_primitive c =
  match c.kind with Primitive _ -> true | Composite _ -> false

let prim_of c =
  match c.kind with Primitive p -> Some p | Composite _ -> None

let type_name c =
  match c.kind with
  | Composite { type_name } -> type_name
  | Primitive p -> Prim.name p

let set_property c key value =
  c.properties <- (key, value) :: List.remove_assoc key c.properties

let get_property c key = List.assoc_opt key c.properties
let properties c = List.rev c.properties
let set_rloc c ~row ~col = c.rloc <- Some (row, col)
let rloc c = c.rloc
let clear_rloc c = c.rloc <- None

let rec iter_rec f c =
  f c;
  List.iter (iter_rec f) (children c)

(* [a ^ "/" ^ b] in one allocation *)
let join a b =
  let la = String.length a and lb = String.length b in
  let s = Bytes.create (la + 1 + lb) in
  Bytes.blit_string a 0 s 0 la;
  Bytes.unsafe_set s la '/';
  Bytes.blit_string b 0 s (la + 1) lb;
  Bytes.unsafe_to_string s

let iter_paths f c =
  let rec below path c =
    List.iter
      (fun child ->
         let p = if path = "" then child.cell_name else join path child.cell_name in
         f child p;
         below p child)
      (children c)
  in
  f c "";
  below "" c

let fold_prims f acc c =
  let acc = ref acc in
  iter_rec (fun c -> if is_primitive c then acc := f !acc c) c;
  !acc

let find_child c name =
  List.find_opt (fun child -> String.equal child.cell_name name) c.children

let find_path c p =
  let segments = String.split_on_char '/' p in
  let rec go c = function
    | [] -> Some c
    | seg :: rest ->
      (match find_child c seg with None -> None | Some child -> go child rest)
  in
  go c (List.filter (fun s -> s <> "") segments)

let equal a b = a.cell_id = b.cell_id

let pp fmt c =
  Format.fprintf fmt "%s:%s" (path c) (type_name c)
