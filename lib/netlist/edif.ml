open Jhdl_circuit.Types

let header_libraries = "VIRTEX"
let dir_keyword = function Input -> "INPUT" | Output -> "OUTPUT"

(* EDIF is an s-expression format, so nesting discipline is the whole
   game. Every line goes straight into one buffer: two spaces per level
   of nesting cut from [spaces], then the line's pieces. The writer
   nests eight levels at most. *)
let spaces = String.make 16 ' '

let to_string (m : Model.t) =
  let instances = m.Model.instances and nets = m.Model.nets in
  (* the instance pins on each net, bucketed by net in instance order:
     pins of net [k] sit at [first.(k)] to [first.(k + 1) - 1] of
     [pin_instance] and [pin_port] *)
  let first = Array.make (Array.length nets + 1) 0 in
  Array.iter
    (fun inst ->
       List.iter
         (fun c -> first.(c.Model.conn_net + 1) <- first.(c.Model.conn_net + 1) + 1)
         inst.Model.inst_conns)
    instances;
  for k = 1 to Array.length nets do
    first.(k) <- first.(k) + first.(k - 1)
  done;
  let pins = first.(Array.length nets) in
  let pin_instance = Array.make pins 0 and pin_port = Array.make pins "" in
  let fill = Array.sub first 0 (Array.length nets) in
  Array.iteri
    (fun i inst ->
       List.iter
         (fun c ->
            let k = c.Model.conn_net in
            pin_instance.(fill.(k)) <- i;
            pin_port.(fill.(k)) <- c.Model.conn_port;
            fill.(k) <- fill.(k) + 1)
         inst.Model.inst_conns)
    instances;
  (* 4 KB of header and declarations, then about a line for each
     instance, pin and net: under 96 bytes apiece, names included, on
     the catalog's designs, so the buffer rarely grows *)
  let b = Buffer.create (4096 + 96 * (Array.length instances + pins + Array.length nets)) in
  let add s = Buffer.add_string b s in
  let at depth = Buffer.add_substring b spaces 0 (2 * depth) in
  let close depth =
    at depth;
    add ")\n"
  in
  let ids = Ident.create Ident.Edif in
  let id s = Ident.legalize ids s in
  let port_line depth name width dir =
    at depth;
    if width = 1 then begin
      add "(port ";
      add name
    end
    else begin
      add "(port (array ";
      add name;
      add " ";
      add (string_of_int width);
      add ")"
    end;
    add " (direction ";
    add (dir_keyword dir);
    add "))\n"
  in
  let design_id = id m.Model.design_name in
  add "(edif ";
  add design_id;
  add "\n";
  add "  (edifVersion 2 0 0)\n";
  add "  (edifLevel 0)\n";
  add "  (keywordMap (keywordLevel 0))\n";
  add "  (status (written (timeStamp 2002 6 10 0 0 0)\n";
  add "    (program \"JHDL-OCaml\" (version \"1.0\"))))\n";
  (* library of technology cells *)
  add "  (library ";
  add header_libraries;
  add "\n";
  add "    (edifLevel 0)\n";
  add "    (technology (numberDefinition))\n";
  List.iter
    (fun (cell_name, ports) ->
       at 2;
       add "(cell ";
       add (id cell_name);
       add " (cellType GENERIC)\n";
       add "      (view view_1 (viewType NETLIST)\n";
       add "        (interface\n";
       List.iter (fun (port, dir) -> port_line 5 (id port) 1 dir) ports;
       close 4;
       close 3;
       close 2)
    (Model.lib_cells m);
  close 1;
  (* the design library holding the single flattened cell *)
  add "  (library work\n";
  add "    (edifLevel 0)\n";
  add "    (technology (numberDefinition))\n";
  add "    (cell ";
  add design_id;
  add " (cellType GENERIC)\n";
  add "      (view view_1 (viewType NETLIST)\n";
  add "        (interface\n";
  List.iter
    (fun p -> port_line 5 (id p.Model.p_name) p.Model.p_width p.Model.p_dir)
    m.Model.ports;
  close 4;
  add "        (contents\n";
  (* each instance name is legalized once, here; port references index
     the array *)
  let instance_ids =
    Array.map
      (fun inst ->
         let name = id ("i/" ^ inst.Model.inst_name) in
         add "          (instance ";
         add name;
         add "\n";
         add "            (viewRef view_1 (cellRef ";
         add (id inst.Model.inst_lib_cell);
         add " (libraryRef ";
         add header_libraries;
         add ")))\n";
         List.iter
           (fun a ->
              add "            (property ";
              add a.Model.attr_name;
              add " (string \"";
              add a.Model.attr_value;
              add "\"))\n")
           inst.Model.inst_attrs;
         close 5;
         name)
      instances
  in
  (* the external interface ports on each net, newest first *)
  let external_refs = Array.make (Array.length nets) [] in
  List.iter
    (fun p ->
       Array.iteri
         (fun bit net ->
            external_refs.(net) <-
              (p.Model.p_name, p.Model.p_width, bit) :: external_refs.(net))
         p.Model.p_nets)
    m.Model.ports;
  Array.iter
    (fun n ->
       let k = n.Model.net_index in
       if first.(k) < first.(k + 1) || external_refs.(k) <> [] then begin
         add "          (net ";
         add (id ("n/" ^ n.Model.net_name));
         add "\n";
         add "            (joined\n";
         for pin = first.(k) to first.(k + 1) - 1 do
           add "              (portRef ";
           add (id pin_port.(pin));
           add " (instanceRef ";
           add instance_ids.(pin_instance.(pin));
           add "))\n"
         done;
         List.iter
           (fun (pname, pwidth, bit) ->
              if pwidth = 1 then begin
                add "              (portRef ";
                add (id pname);
                add ")\n"
              end
              else begin
                add "              (portRef (member ";
                add (id pname);
                add " ";
                add (string_of_int (pwidth - 1 - bit));
                add "))\n"
              end)
           (List.rev external_refs.(k));
         close 6;
         close 5
       end)
    nets;
  close 4;
  close 3;
  close 2;
  close 1;
  add "  (design ";
  add design_id;
  add " (cellRef ";
  add design_id;
  add " (libraryRef work)))\n";
  close 0;
  Buffer.contents b

let of_design d = to_string (Model.of_design d)
