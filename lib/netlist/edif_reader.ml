type sexp =
  | Atom of string
  | List of sexp list

exception Parse_error of string

let max_depth = 1024

(* Iterative s-expression parser; atoms are bare words or double-quoted
   strings. The lists still open wait on an explicit stack, each holding
   its items newest first, so nesting costs heap words instead of
   native stack, and a list opened past [max_depth] is refused before
   it costs anything. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error message =
    raise (Parse_error (Printf.sprintf "%s at offset %d" message !pos))
  in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let atom () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
          | ' ' | '\t' | '\n' | '\r' | '(' | ')' -> false
          | _ -> true)
    do
      incr pos
    done;
    Atom (String.sub s start (!pos - start))
  in
  let quoted () =
    incr pos;
    let start = !pos in
    while !pos < n && s.[!pos] <> '"' do
      incr pos
    done;
    if !pos >= n then error "unterminated string";
    let content = String.sub s start (!pos - start) in
    incr pos;
    Atom content
  in
  (* the open lists, innermost first, and how many there are *)
  let open_lists = ref [] and depth = ref 0 in
  (* [next] reads on until an expression closes at the top level and
     returns it; [finish] hands a closed expression to the innermost open
     list. Both calls are tail calls. *)
  let rec next () =
    skip_ws ();
    if !pos >= n then
      error (if !depth = 0 then "unexpected end of input" else "unterminated list");
    match s.[!pos] with
    | '(' ->
      if !depth >= max_depth then
        error (Printf.sprintf "lists nested deeper than %d" max_depth);
      incr pos;
      open_lists := ref [] :: !open_lists;
      incr depth;
      next ()
    | ')' ->
      (match !open_lists with
       | [] -> error "unexpected )"
       | items :: outer ->
         incr pos;
         open_lists := outer;
         decr depth;
         finish (List (List.rev !items)))
    | '"' -> finish (quoted ())
    | _ -> finish (atom ())
  and finish e =
    match !open_lists with
    | [] -> e
    | items :: _ ->
      items := e :: !items;
      next ()
  in
  match
    let e = next () in
    skip_ws ();
    if !pos <> n then error "trailing content";
    e
  with
  | e -> Ok e
  | exception Parse_error message -> Error message

type summary = {
  design_name : string;
  library_cells : string list;
  instance_count : int;
  net_count : int;
  port_count : int;
  init_properties : (string * string) list;
}

let keyword = function
  | List (Atom k :: _) -> Some (String.lowercase_ascii k)
  | List _ | Atom _ -> None

let children_with k items =
  List.filter (fun e -> keyword e = Some k) items

let rec find_all k sexp acc =
  match sexp with
  | Atom _ -> acc
  | List items ->
    let acc =
      if keyword sexp = Some k then sexp :: acc else acc
    in
    List.fold_left (fun acc item -> find_all k item acc) acc items

let summarize sexp =
  match sexp with
  | List (Atom edif :: Atom design_name :: rest)
    when String.lowercase_ascii edif = "edif" ->
    let libraries = children_with "library" rest in
    let tech_cells, design_instances, design_nets, design_ports =
      List.fold_left
        (fun (cells, insts, nets, ports) library ->
           match library with
           | List (_ :: Atom lib_name :: body) ->
             let cell_nodes = children_with "cell" body in
             if String.lowercase_ascii lib_name = "work" then begin
               let instances =
                 List.fold_left (fun acc c -> find_all "instance" c acc) []
                   cell_nodes
               in
               let net_nodes =
                 List.fold_left (fun acc c -> find_all "net" c acc) []
                   cell_nodes
               in
               let port_nodes =
                 List.concat_map
                   (fun c ->
                      List.fold_left
                        (fun acc iface -> find_all "port" iface acc)
                        []
                        (find_all "interface" c []))
                   cell_nodes
               in
               (cells,
                insts + List.length instances,
                nets + List.length net_nodes,
                ports + List.length port_nodes)
             end
             else
               let names =
                 List.filter_map
                   (fun c ->
                      match c with
                      | List (_ :: Atom name :: _) -> Some name
                      | List _ | Atom _ -> None)
                   cell_nodes
               in
               (names @ cells, insts, nets, ports)
           | List _ | Atom _ -> (cells, insts, nets, ports))
        ([], 0, 0, 0) libraries
    in
    let init_properties =
      List.rev (find_all "instance" sexp [])
      |> List.filter_map (fun inst ->
        match inst with
        | List (_ :: Atom inst_name :: body) ->
          List.find_map
            (fun prop ->
               match prop with
               | List [ Atom p; Atom key; List [ Atom _; Atom value ] ]
                 when String.lowercase_ascii p = "property" && key = "INIT" ->
                 Some (inst_name, value)
               | List _ | Atom _ -> None)
            body
        | List _ | Atom _ -> None)
    in
    Ok
      { design_name;
        library_cells = List.sort String.compare tech_cells;
        instance_count = design_instances;
        net_count = design_nets;
        port_count = design_ports;
        init_properties }
  | List _ | Atom _ -> Error "not an (edif ...) document"

let read s = Result.bind (parse s) summarize
