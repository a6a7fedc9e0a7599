type param_kind =
  | Int_param of { min_value : int; max_value : int; default : int }
  | Bool_param of { default : bool }
  | Choice_param of { choices : string list; default : string }

type param_value =
  | Int_value of int
  | Bool_value of bool
  | Choice_value of string

type built = {
  design : Jhdl_circuit.Design.t;
  clock_port : string option;
  latency : int;
  notes : string list;
}

type t = {
  ip_name : string;
  vendor : string;
  description : string;
  params : (string * param_kind) list;
  build : (string * param_value) list -> built;
  reference :
    ((string * param_value) list ->
     Jhdl_logic.Bits.t list ->
     Jhdl_logic.Bits.t list)
    option;
  shipped_bench :
    ((string * param_value) list -> built -> Jhdl_sim.Testbench.step list)
    option;
}

let default_of = function
  | Int_param { default; _ } -> Int_value default
  | Bool_param { default } -> Bool_value default
  | Choice_param { default; _ } -> Choice_value default

let defaults t = List.map (fun (name, kind) -> (name, default_of kind)) t.params

let param_to_string = function
  | Int_value v -> string_of_int v
  | Bool_value v -> string_of_bool v
  | Choice_value v -> v

let kind_matches kind value =
  match kind, value with
  | Int_param { min_value; max_value; _ }, Int_value v ->
    if v < min_value || v > max_value then
      Error (Printf.sprintf "value %d outside %d..%d" v min_value max_value)
    else Ok ()
  | Bool_param _, Bool_value _ -> Ok ()
  | Choice_param { choices; _ }, Choice_value v ->
    if List.mem v choices then Ok ()
    else Error (Printf.sprintf "%s not one of {%s}" v (String.concat ", " choices))
  | Int_param _, (Bool_value _ | Choice_value _)
  | Bool_param _, (Int_value _ | Choice_value _)
  | Choice_param _, (Int_value _ | Bool_value _) -> Error "wrong parameter kind"

let validate t assignment =
  let unknown =
    List.find_opt (fun (n, _) -> not (List.mem_assoc n t.params)) assignment
  in
  match unknown with
  | Some (n, _) -> Error (Printf.sprintf "unknown parameter %s" n)
  | None ->
    let rec fill acc = function
      | [] -> Ok (List.rev acc)
      | (name, kind) :: rest ->
        (match List.assoc_opt name assignment with
         | None -> fill ((name, default_of kind) :: acc) rest
         | Some value ->
           (match kind_matches kind value with
            | Ok () -> fill ((name, value) :: acc) rest
            | Error message ->
              Error (Printf.sprintf "parameter %s: %s" name message)))
    in
    fill [] t.params

let parse_param kind s =
  match kind with
  | Int_param { min_value; max_value; _ } ->
    (match int_of_string_opt (String.trim s) with
     | Some v ->
       if v < min_value || v > max_value then
         Error (Printf.sprintf "value %d outside %d..%d" v min_value max_value)
       else Ok (Int_value v)
     | None -> Error (Printf.sprintf "not an integer: %s" s))
  | Bool_param _ ->
    (match String.lowercase_ascii (String.trim s) with
     | "true" | "yes" | "1" | "on" -> Ok (Bool_value true)
     | "false" | "no" | "0" | "off" -> Ok (Bool_value false)
     | other -> Error (Printf.sprintf "not a boolean: %s" other))
  | Choice_param { choices; _ } ->
    let v = String.trim s in
    if List.mem v choices then Ok (Choice_value v)
    else Error (Printf.sprintf "%s not one of {%s}" v (String.concat ", " choices))

let parse_field t name text =
  match List.assoc_opt name t.params with
  | None -> Error (Printf.sprintf "unknown parameter %s" name)
  | Some kind -> parse_param kind text

(* [String.equal], not [List.mem_assoc]'s polymorphic compare: every
   served request runs this *)
let rec given name = function
  | [] -> false
  | (seen, _) :: rest -> String.equal seen name || given name rest

let parse_params t fields =
  let rec go acc = function
    | [] -> validate t (List.rev acc)
    | (name, _) :: _ when given name acc ->
      Error (Printf.sprintf "parameter %s given twice" name)
    | (name, text) :: rest ->
      (match parse_field t name text with
       | Error message -> Error message
       | Ok value -> go ((name, value) :: acc) rest)
  in
  go [] fields

let form t =
  let buffer = Buffer.create 256 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer s) fmt in
  add "%s (%s)\n%s\nparameters:\n" t.ip_name t.vendor t.description;
  List.iter
    (fun (name, kind) ->
       match kind with
       | Int_param { min_value; max_value; default } ->
         add "  %-16s int    %d..%d (default %d)\n" name min_value max_value
           default
       | Bool_param { default } ->
         add "  %-16s bool   (default %b)\n" name default
       | Choice_param { choices; default } ->
         add "  %-16s choice {%s} (default %s)\n" name
           (String.concat ", " choices)
           default)
    t.params;
  Buffer.contents buffer

let int_param assignment name =
  match List.assoc_opt name assignment with
  | Some (Int_value v) -> v
  | Some (Bool_value _ | Choice_value _) | None ->
    invalid_arg (Printf.sprintf "Ip_module.int_param: %s" name)

let bool_param assignment name =
  match List.assoc_opt name assignment with
  | Some (Bool_value v) -> v
  | Some (Int_value _ | Choice_value _) | None ->
    invalid_arg (Printf.sprintf "Ip_module.bool_param: %s" name)

let choice_param assignment name =
  match List.assoc_opt name assignment with
  | Some (Choice_value v) -> v
  | Some (Int_value _ | Bool_value _) | None ->
    invalid_arg (Printf.sprintf "Ip_module.choice_param: %s" name)
