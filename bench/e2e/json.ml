(* The little JSON the benchmark reads and writes: BENCHMARK.json, the
   per-run records and the baseline. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* every digit the float carries; JSON has no NaN or infinity *)
let number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> number x
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr items -> "[" ^ String.concat ", " (List.map to_string items) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) fields)
    ^ "}"

(* the same, one member or item per line, for files people read *)
let rec pretty ?(indent = 0) v =
  let pad = String.make (indent + 2) ' ' in
  let block opening closing items =
    opening ^ "\n" ^ String.concat ",\n" (List.map (fun x -> pad ^ x) items) ^ "\n"
    ^ String.make indent ' ' ^ closing
  in
  match v with
  | Arr (_ :: _ as items) -> block "[" "]" (List.map (pretty ~indent:(indent + 2)) items)
  | Obj (_ :: _ as fields) ->
    block "{" "}"
      (List.map
         (fun (k, x) -> "\"" ^ escape k ^ "\": " ^ pretty ~indent:(indent + 2) x)
         fields)
  | v -> to_string v

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then text.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> incr pos; skip ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = text.[!pos] in
        incr pos;
        (match e with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'u' ->
           (match
              if !pos + 4 > n then None
              else int_of_string_opt ("0x" ^ String.sub text !pos 4)
            with
            | Some code -> Buffer.add_char b (Char.chr (code land 0xFF))
            | None -> fail "bad \\u escape");
           pos := !pos + 4
         | c -> Buffer.add_char b c);
        go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then (incr pos; Obj [])
      else begin
        let rec fields acc =
          skip ();
          let k = string_lit () in
          skip ();
          expect ':';
          let v = value () in
          skip ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
      end
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then (incr pos; Arr [])
      else begin
        let rec items acc =
          let v = value () in
          skip ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
      end
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && (match text.[!pos] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false)
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub text start (!pos - start)) with
       | Some x when !pos > start -> Num x
       | _ -> fail "bad value")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing text";
  v

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse text

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_num = function Num x -> Some x | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr items -> items | _ -> []
let to_obj = function Obj fields -> fields | _ -> []
