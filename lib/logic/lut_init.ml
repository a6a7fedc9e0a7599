type t = {
  inputs : int;
  table : int; (* bit i = output for input address i *)
}

let check_inputs k =
  if k < 1 || k > 6 then
    invalid_arg (Printf.sprintf "Lut_init: %d inputs not in 1..6" k)

let inputs t = t.inputs

let of_function ~inputs f =
  check_inputs inputs;
  let n = 1 lsl inputs in
  let table = ref 0 in
  for addr = 0 to n - 1 do
    if f addr then table := !table lor (1 lsl addr)
  done;
  { inputs; table = !table }

let of_int ~inputs init =
  check_inputs inputs;
  let mask = (1 lsl (1 lsl inputs)) - 1 in
  { inputs; table = init land mask }

let to_int t = t.table

let hex_digits t = max 1 ((1 lsl t.inputs) / 4)

let of_hex ~inputs s =
  check_inputs inputs;
  let init = int_of_string ("0x" ^ s) in
  of_int ~inputs init

let to_hex t = Hex.upper ~width:(hex_digits t) t.table

let eval_int t addr =
  if addr < 0 || addr >= 1 lsl t.inputs then
    invalid_arg (Printf.sprintf "Lut_init.eval_int: address %d" addr);
  (t.table lsr addr) land 1 = 1

(* With undefined inputs, every address reachable under the unknown-bit
   mask must agree for the output to stay defined. The reachable set is
   enumerated by the subset-walk [sub' = (sub - mask) land mask], which
   visits each subset of [mask] exactly once — no list allocation. *)
let eval t addr_bits =
  if Array.length addr_bits <> t.inputs then
    invalid_arg
      (Printf.sprintf "Lut_init.eval: %d address bits for a LUT%d"
         (Array.length addr_bits) t.inputs);
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
  if mask = 0 then Bit.of_bool (eval_int t base)
  else
    let value = eval_int t base in
    let rec agree sub =
      if eval_int t (base lor sub) <> value then Bit.X
      else if sub = mask then Bit.of_bool value
      else agree ((sub - mask) land mask)
    in
    agree ((0 - mask) land mask)

let equal a b = a.inputs = b.inputs && a.table = b.table

let const_false ~inputs = of_function ~inputs (fun _ -> false)
let const_true ~inputs = of_function ~inputs (fun _ -> true)

let and_all ~inputs =
  of_function ~inputs (fun addr -> addr = (1 lsl inputs) - 1)

let or_all ~inputs = of_function ~inputs (fun addr -> addr <> 0)

let xor_all ~inputs =
  let rec popcount n = if n = 0 then 0 else (n land 1) + popcount (n lsr 1) in
  of_function ~inputs (fun addr -> popcount addr land 1 = 1)

let passthrough ~inputs ~input =
  if input < 0 || input >= inputs then
    invalid_arg "Lut_init.passthrough: input out of range";
  of_function ~inputs (fun addr -> (addr lsr input) land 1 = 1)

let pp fmt t = Format.fprintf fmt "LUT%d:%s" t.inputs (to_hex t)
