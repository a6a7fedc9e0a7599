(* [lsr] reads a negative [n] as its unsigned 63-bit value, as [%X] does;
   the count starts past the lowest digit, which is always written *)
let write digits ~width n =
  let rec length k v = if v = 0 && k >= width then k else length (k + 1) (v lsr 4) in
  let len = length 1 (n lsr 4) in
  let s = Bytes.create len in
  let v = ref n in
  for i = len - 1 downto 0 do
    Bytes.unsafe_set s i digits.[!v land 15];
    v := !v lsr 4
  done;
  Bytes.unsafe_to_string s

let upper ~width n = write "0123456789ABCDEF" ~width n
let lower ~width n = write "0123456789abcdef" ~width n
