(* Unit and property tests for the four-valued logic foundation. *)

module Bit = Jhdl_logic.Bit
module Bits = Jhdl_logic.Bits
module Lut_init = Jhdl_logic.Lut_init
module Hex = Jhdl_logic.Hex

let bit = Alcotest.testable Bit.pp Bit.equal
let bits = Alcotest.testable Bits.pp Bits.equal

let check_bit = Alcotest.check bit
let check_bits = Alcotest.check bits

(* {1 Bit} *)

let test_bit_of_bool () =
  check_bit "true" Bit.One (Bit.of_bool true);
  check_bit "false" Bit.Zero (Bit.of_bool false)

let test_bit_to_bool () =
  Alcotest.(check (option bool)) "one" (Some true) (Bit.to_bool Bit.One);
  Alcotest.(check (option bool)) "zero" (Some false) (Bit.to_bool Bit.Zero);
  Alcotest.(check (option bool)) "x" None (Bit.to_bool Bit.X);
  Alcotest.(check (option bool)) "z" None (Bit.to_bool Bit.Z)

let test_bit_chars () =
  List.iter
    (fun (c, b) ->
       check_bit (Printf.sprintf "of_char %c" c) b (Bit.of_char c);
       Alcotest.(check char) "roundtrip" (Char.lowercase_ascii c) (Bit.to_char b))
    [ ('0', Bit.Zero); ('1', Bit.One); ('x', Bit.X); ('z', Bit.Z) ];
  Alcotest.check_raises "bad char" (Invalid_argument "Bit.of_char: '2'")
    (fun () -> ignore (Bit.of_char '2'))

let test_bit_and_dominance () =
  check_bit "0 & x = 0" Bit.Zero (Bit.and_ Bit.Zero Bit.X);
  check_bit "x & 0 = 0" Bit.Zero (Bit.and_ Bit.X Bit.Zero);
  check_bit "1 & x = x" Bit.X (Bit.and_ Bit.One Bit.X);
  check_bit "z & 1 = x" Bit.X (Bit.and_ Bit.Z Bit.One);
  check_bit "1 & 1 = 1" Bit.One (Bit.and_ Bit.One Bit.One)

let test_bit_or_dominance () =
  check_bit "1 | x = 1" Bit.One (Bit.or_ Bit.One Bit.X);
  check_bit "x | 1 = 1" Bit.One (Bit.or_ Bit.X Bit.One);
  check_bit "0 | x = x" Bit.X (Bit.or_ Bit.Zero Bit.X);
  check_bit "0 | 0 = 0" Bit.Zero (Bit.or_ Bit.Zero Bit.Zero)

let test_bit_xor () =
  check_bit "1 ^ 1 = 0" Bit.Zero (Bit.xor Bit.One Bit.One);
  check_bit "1 ^ 0 = 1" Bit.One (Bit.xor Bit.One Bit.Zero);
  check_bit "x ^ 0 = x" Bit.X (Bit.xor Bit.X Bit.Zero);
  check_bit "1 ^ z = x" Bit.X (Bit.xor Bit.One Bit.Z)

let test_bit_not () =
  check_bit "~0" Bit.One (Bit.not_ Bit.Zero);
  check_bit "~1" Bit.Zero (Bit.not_ Bit.One);
  check_bit "~x" Bit.X (Bit.not_ Bit.X);
  check_bit "~z" Bit.X (Bit.not_ Bit.Z)

let test_bit_mux () =
  check_bit "sel=0" Bit.One (Bit.mux ~sel:Bit.Zero Bit.One Bit.Zero);
  check_bit "sel=1" Bit.Zero (Bit.mux ~sel:Bit.One Bit.One Bit.Zero);
  check_bit "sel=x, agree" Bit.One (Bit.mux ~sel:Bit.X Bit.One Bit.One);
  check_bit "sel=x, disagree" Bit.X (Bit.mux ~sel:Bit.X Bit.One Bit.Zero)

let test_bit_resolve () =
  check_bit "z resolves away" Bit.One (Bit.resolve Bit.Z Bit.One);
  check_bit "z resolves away 2" Bit.Zero (Bit.resolve Bit.Zero Bit.Z);
  check_bit "conflict" Bit.X (Bit.resolve Bit.Zero Bit.One);
  check_bit "agreement" Bit.One (Bit.resolve Bit.One Bit.One)

let test_bit_derived_gates () =
  check_bit "nand" Bit.Zero (Bit.nand Bit.One Bit.One);
  check_bit "nor" Bit.Zero (Bit.nor Bit.One Bit.Zero);
  check_bit "xnor" Bit.One (Bit.xnor Bit.One Bit.One)

(* {1 Bits} *)

let test_bits_of_int () =
  check_bits "5 as 4 bits" (Bits.of_string "0101") (Bits.of_int ~width:4 5);
  check_bits "-1 as 4 bits" (Bits.of_string "1111") (Bits.of_int ~width:4 (-1));
  check_bits "-56 as 8 bits" (Bits.of_string "11001000")
    (Bits.of_int ~width:8 (-56))

let test_bits_to_int () =
  Alcotest.(check (option int)) "to_int" (Some 10)
    (Bits.to_int (Bits.of_string "1010"));
  Alcotest.(check (option int)) "to_int with x" None
    (Bits.to_int (Bits.of_string "1x10"));
  Alcotest.(check (option int)) "signed negative" (Some (-6))
    (Bits.to_signed_int (Bits.of_string "1010"));
  Alcotest.(check (option int)) "signed positive" (Some 5)
    (Bits.to_signed_int (Bits.of_string "0101"));
  Alcotest.(check (option int)) "empty" (Some 0) (Bits.to_int (Bits.zero 0))

let test_bits_string_roundtrip () =
  let s = "1x0z_1010" in
  Alcotest.(check string) "roundtrip drops underscore" "1x0z1010"
    (Bits.to_string (Bits.of_string s));
  Alcotest.(check string) "0b prefix" "101"
    (Bits.to_string (Bits.of_string "0b101"))

let test_bits_slice_concat () =
  let v = Bits.of_string "110010" in
  check_bits "slice low" (Bits.of_string "10") (Bits.slice v ~lo:0 ~hi:1);
  check_bits "slice mid" (Bits.of_string "100") (Bits.slice v ~lo:2 ~hi:4);
  check_bits "concat"
    (Bits.of_string "11010")
    (Bits.concat (Bits.of_string "110") (Bits.of_string "10"))

let test_bits_extend () =
  check_bits "zero extend" (Bits.of_string "00101")
    (Bits.zero_extend (Bits.of_string "101") 5);
  check_bits "sign extend" (Bits.of_string "11101")
    (Bits.sign_extend (Bits.of_string "101") 5);
  check_bits "truncate" (Bits.of_string "01")
    (Bits.sign_extend (Bits.of_string "101") 2)

let test_bits_add_sub () =
  let a = Bits.of_int ~width:8 100 and b = Bits.of_int ~width:8 55 in
  Alcotest.(check (option int)) "100+55" (Some 155) (Bits.to_int (Bits.add a b));
  Alcotest.(check (option int)) "100-55" (Some 45) (Bits.to_int (Bits.sub a b));
  Alcotest.(check (option int)) "overflow wraps" (Some 44)
    (Bits.to_int (Bits.add (Bits.of_int ~width:8 200) (Bits.of_int ~width:8 100)));
  let sum, carry = Bits.add_carry (Bits.of_int ~width:4 15) (Bits.of_int ~width:4 1) ~cin:Bit.Zero in
  Alcotest.(check (option int)) "carry sum" (Some 0) (Bits.to_int sum);
  check_bit "carry out" Bit.One carry

let test_bits_add_x_poisons () =
  let a = Bits.of_string "1x10" and b = Bits.of_int ~width:4 1 in
  Alcotest.(check bool) "result has x" false (Bits.is_fully_defined (Bits.add a b))

let test_bits_neg () =
  Alcotest.(check (option int)) "neg 5" (Some (-5))
    (Bits.to_signed_int (Bits.neg (Bits.of_int ~width:8 5)));
  Alcotest.(check (option int)) "neg 0" (Some 0)
    (Bits.to_signed_int (Bits.neg (Bits.of_int ~width:8 0)))

let test_bits_mul () =
  Alcotest.(check (option int)) "12*13" (Some 156)
    (Bits.to_int (Bits.mul (Bits.of_int ~width:4 12) (Bits.of_int ~width:4 13)));
  Alcotest.(check (option int)) "signed -3*7" (Some (-21))
    (Bits.to_signed_int
       (Bits.mul_signed (Bits.of_int ~width:4 (-3)) (Bits.of_int ~width:4 7)));
  Alcotest.(check (option int)) "signed -8*-8 (min*min)" (Some 64)
    (Bits.to_signed_int
       (Bits.mul_signed (Bits.of_int ~width:4 (-8)) (Bits.of_int ~width:4 (-8))))

let test_bits_shift () =
  check_bits "shl" (Bits.of_string "0100") (Bits.shift_left (Bits.of_string "0001") 2);
  check_bits "shr" (Bits.of_string "0001") (Bits.shift_right (Bits.of_string "0100") 2)

let test_bits_reduce () =
  check_bit "and all ones" Bit.One (Bits.reduce_and (Bits.ones 5));
  check_bit "or of zero" Bit.Zero (Bits.reduce_or (Bits.zero 5));
  check_bit "xor parity" Bit.One (Bits.reduce_xor (Bits.of_string "0111"))

let test_bits_bitwise () =
  check_bits "and" (Bits.of_string "1000")
    (Bits.logand (Bits.of_string "1100") (Bits.of_string "1010"));
  check_bits "or" (Bits.of_string "1110")
    (Bits.logor (Bits.of_string "1100") (Bits.of_string "1010"));
  check_bits "xor" (Bits.of_string "0110")
    (Bits.logxor (Bits.of_string "1100") (Bits.of_string "1010"));
  check_bits "not" (Bits.of_string "0011") (Bits.lognot (Bits.of_string "1100"))

(* {1 Lut_init} *)

let test_lut_of_function () =
  let and2 = Lut_init.of_function ~inputs:2 (fun a -> a = 3) in
  Alcotest.(check int) "and2 init" 0x8 (Lut_init.to_int and2);
  Alcotest.(check string) "and2 hex" "8" (Lut_init.to_hex and2);
  let xor4 = Lut_init.xor_all ~inputs:4 in
  Alcotest.(check string) "xor4 hex" "6996" (Lut_init.to_hex xor4)

let test_lut_eval_defined () =
  let mux = Lut_init.of_function ~inputs:3 (fun a ->
    let x = a land 1 = 1 and y = a land 2 = 2 and s = a land 4 = 4 in
    if s then y else x)
  in
  check_bit "sel 0 picks x" Bit.One
    (Lut_init.eval mux [| Bit.One; Bit.Zero; Bit.Zero |]);
  check_bit "sel 1 picks y" Bit.Zero
    (Lut_init.eval mux [| Bit.One; Bit.Zero; Bit.One |])

let test_lut_eval_x () =
  let and2 = Lut_init.and_all ~inputs:2 in
  check_bit "0 & x = 0 through lut" Bit.Zero
    (Lut_init.eval and2 [| Bit.Zero; Bit.X |]);
  check_bit "1 & x = x through lut" Bit.X
    (Lut_init.eval and2 [| Bit.One; Bit.X |]);
  let const1 = Lut_init.const_true ~inputs:2 in
  check_bit "const is immune to x" Bit.One
    (Lut_init.eval const1 [| Bit.X; Bit.X |])

let test_lut_hex_roundtrip () =
  let t = Lut_init.of_hex ~inputs:4 "CAFE" in
  Alcotest.(check string) "roundtrip" "CAFE" (Lut_init.to_hex t);
  Alcotest.(check int) "int" 0xCAFE (Lut_init.to_int t)

let test_lut_passthrough () =
  let p = Lut_init.passthrough ~inputs:4 ~input:2 in
  check_bit "passes input 2" Bit.One
    (Lut_init.eval p [| Bit.Zero; Bit.Zero; Bit.One; Bit.Zero |]);
  check_bit "ignores others" Bit.Zero
    (Lut_init.eval p [| Bit.One; Bit.One; Bit.Zero; Bit.One |])

let test_lut_bad_inputs () =
  Alcotest.check_raises "0 inputs" (Invalid_argument "Lut_init: 0 inputs not in 1..6")
    (fun () -> ignore (Lut_init.of_int ~inputs:0 0));
  Alcotest.check_raises "7 inputs" (Invalid_argument "Lut_init: 7 inputs not in 1..6")
    (fun () -> ignore (Lut_init.of_int ~inputs:7 0))

(* {1 Properties} *)

let bits_gen width =
  QCheck.Gen.(map (fun k -> Bits.of_int ~width k) (int_bound ((1 lsl width) - 1)))

let arb_bits width =
  QCheck.make ~print:Bits.to_string (bits_gen width)

let prop_add_matches_int =
  QCheck.Test.make ~name:"add matches integer addition mod 2^w" ~count:500
    (QCheck.pair (arb_bits 10) (arb_bits 10))
    (fun (a, b) ->
       let expect =
         (Option.get (Bits.to_int a) + Option.get (Bits.to_int b)) land 1023
       in
       Bits.to_int (Bits.add a b) = Some expect)

let prop_sub_add_inverse =
  QCheck.Test.make ~name:"sub (add a b) b = a" ~count:500
    (QCheck.pair (arb_bits 12) (arb_bits 12))
    (fun (a, b) -> Bits.equal (Bits.sub (Bits.add a b) b) a)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"mul matches integer product" ~count:500
    (QCheck.pair (arb_bits 8) (arb_bits 8))
    (fun (a, b) ->
       Bits.to_int (Bits.mul a b)
       = Some (Option.get (Bits.to_int a) * Option.get (Bits.to_int b)))

let prop_mul_signed_matches_int =
  QCheck.Test.make ~name:"mul_signed matches signed product" ~count:500
    (QCheck.pair (arb_bits 8) (arb_bits 8))
    (fun (a, b) ->
       Bits.to_signed_int (Bits.mul_signed a b)
       = Some
           (Option.get (Bits.to_signed_int a) * Option.get (Bits.to_signed_int b)))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string roundtrip" ~count:300
    (arb_bits 16)
    (fun v -> Bits.equal (Bits.of_string (Bits.to_string v)) v)

let prop_neg_involutive =
  QCheck.Test.make ~name:"neg (neg v) = v" ~count:300 (arb_bits 9)
    (fun v -> Bits.equal (Bits.neg (Bits.neg v)) v)

let prop_add_carry_is_wide_add =
  QCheck.Test.make ~name:"add_carry agrees with one-bit-wider addition"
    ~count:300
    (QCheck.pair (arb_bits 9) (arb_bits 9))
    (fun (a, b) ->
       let sum, carry = Bits.add_carry a b ~cin:Bit.Zero in
       let wide =
         Bits.add (Bits.zero_extend a 10) (Bits.zero_extend b 10)
       in
       Bits.equal (Bits.concat (Bits.of_list [ carry ]) sum) wide)

let prop_shift_left_multiplies =
  QCheck.Test.make ~name:"shift_left k multiplies by 2^k (mod width)"
    ~count:300
    (QCheck.pair (arb_bits 10) (QCheck.int_bound 9))
    (fun (v, k) ->
       Bits.to_int (Bits.shift_left v k)
       = Some ((Option.get (Bits.to_int v) lsl k) land 1023))

let prop_slice_concat_roundtrip =
  QCheck.Test.make ~name:"concat (slice hi) (slice lo) = id" ~count:300
    (QCheck.pair (arb_bits 12) (QCheck.int_range 1 11))
    (fun (v, cut) ->
       let lo = Bits.slice v ~lo:0 ~hi:(cut - 1) in
       let hi = Bits.slice v ~lo:cut ~hi:11 in
       Bits.equal (Bits.concat hi lo) v)

let prop_lut_eval_matches_function =
  QCheck.Test.make ~name:"lut eval matches defining function" ~count:500
    QCheck.(pair (int_bound 0xFFFF) (int_bound 15))
    (fun (init, addr) ->
       let t = Lut_init.of_int ~inputs:4 init in
       let addr_bits =
         Array.init 4 (fun i -> Bit.of_bool ((addr lsr i) land 1 = 1))
       in
       Bit.equal (Lut_init.eval t addr_bits) (Bit.of_bool (Lut_init.eval_int t addr)))

(* zero at width 0 still prints one digit; negative values read as
   unsigned 63-bit *)
let test_hex_edges () =
  List.iter
    (fun (n, width) ->
       let name = Printf.sprintf "%d at width %d" n width in
       Alcotest.(check string) name (Printf.sprintf "%0*X" width n) (Hex.upper ~width n);
       Alcotest.(check string) name (Printf.sprintf "%0*x" width n) (Hex.lower ~width n))
    [ (0, 0); (0, 1); (0, 4); (15, 0); (16, 1); (0x10, 4); (0xCAFE, 4);
      (0x12345, 4); (-1, 0); (-1, 20); (min_int, 1); (max_int, 0) ]

let prop_hex_matches_printf =
  QCheck.Test.make ~name:"hex digits match printf" ~count:1000
    QCheck.(pair (oneof [ int; int_bound 0xFFFF; int_range (-16) 16 ]) (int_bound 20))
    (fun (n, width) ->
       Hex.upper ~width n = Printf.sprintf "%0*X" width n
       && Hex.lower ~width n = Printf.sprintf "%0*x" width n)

(* {1 Packed plane view} *)

let test_planes_roundtrip () =
  let v = Bits.of_string "10xz01zx" in
  let p0, p1 = Bits.to_planes v in
  check_bits "roundtrip" v (Bits.of_planes ~width:8 p0 p1);
  (* the encoding itself: Zero=(0,0) One=(1,0) X=(0,1) Z=(1,1); bit i
     of each plane word is index i, and of_string is MSB-first, so the
     string reads i7..i0 left to right *)
  Alcotest.(check int) "plane0" 0b10010110 p0;
  Alcotest.(check int) "plane1" 0b00110011 p1

let test_planes_bounds () =
  Alcotest.check_raises "to_planes over 63"
    (Invalid_argument "Bits.to_planes: width 64 exceeds 63") (fun () ->
      ignore (Bits.to_planes (Bits.zero 64)));
  Alcotest.check_raises "of_planes over 63"
    (Invalid_argument "Bits.of_planes: width 64 out of 0..63") (fun () ->
      ignore (Bits.of_planes ~width:64 0 0));
  Alcotest.check_raises "of_planes negative"
    (Invalid_argument "Bits.of_planes: width -1 out of 0..63") (fun () ->
      ignore (Bits.of_planes ~width:(-1) 0 0));
  check_bits "empty ok" (Bits.zero 0) (Bits.of_planes ~width:0 0 0)

let arb_xz_bits width =
  QCheck.make
    ~print:(fun v -> Bits.to_string v)
    QCheck.Gen.(
      map
        (fun codes -> Bits.init width (fun i -> Bit.of_code codes.(i)))
        (array_repeat width (int_bound 3)))

let prop_planes_roundtrip =
  QCheck.Test.make ~name:"to_planes/of_planes roundtrip over 4 values"
    ~count:500 (arb_xz_bits 63) (fun v ->
      Bits.equal (Bits.of_planes ~width:63 (fst (Bits.to_planes v))
                    (snd (Bits.to_planes v)))
        v)

let suite =
  [ Alcotest.test_case "bit of_bool" `Quick test_bit_of_bool;
    Alcotest.test_case "bit to_bool" `Quick test_bit_to_bool;
    Alcotest.test_case "bit chars" `Quick test_bit_chars;
    Alcotest.test_case "bit and dominance" `Quick test_bit_and_dominance;
    Alcotest.test_case "bit or dominance" `Quick test_bit_or_dominance;
    Alcotest.test_case "bit xor" `Quick test_bit_xor;
    Alcotest.test_case "bit not" `Quick test_bit_not;
    Alcotest.test_case "bit mux" `Quick test_bit_mux;
    Alcotest.test_case "bit resolve" `Quick test_bit_resolve;
    Alcotest.test_case "bit derived gates" `Quick test_bit_derived_gates;
    Alcotest.test_case "bits of_int" `Quick test_bits_of_int;
    Alcotest.test_case "bits to_int" `Quick test_bits_to_int;
    Alcotest.test_case "bits string roundtrip" `Quick test_bits_string_roundtrip;
    Alcotest.test_case "bits slice/concat" `Quick test_bits_slice_concat;
    Alcotest.test_case "bits extend" `Quick test_bits_extend;
    Alcotest.test_case "bits add/sub" `Quick test_bits_add_sub;
    Alcotest.test_case "bits add x poisons" `Quick test_bits_add_x_poisons;
    Alcotest.test_case "bits neg" `Quick test_bits_neg;
    Alcotest.test_case "bits mul" `Quick test_bits_mul;
    Alcotest.test_case "bits shift" `Quick test_bits_shift;
    Alcotest.test_case "bits reduce" `Quick test_bits_reduce;
    Alcotest.test_case "bits bitwise" `Quick test_bits_bitwise;
    Alcotest.test_case "lut of_function" `Quick test_lut_of_function;
    Alcotest.test_case "lut eval defined" `Quick test_lut_eval_defined;
    Alcotest.test_case "lut eval x" `Quick test_lut_eval_x;
    Alcotest.test_case "lut hex roundtrip" `Quick test_lut_hex_roundtrip;
    Alcotest.test_case "lut passthrough" `Quick test_lut_passthrough;
    Alcotest.test_case "lut bad inputs" `Quick test_lut_bad_inputs;
    Alcotest.test_case "hex digits at the edges" `Quick test_hex_edges;
    Alcotest.test_case "plane view roundtrip" `Quick test_planes_roundtrip;
    Alcotest.test_case "plane view bounds" `Quick test_planes_bounds ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_add_matches_int;
        prop_sub_add_inverse;
        prop_mul_matches_int;
        prop_mul_signed_matches_int;
        prop_string_roundtrip;
        prop_neg_involutive;
        prop_add_carry_is_wide_add;
        prop_shift_left_multiplies;
        prop_slice_concat_roundtrip;
        prop_lut_eval_matches_function;
        prop_hex_matches_printf;
        prop_planes_roundtrip ]
