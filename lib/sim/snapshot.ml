(* Checkpoint blob format, shared by [Simulator] and [Reference].

   Layout (integers big-endian):

     "JSNP"  magic                                   4 bytes
     version                                         1
     design signature                                4
     cycle counter                                   4
     net count N, then N code bytes                  4 + N
     seq count S, then S entries                     4 + ...
       path length (u16), path bytes
       'F' + 1 code byte          flip-flop
       'M' + 16 code bytes        SRL / RAM cells
     watch count W (u16), then W entries             2 + ...
       label length (u16), label bytes
       sample count (u32), then per sample:
         cycle (u32), width (u16), width code bytes
     CRC-16 over everything after the magic          2

   State entries are keyed by instance path, not evaluation rank: the
   kernel levelizes in rank order and the interpreter keeps hierarchy
   order, and paths are the one key both agree on. *)

module Bits = Jhdl_logic.Bits
module Bit = Jhdl_logic.Bit
module Lut_init = Jhdl_logic.Lut_init
module Hex = Jhdl_logic.Hex
module Prim = Jhdl_circuit.Prim
module Cell = Jhdl_circuit.Cell
module Wire = Jhdl_circuit.Wire
module Design = Jhdl_circuit.Design

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt
let magic = "JSNP"
let version = 1

type seq_state =
  | Flop of int
  | Mem of Bytes.t

type image = {
  image_signature : int;
  image_cycles : int;
  image_nets : Bytes.t;
  image_seq : (string * seq_state) list;
  image_watches : (string * (int * Bits.t) list) list;
}

(* CRC-16/CCITT-FALSE, bit-identical to the wire protocol's checksum —
   both delegate to the one shared implementation *)
let crc16 = Jhdl_logic.Crc16.checksum
let crc16_sub = Jhdl_logic.Crc16.checksum_sub

(* ------------------------------------------------------------------ *)
(* Design signature.                                                   *)

let fnv1a32 s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF)
    s;
  !h

(* FNV-1a/64 in Int64 arithmetic: OCaml's native int is 63 bits, one
   short of the hash width *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
       h :=
         Int64.mul
           (Int64.logxor !h (Int64.of_int (Char.code c)))
           0x100000001b3L)
    s;
  !h

let add_hex b n = Buffer.add_string b (Hex.lower ~width:1 n)

(* [Prim.name] alone would collide distinct parameterizations (it drops
   INIT values), so the descriptor spells them out. *)
let add_prim b = function
  | Prim.Lut init ->
    Buffer.add_string b "LUT";
    Buffer.add_string b (string_of_int (Lut_init.inputs init));
    Buffer.add_char b '=';
    add_hex b (Lut_init.to_int init)
  | Prim.Ff { clock_enable; async_clear; sync_reset; init } ->
    Buffer.add_string b "FF:";
    Buffer.add_string b (string_of_bool clock_enable);
    Buffer.add_char b ':';
    Buffer.add_string b (string_of_bool async_clear);
    Buffer.add_char b ':';
    Buffer.add_string b (string_of_bool sync_reset);
    Buffer.add_char b ':';
    Buffer.add_string b (string_of_int (Bit.to_code init))
  | Prim.Srl16 { init } ->
    Buffer.add_string b "SRL16=";
    add_hex b init
  | Prim.Ram16x1 { init } ->
    Buffer.add_string b "RAM16X1=";
    add_hex b init
  | Prim.Black_box { model_name; _ } ->
    Buffer.add_string b "BB:";
    Buffer.add_string b model_name
  | p -> Buffer.add_string b (Prim.name p)

(* The net count, then one walk over the hierarchy carrying each cell's
   path below the root, spelling out every primitive under its
   instance path. *)
let descriptor design =
  let b = Buffer.create 1024 in
  let root_name = Design.name design in
  Buffer.add_string b root_name;
  List.iter
    (fun p ->
       Buffer.add_char b '|';
       Buffer.add_string b p.Design.port_name;
       Buffer.add_char b
         (match p.Design.port_dir with
          | Jhdl_circuit.Types.Input -> '<'
          | Jhdl_circuit.Types.Output -> '>');
       Buffer.add_string b (string_of_int (Wire.width p.Design.port_wire)))
    (Design.ports design);
  Buffer.add_char b '#';
  Buffer.add_string b (string_of_int (Design.net_count design));
  Cell.iter_paths
    (fun c path ->
       match Cell.prim_of c with
       | None -> ()
       | Some prim ->
         Buffer.add_char b '|';
         Buffer.add_string b root_name;
         Buffer.add_char b '/';
         Buffer.add_string b path;
         Buffer.add_char b '=';
         add_prim b prim)
    (Design.root design);
  Buffer.contents b

let signature design = fnv1a32 (descriptor design)
let signature64 design = fnv1a64 (descriptor design)

let check_design design =
  List.iter
    (fun inst ->
       match Cell.prim_of inst with
       | Some (Prim.Black_box { model_name; _ }) ->
         error
           "snapshot: design %s holds behavioural black box %s (%s) whose \
            opaque state cannot be serialized"
           (Design.name design) (Cell.path inst) model_name
       | _ -> ())
    (Design.all_prims design)

(* ------------------------------------------------------------------ *)
(* Encoding.                                                           *)

(* The blob is written into one buffer of its exact size, so encoding
   allocates no blob-sized temporaries and the CRC runs in place. *)
type writer = { buf : Bytes.t; mutable at : int }

let put_u8 w v =
  Bytes.set_uint8 w.buf w.at (v land 0xff);
  w.at <- w.at + 1

let put_u16 w v =
  Bytes.set_uint16_be w.buf w.at (v land 0xffff);
  w.at <- w.at + 2

let put_u32 w v =
  put_u16 w (v lsr 16);
  put_u16 w v

let put_bytes w b =
  Bytes.blit b 0 w.buf w.at (Bytes.length b);
  w.at <- w.at + Bytes.length b

let put_str16 w s =
  if String.length s > 0xffff then error "snapshot: string too long";
  put_u16 w (String.length s);
  Bytes.blit_string s 0 w.buf w.at (String.length s);
  w.at <- w.at + String.length s

let encoded_size img =
  let entry n (path, state) =
    n + 2 + String.length path + match state with Flop _ -> 2 | Mem _ -> 17
  in
  let sample n (_, bits) = n + 6 + Bits.width bits in
  let watch n (label, samples) =
    List.fold_left sample (n + 2 + String.length label + 4) samples
  in
  (* magic, version, signature, cycles and net count take 17 bytes *)
  let n = List.fold_left entry (17 + Bytes.length img.image_nets + 4) img.image_seq in
  List.fold_left watch (n + 2) img.image_watches + 2 (* the CRC *)

let encode img =
  let w = { buf = Bytes.create (encoded_size img); at = String.length magic } in
  Bytes.blit_string magic 0 w.buf 0 w.at;
  put_u8 w version;
  put_u32 w img.image_signature;
  put_u32 w img.image_cycles;
  put_u32 w (Bytes.length img.image_nets);
  put_bytes w img.image_nets;
  put_u32 w (List.length img.image_seq);
  List.iter
    (fun (path, state) ->
       put_str16 w path;
       match state with
       | Flop code ->
         put_u8 w (Char.code 'F');
         put_u8 w code
       | Mem cells ->
         if Bytes.length cells <> 16 then
           error "snapshot: memory state must be 16 cells";
         put_u8 w (Char.code 'M');
         put_bytes w cells)
    img.image_seq;
  put_u16 w (List.length img.image_watches);
  List.iter
    (fun (label, samples) ->
       put_str16 w label;
       put_u32 w (List.length samples);
       List.iter
         (fun (cyc, bits) ->
            put_u32 w cyc;
            let codes = Bits.to_codes bits in
            put_u16 w (Bytes.length codes);
            put_bytes w codes)
         samples)
    img.image_watches;
  (* the CRC borrows the buffer and keeps no reference to it *)
  let crc = crc16_sub (Bytes.unsafe_to_string w.buf) 4 (w.at - 4) in
  put_u16 w crc;
  Bytes.unsafe_to_string w.buf

(* ------------------------------------------------------------------ *)
(* Decoding.                                                           *)

type reader = { data : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.data then error "snapshot: truncated blob"

let u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let u16 r =
  let hi = u8 r in
  (hi lsl 8) lor u8 r

let u32 r =
  let hi = u16 r in
  (hi lsl 16) lor u16 r

let str r n =
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* explicit left-to-right loop: the reader is stateful, so the order the
   element parser runs in is part of the format *)
let read_list n f =
  let rec go acc i = if i = 0 then List.rev acc else go (f () :: acc) (i - 1) in
  go [] n

let code_byte r =
  let c = u8 r in
  if c > 3 then error "snapshot: invalid value code %d" c;
  c

(* validated in place, then copied once *)
let codes r n =
  need r n;
  for i = r.pos to r.pos + n - 1 do
    let c = Char.code r.data.[i] in
    if c > 3 then error "snapshot: invalid value code %d" c
  done;
  let b = Bytes.create n in
  Bytes.blit_string r.data r.pos b 0 n;
  r.pos <- r.pos + n;
  b

let decode data =
  if not (String.starts_with ~prefix:magic data) then
    error "snapshot: bad magic (not a snapshot blob)";
  if String.length data < 7 then error "snapshot: truncated blob";
  let stored = String.get_uint16_be data (String.length data - 2) in
  if crc16_sub data 4 (String.length data - 6) <> stored then
    error "snapshot: CRC mismatch (corrupt blob)";
  let r = { data; pos = 4 } in
  let v = u8 r in
  if v <> version then
    error "snapshot: unsupported version %d (this build reads %d)" v version;
  let image_signature = u32 r in
  let image_cycles = u32 r in
  let n_nets = u32 r in
  let image_nets = codes r n_nets in
  let n_seq = u32 r in
  let image_seq =
    read_list n_seq (fun () ->
      let path = str r (u16 r) in
      match str r 1 with
      | "F" -> (path, Flop (code_byte r))
      | "M" -> (path, Mem (codes r 16))
      | t -> error "snapshot: unknown state tag %S" t)
  in
  let n_watch = u16 r in
  let image_watches =
    read_list n_watch (fun () ->
      let label = str r (u16 r) in
      let n = u32 r in
      let samples =
        read_list n (fun () ->
          let cyc = u32 r in
          let w = u16 r in
          (cyc, Bits.of_codes (codes r w)))
      in
      (label, samples))
  in
  ignore (u16 r : int) (* CRC trailer, verified above *);
  if r.pos <> String.length data then error "snapshot: trailing garbage";
  { image_signature; image_cycles; image_nets; image_seq; image_watches }
