module Bits = Jhdl_logic.Bits

type message =
  | Set_inputs of (string * Bits.t) list
  | Cycle of int
  | Reset
  | Get_outputs of string list
  | Outputs_are of (string * Bits.t) list
  | Ack
  | Protocol_error of string
  | Hello of string
  | Resume of string * int
  | Session_state of int
  | Heartbeat
  | Checkpoint

(* Wire format: 1 tag byte, then tag-specific payload. Strings are
   2-byte big-endian length + bytes; counts are 2 bytes; Cycle carries a
   4-byte big-endian count. Values travel as bit characters (MSB first),
   preserving X/Z. Sequence numbers inside session messages (Resume /
   Session_state) are offset by one on the wire so the "nothing applied
   yet" sentinel -1 fits an unsigned field. *)

let add_u16 buffer n =
  Buffer.add_char buffer (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buffer (Char.chr (n land 0xFF))

let add_u32 buffer n =
  add_u16 buffer ((n lsr 16) land 0xFFFF);
  add_u16 buffer (n land 0xFFFF)

let add_string buffer s =
  add_u16 buffer (String.length s);
  Buffer.add_string buffer s

let add_pairs buffer pairs =
  add_u16 buffer (List.length pairs);
  List.iter
    (fun (name, value) ->
       add_string buffer name;
       add_string buffer (Bits.to_string value))
    pairs

let encode_into buffer message =
  match message with
  | Set_inputs pairs ->
    Buffer.add_char buffer 'I';
    add_pairs buffer pairs
  | Cycle n ->
    Buffer.add_char buffer 'C';
    add_u32 buffer n
  | Reset -> Buffer.add_char buffer 'R'
  | Get_outputs names ->
    Buffer.add_char buffer 'G';
    add_u16 buffer (List.length names);
    List.iter (add_string buffer) names
  | Outputs_are pairs ->
    Buffer.add_char buffer 'O';
    add_pairs buffer pairs
  | Ack -> Buffer.add_char buffer 'A'
  | Protocol_error text ->
    Buffer.add_char buffer 'E';
    add_string buffer text
  | Hello session_id ->
    Buffer.add_char buffer 'H';
    add_string buffer session_id
  | Resume (session_id, last_acked) ->
    Buffer.add_char buffer 'U';
    add_string buffer session_id;
    add_u32 buffer (last_acked + 1)
  | Session_state last_applied ->
    Buffer.add_char buffer 'S';
    add_u32 buffer (last_applied + 1)
  | Heartbeat -> Buffer.add_char buffer 'B'
  | Checkpoint -> Buffer.add_char buffer 'K'

let encode message =
  let buffer = Buffer.create 64 in
  encode_into buffer message;
  Buffer.contents buffer

let size message = String.length (encode message)

exception Malformed of string

(* a read position in a frame; a read past its end raises [Malformed],
   which [decode_from] turns into [Error] *)
type cursor = {
  s : string;
  mutable pos : int;
}

let byte c =
  if c.pos >= String.length c.s then raise (Malformed "truncated");
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let u16 c =
  let hi = byte c in
  (hi lsl 8) lor byte c

let u32 c =
  let hi = u16 c in
  (hi lsl 16) lor u16 c

let str c =
  let len = u16 c in
  if c.pos + len > String.length c.s then raise (Malformed "truncated string");
  let r = String.sub c.s c.pos len in
  c.pos <- c.pos + len;
  r

let bits c =
  match Bits.of_string (str c) with
  | v -> v
  | exception Invalid_argument _ -> raise (Malformed "bad bit string")

let pairs c =
  let n = u16 c in
  List.init n (fun _ ->
    let name = str c in
    let value = bits c in
    (name, value))

(* the message encoded in [s] from [start] to its end *)
let decode_from s start =
  let c = { s; pos = start } in
  match
    let tag = byte c in
    let message =
      match Char.chr tag with
      | 'I' -> Set_inputs (pairs c)
      | 'C' -> Cycle (u32 c)
      | 'R' -> Reset
      | 'G' ->
        let n = u16 c in
        Get_outputs (List.init n (fun _ -> str c))
      | 'O' -> Outputs_are (pairs c)
      | 'A' -> Ack
      | 'E' -> Protocol_error (str c)
      | 'H' -> Hello (str c)
      | 'U' ->
        let session_id = str c in
        Resume (session_id, u32 c - 1)
      | 'S' -> Session_state (u32 c - 1)
      | 'B' -> Heartbeat
      | 'K' -> Checkpoint
      | other -> raise (Malformed (Printf.sprintf "unknown tag %C" other))
    in
    if c.pos <> String.length s then raise (Malformed "trailing bytes");
    message
  with
  | message -> Ok message
  | exception Malformed reason -> Error reason

let decode s = decode_from s 0

(* CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF): detects every
   single-byte error, unlike Fletcher/Adler whose 0x00/0xFF classes
   collide — and corrupt-channel recovery hinges on detection.  The
   snapshot trailer uses the same shared implementation. *)
let checksum = Jhdl_logic.Crc16.checksum

type packet = {
  seq : int;
  payload : message;
}

let max_seq = 0xFFFF

(* Frame: 2-byte big-endian sequence number, 2-byte CRC over the
   sequence bytes plus the encoded message, then the message itself.
   The CRC runs over the frame in place, around its own two bytes. *)
let frame_checksum frame =
  Jhdl_logic.Crc16.update
    (Jhdl_logic.Crc16.update 0xFFFF frame 0 2)
    frame 4 (String.length frame - 4)

let encode_packet ~seq payload =
  if seq < 0 || seq > max_seq then
    invalid_arg (Printf.sprintf "Protocol.encode_packet: seq %d out of range" seq);
  let buffer = Buffer.create 64 in
  add_u16 buffer seq;
  add_u16 buffer 0 (* the CRC's place *);
  encode_into buffer payload;
  let frame = Buffer.to_bytes buffer in
  Bytes.set_uint16_be frame 2 (frame_checksum (Bytes.unsafe_to_string frame));
  Bytes.unsafe_to_string frame

let packet_size packet = 4 + size packet.payload

let decode_packet s =
  if String.length s < 4 then Error "packet too short"
  else begin
    let claimed = String.get_uint16_be s 2 and actual = frame_checksum s in
    if claimed <> actual then
      Error
        (Printf.sprintf "checksum mismatch (claimed %04X, computed %04X)"
           claimed actual)
    else
      match decode_from s 4 with
      | Ok payload -> Ok { seq = String.get_uint16_be s 0; payload }
      | Error reason -> Error reason
  end

let pp fmt message =
  let pair (n, v) = Printf.sprintf "%s=%s" n (Bits.to_string v) in
  match message with
  | Set_inputs pairs ->
    Format.fprintf fmt "SetInputs{%s}" (String.concat "," (List.map pair pairs))
  | Cycle n -> Format.fprintf fmt "Cycle(%d)" n
  | Reset -> Format.fprintf fmt "Reset"
  | Get_outputs names ->
    Format.fprintf fmt "GetOutputs{%s}" (String.concat "," names)
  | Outputs_are pairs ->
    Format.fprintf fmt "Outputs{%s}" (String.concat "," (List.map pair pairs))
  | Ack -> Format.fprintf fmt "Ack"
  | Protocol_error text -> Format.fprintf fmt "Error(%s)" text
  | Hello session_id -> Format.fprintf fmt "Hello(%s)" session_id
  | Resume (session_id, last_acked) ->
    Format.fprintf fmt "Resume(%s,%d)" session_id last_acked
  | Session_state last_applied ->
    Format.fprintf fmt "SessionState(%d)" last_applied
  | Heartbeat -> Format.fprintf fmt "Heartbeat"
  | Checkpoint -> Format.fprintf fmt "Checkpoint"
