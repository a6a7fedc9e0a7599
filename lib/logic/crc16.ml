(* CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection, no
   final xor): detects every single-byte error, unlike Fletcher/Adler
   whose 0x00/0xFF classes collide.  This is the one checksum shared by
   the wire protocol's packet frames and the snapshot blob trailer —
   both formats are pinned byte-for-byte by cram tests, so any change
   here is a wire-format break. *)

(* [table.(b)] is the register after shifting byte [b] through the
   polynomial eight times from zero, so one lookup replaces the
   bit-serial inner loop *)
let table =
  Array.init 256 (fun b ->
    let crc = ref (b lsl 8) in
    for _ = 1 to 8 do
      crc :=
        if !crc land 0x8000 <> 0 then ((!crc lsl 1) lxor 0x1021) land 0xFFFF
        else (!crc lsl 1) land 0xFFFF
    done;
    !crc)

let checksum_sub s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc16.checksum_sub";
  let crc = ref 0xFFFF in
  for i = pos to pos + len - 1 do
    let b = (!crc lsr 8) lxor Char.code (String.unsafe_get s i) in
    crc := ((!crc lsl 8) land 0xFFFF) lxor Array.unsafe_get table b
  done;
  !crc

let checksum s = checksum_sub s 0 (String.length s)
