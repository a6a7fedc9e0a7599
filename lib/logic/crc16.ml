(* CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection, no
   final xor): detects every single-byte error, unlike Fletcher/Adler
   whose 0x00/0xFF classes collide.  This is the one checksum shared by
   the wire protocol's packet frames and the snapshot blob trailer —
   both formats are pinned byte-for-byte by cram tests, so any change
   here is a wire-format break. *)

let checksum_sub s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc16.checksum_sub";
  let crc = ref 0xFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor (Char.code (String.unsafe_get s i) lsl 8);
    for _ = 1 to 8 do
      if !crc land 0x8000 <> 0 then
        crc := ((!crc lsl 1) lxor 0x1021) land 0xFFFF
      else crc := (!crc lsl 1) land 0xFFFF
    done
  done;
  !crc

let checksum s = checksum_sub s 0 (String.length s)
