(* CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection, no
   final xor): detects every single-byte error, unlike Fletcher/Adler
   whose 0x00/0xFF classes collide.  This is the one checksum shared by
   the wire protocol's packet frames and the snapshot blob trailer —
   both formats are pinned byte-for-byte by cram tests, so any change
   here is a wire-format break.

   The loop is sliced by 8: [tables] holds eight 256-entry tables, and
   entry [b] of table [k] is the register after byte [b] and then [k]
   zero bytes were shifted through from zero. The register's two bytes
   fold into the first two bytes of an 8-byte block, after which the
   eight lookups are independent, so they overlap instead of waiting
   on each other byte after byte. The last [len mod 8] bytes take one
   lookup each in table 0, the byte-at-a-time table. Every checksum
   keeps its value. *)

(* table 0's entry [b] is the register after shifting byte [b] through
   the polynomial eight times from zero; table [k] shifts one more zero
   byte through table [k - 1] *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for b = 0 to 255 do
    let crc = ref (b lsl 8) in
    for _ = 1 to 8 do
      crc :=
        if !crc land 0x8000 <> 0 then ((!crc lsl 1) lxor 0x1021) land 0xFFFF
        else (!crc lsl 1) land 0xFFFF
    done;
    t.(b) <- !crc
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- ((prev lsl 8) land 0xFFFF) lxor t.(prev lsr 8)
  done;
  t

let[@inline] byte s i = Char.code (String.unsafe_get s i)
let[@inline] at k b = Array.unsafe_get tables ((k * 256) + b)

let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc16.update";
  let crc = ref crc in
  let i = ref pos in
  let last_block = pos + len - 8 in
  while !i <= last_block do
    let p = !i in
    crc :=
      at 7 (byte s p lxor (!crc lsr 8))
      lxor at 6 (byte s (p + 1) lxor (!crc land 0xFF))
      lxor at 5 (byte s (p + 2))
      lxor at 4 (byte s (p + 3))
      lxor at 3 (byte s (p + 4))
      lxor at 2 (byte s (p + 5))
      lxor at 1 (byte s (p + 6))
      lxor at 0 (byte s (p + 7));
    i := p + 8
  done;
  for p = !i to pos + len - 1 do
    crc := ((!crc lsl 8) land 0xFFFF) lxor at 0 ((!crc lsr 8) lxor byte s p)
  done;
  !crc

let checksum_sub s pos len = update 0xFFFF s pos len
let checksum s = update 0xFFFF s 0 (String.length s)
