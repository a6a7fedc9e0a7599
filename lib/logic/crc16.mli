(** CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF).

    Shared by the cosim wire protocol's packet checksum and the
    simulator snapshot trailer.  Known answer: [checksum "123456789"]
    is [0x29B1]; the empty string checksums to [0xFFFF]. *)

val checksum : string -> int
(** [checksum s] is the CRC-16/CCITT-FALSE of [s], in [0, 0xFFFF]. *)

val checksum_sub : string -> int -> int -> int
(** [checksum_sub s pos len] is [checksum (String.sub s pos len)],
    computed in place. Raises [Invalid_argument] when the range is not
    within [s]. *)

val update : int -> string -> int -> int -> int
(** [update crc s pos len] continues a checksum: it shifts [len] bytes
    of [s], from [pos], through the register value [crc].
    [checksum_sub s pos len] is [update 0xFFFF s pos len], and the
    checksum of two ranges laid end to end is
    [update (update 0xFFFF s p1 l1) s p2 l2], with nothing copied.
    Raises [Invalid_argument] when the range is not within [s]. *)
