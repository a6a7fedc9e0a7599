(** Hexadecimal digits, written without [Printf].

    The netlist writers and the snapshot descriptor print an INIT value
    per primitive, so a format string per value shows up in every
    export. *)

val upper : width:int -> int -> string
(** [upper ~width n] is [Printf.sprintf "%0*X" width n] for
    [width >= 0]: the digits of [n], read as an unsigned 63-bit value,
    most significant first, at least one of them, padded with zeros to
    at least [width] digits. *)

val lower : width:int -> int -> string
(** [lower ~width n] is [upper ~width n] in lowercase, as
    [Printf.sprintf "%0*x" width n] prints it. *)
