type behavior = {
  comb : read:(string -> Jhdl_logic.Bits.t) -> (string * Jhdl_logic.Bits.t) list;
  clock_edge : (read:(string -> Jhdl_logic.Bits.t) -> unit) option;
  state_reset : (unit -> unit) option;
}

type t =
  | Lut of Jhdl_logic.Lut_init.t
  | Ff of {
      clock_enable : bool;
      async_clear : bool;
      sync_reset : bool;
      init : Jhdl_logic.Bit.t;
    }
  | Muxcy
  | Xorcy
  | Mult_and
  | Srl16 of { init : int }
  | Ram16x1 of { init : int }
  | Buf
  | Inv
  | Gnd
  | Vcc
  | Black_box of { model_name : string; make_behavior : unit -> behavior }

let name = function
  | Lut init ->
    (match Jhdl_logic.Lut_init.inputs init with
     | 1 -> "LUT1"
     | 2 -> "LUT2"
     | 3 -> "LUT3"
     | 4 -> "LUT4"
     | 5 -> "LUT5"
     | 6 -> "LUT6"
     | k -> "LUT" ^ string_of_int k)
  | Ff { clock_enable; async_clear; sync_reset; _ } ->
    (match clock_enable, async_clear, sync_reset with
     | true, true, _ -> "FDCE"
     | true, false, true -> "FDRE"
     | true, false, false -> "FDE"
     | false, true, _ -> "FDC"
     | false, false, true -> "FDR"
     | false, false, false -> "FD")
  | Muxcy -> "MUXCY"
  | Xorcy -> "XORCY"
  | Mult_and -> "MULT_AND"
  | Srl16 _ -> "SRL16E"
  | Ram16x1 _ -> "RAM16X1S"
  | Buf -> "BUF"
  | Inv -> "INV"
  | Gnd -> "GND"
  | Vcc -> "VCC"
  | Black_box { model_name; _ } -> model_name

let lut_inputs k = List.init k (Printf.sprintf "I%d")

let port_names = function
  | Lut init -> lut_inputs (Jhdl_logic.Lut_init.inputs init) @ [ "O" ]
  | Ff { clock_enable; async_clear; sync_reset; _ } ->
    [ "C"; "D" ]
    @ (if clock_enable then [ "CE" ] else [])
    @ (if async_clear then [ "CLR" ] else [])
    @ (if sync_reset then [ "R" ] else [])
    @ [ "Q" ]
  | Muxcy -> [ "S"; "DI"; "CI"; "O" ]
  | Xorcy -> [ "LI"; "CI"; "O" ]
  | Mult_and -> [ "I0"; "I1"; "LO" ]
  | Srl16 _ -> [ "D"; "CE"; "CLK"; "A0"; "A1"; "A2"; "A3"; "Q" ]
  | Ram16x1 _ -> [ "D"; "WE"; "WCLK"; "A0"; "A1"; "A2"; "A3"; "O" ]
  | Buf | Inv -> [ "I"; "O" ]
  | Gnd -> [ "G" ]
  | Vcc -> [ "P" ]
  | Black_box _ -> []

let output_ports = function
  | Lut _ | Muxcy | Xorcy -> [ "O" ]
  | Ff _ | Srl16 _ -> [ "Q" ]
  | Mult_and -> [ "LO" ]
  | Ram16x1 _ -> [ "O" ]
  | Buf | Inv -> [ "O" ]
  | Gnd -> [ "G" ]
  | Vcc -> [ "P" ]
  | Black_box _ -> []

let is_sequential = function
  | Ff _ | Srl16 _ | Ram16x1 _ -> true
  | Black_box { make_behavior = _; _ } -> true
  | Lut _ | Muxcy | Xorcy | Mult_and | Buf | Inv | Gnd | Vcc -> false

let clock_port = function
  | Ff _ -> Some "C"
  | Srl16 _ -> Some "CLK"
  | Ram16x1 _ -> Some "WCLK"
  | Lut _ | Muxcy | Xorcy | Mult_and | Buf | Inv | Gnd | Vcc | Black_box _ ->
    None

let pp fmt t = Format.pp_print_string fmt (name t)
