(** An IP module: a parameterizable module generator packaged for
    delivery (Section 3's "module generator executables").

    The schema drives the applet's parameter form; [build] elaborates an
    instance into a standalone design with named ports, ready for the
    estimator, viewers, simulator and netlisters. *)

type param_kind =
  | Int_param of { min_value : int; max_value : int; default : int }
  | Bool_param of { default : bool }
  | Choice_param of { choices : string list; default : string }

type param_value =
  | Int_value of int
  | Bool_value of bool
  | Choice_value of string

type built = {
  design : Jhdl_circuit.Design.t;
  clock_port : string option;  (** name of the clock input, if clocked *)
  latency : int;  (** input-to-output cycles (0 = combinational path) *)
  notes : string list;  (** generator remarks shown after Build *)
}

type t = {
  ip_name : string;
  vendor : string;
  description : string;
  params : (string * param_kind) list;
  build : (string * param_value) list -> built;
      (** receives a complete, validated parameter assignment *)
  reference :
    ((string * param_value) list ->
     Jhdl_logic.Bits.t list ->
     Jhdl_logic.Bits.t list)
    option;
      (** optional golden model: maps input vectors (one per input port,
          flattened per cycle) to expected outputs; used by black-box
          checks *)
  shipped_bench :
    ((string * param_value) list -> built -> Jhdl_sim.Testbench.step list)
    option;
      (** vendor-shipped validation bench for the built instance; run by
          the applet's Self_test command so a customer can "properly
          evaluate and validate the IP" without writing stimulus *)
}

val defaults : t -> (string * param_value) list

(** [validate t assignment] checks completeness, kinds and ranges;
    returns the assignment with defaults filled in, or a message. *)
val validate :
  t -> (string * param_value) list -> ((string * param_value) list, string) result

val param_to_string : param_value -> string

(** [parse_param kind s] parses a form-field string per the schema. *)
val parse_param : param_kind -> string -> (param_value, string) result

(** [parse_field t name s] — {!parse_param} for [t]'s field [name];
    a name outside the schema is an error. *)
val parse_field : t -> string -> string -> (param_value, string) result

(** [parse_params t fields] — the one way form fields enter a
    generator: each (name, text) field is parsed with {!parse_field},
    then {!validate} fills the defaults, so the result is the complete
    canonical assignment [build] expects. A field given twice is an
    error that names it: no tool may read one form as two designs. *)
val parse_params :
  t -> (string * string) list -> ((string * param_value) list, string) result

(** [form t] renders the parameter form (name, kind, range, default). *)
val form : t -> string

(** [int_param assignment name] / [bool_param assignment name] — typed
    accessors for builders; raise [Invalid_argument] on kind mismatch. *)
val int_param : (string * param_value) list -> string -> int

val bool_param : (string * param_value) list -> string -> bool
val choice_param : (string * param_value) list -> string -> string
