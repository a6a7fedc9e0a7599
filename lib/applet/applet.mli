(** The IP delivery applet: a module-generator executable assembled from
    a license's feature set.

    This is the paper's Figure 1/Figure 3 artifact with the Swing GUI
    replaced by a command transcript: the parameter form, the Build
    button, Cycle/Reset simulation, schematic/hierarchy/layout views,
    waveforms and the Netlist button are commands; the vendor decides at
    assembly time which of them exist. Enforcement is by construction —
    a tool a license does not grant is never linked into the applet
    value, so no command sequence can reach it. Metering counts builds,
    simulation runs and netlist exports against the license caps, and
    licensed netlist exports carry the vendor watermark. *)

type t

type command =
  | Show_form  (** render the parameter form *)
  | Set_param of string * string  (** field name, form text *)
  | Build
  | Estimate
  | View_schematic of string option  (** optionally focus a subpath *)
  | View_hierarchy
  | View_layout
  | Set_input of string * string  (** port, value ("0b1010", "42", "-3") *)
  | Cycle of int
  | Reset
  | Get_output of string
  | View_waveform
  | Export_vcd  (** waveform history as a VCD document *)
  | Self_test
      (** run the vendor-shipped validation bench against the built
          instance (needs the simulator tool) *)
  | Netlist of string  (** format name: "EDIF", "VHDL", "Verilog" *)
  | Show_license
  | Help

val command_to_string : command -> string

(** [create ~ip ~license ~user ()] assembles the executable. [meter],
    when given, shares usage accounting with other applets (multi-IP
    suites meter the customer, not each module). *)
val create :
  ip:Ip_module.t ->
  license:License.t ->
  user:string ->
  ?meter:Jhdl_security.Metering.t ->
  unit ->
  t

val ip : t -> Ip_module.t

(** [user t] — the customer the executable was assembled for. *)
val user : t -> string
val license : t -> License.t

(** [features t] — tools actually linked in. *)
val features : t -> Feature.t list

(** [jar_components t] — archives this applet's page must download. *)
val jar_components : t -> Jhdl_bundle.Partition.component list

(** [exec t command] — run one command; [Ok text] is what the applet
    displays, [Error text] the failure message (feature not available,
    license cap reached, bad parameter, nothing built yet...). *)
val exec : t -> command -> (string, string) result

(** [built_design t] — the current circuit, for tools layered on top
    (black-box endpoints, vendor-side checks). *)
val built_design : t -> Jhdl_circuit.Design.t option

(** [simulator t] — the live simulator, when the license grants one and
    Build has run. *)
val simulator : t -> Jhdl_sim.Simulator.t option

(** [latency t] — the built instance's pipeline latency. *)
val latency : t -> int option

(** [run_script t commands] — execute in order, collecting a transcript
    ("> command" lines followed by output or "ERROR: ..."). *)
val run_script : t -> command list -> string
