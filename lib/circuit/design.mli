(** A design: a root cell plus its external interface.

    Top-level ports declare which root-scope wires the outside world (a
    testbench, the simulator, or a netlist's entity interface) drives and
    observes. *)

type t

type port = {
  port_name : string;
  port_dir : Types.dir;
  port_wire : Wire.t;
}

(** [create root] wraps a root cell created with {!Cell.root}. *)
val create : Cell.t -> t

val root : t -> Cell.t
val name : t -> string

(** [add_port d name dir wire] declares a top-level port. The wire must be
    owned by the root cell and not be a view. *)
val add_port : t -> string -> Types.dir -> Wire.t -> unit

val ports : t -> port list
val inputs : t -> port list
val outputs : t -> port list
val find_port : t -> string -> port option

(** Design-rule violations found by {!validate}. *)
type violation =
  | Undriven_net of { wire : string; bit : int; sink_count : int }
      (** a net with sinks but no driver and no top-level input binding *)
  | Contended_net of { wire : string; bit : int; drivers : string list }
      (** a net with more than one driving source: extra output terminals
          recorded via {!Cell.prim}'s [allow_contention], or an internal
          driver on a net also bound to a top-level input port *)
  | Dangling_driver of { wire : string; bit : int }
      (** a driven net with no sinks and no top-level output binding;
          reported as a warning-level violation *)
  | Combinational_loop of { cells : string list }
      (** instance paths forming a cycle through combinational logic *)
  | Port_wire_not_root of { port : string }

(** [validate d] returns all violations ([] means clean). *)
val validate : t -> violation list

val pp_violation : Format.formatter -> violation -> unit

(** [errors d] is [validate d] without [Dangling_driver] warnings. *)
val errors : t -> violation list

(** [rule_errors d] is [errors d] without the combinational-loop walk,
    for callers that levelize [d] themselves and report a loop from
    that. *)
val rule_errors : t -> violation list

type stats = {
  composite_cells : int;
  primitive_instances : int;
  nets : int;
  declared_wires : int;
  max_depth : int;
  prims_by_type : (string * int) list;  (** sorted by name *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** [all_prims d] lists every primitive instance, in hierarchy order. *)
val all_prims : t -> Cell.t list

(** [all_nets d] lists every net reachable from declared wires of the
    design, without duplicates, in creation order. *)
val all_nets : t -> Types.net list
