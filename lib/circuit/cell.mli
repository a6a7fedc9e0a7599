(** Cells: nodes of the design hierarchy.

    A composite cell groups children and declares formal ports bound to
    wires of its parent scope, exactly like a JHDL class constructor that
    receives parent wires. A primitive instance is a leaf carrying a
    {!Prim.t}; connecting its ports registers driver/sink terminals on the
    underlying nets, which is what the simulator and the design-rule
    checker consume. *)

type t = Types.cell

(** [root ~name ()] creates a top-level composite cell. [type_name]
    defaults to [name]. *)
val root : name:string -> ?type_name:string -> unit -> t

(** [composite parent ~name ~ports] creates a child composite cell. Each
    port binds a formal name and direction to an actual wire of the
    enclosing scope. The instance name is made unique among siblings.
    [type_name] defaults to [name] and identifies the cell definition in
    hierarchical netlists. *)
val composite :
  t ->
  name:string ->
  ?type_name:string ->
  ports:(string * Types.dir * Wire.t) list ->
  unit ->
  t

(** [prim parent ~name p ~conns] instances primitive [p]. [conns] binds
    each primitive port to a wire; widths must match (standard primitives
    have 1-bit ports). Directions are taken from {!Prim.output_ports}.
    Raises [Invalid_argument] on unknown or missing ports, width
    mismatches, or when an output port's net already has a driver — unless
    [allow_contention] is set, in which case the extra output terminal is
    recorded on the net's [extra_drivers] list for {!Design.validate} and
    the lint engine to report. *)
val prim :
  t ->
  ?name:string ->
  ?allow_contention:bool ->
  Prim.t ->
  conns:(string * Wire.t) list ->
  t

(** [black_box parent ~name ~model_name ~make_behavior ~ports] instances a
    behavioural black box with explicitly-directed, possibly wide ports. *)
val black_box :
  t ->
  ?name:string ->
  model_name:string ->
  make_behavior:(unit -> Prim.behavior) ->
  ports:(string * Types.dir * Wire.t) list ->
  unit ->
  t

val name : t -> string
val id : t -> int

(** [path c] is the hierarchical instance path, e.g. ["top/fir/kcm0"]. *)
val path : t -> string

val parent : t -> t option

(** [children c] in creation order. *)
val children : t -> t list

(** [port_bindings c] in creation order. *)
val port_bindings : t -> Types.port_binding list

(** [owned_wires c] in creation order, declared wires only (no views). *)
val owned_wires : t -> Wire.t list

val is_primitive : t -> bool

(** [prim_of c] is the primitive descriptor of a leaf instance. *)
val prim_of : t -> Prim.t option

(** [type_name c] is the definition name for composites, the library cell
    name for primitives. *)
val type_name : t -> string

(** Properties are free-form string pairs attached to any cell (the paper
    uses them for technology mapping constraints and we additionally use
    them for watermarks). [set_property] replaces an existing key. *)
val set_property : t -> string -> string -> unit

val get_property : t -> string -> string option
val properties : t -> (string * string) list

(** Relative placement, JHDL-style: (row, col) within the parent macro. *)
val set_rloc : t -> row:int -> col:int -> unit

val rloc : t -> (int * int) option

(** [clear_rloc c] removes the placement attribute (used by the
    placement ablation to strip a pre-placed macro). *)
val clear_rloc : t -> unit

(** [iter_rec f c] applies [f] to [c] and every descendant, parents before
    children. *)
val iter_rec : (t -> unit) -> t -> unit

(** [iter_paths f c] visits what {!iter_rec} visits, in the same order,
    with each cell's instance path relative to [c]: [f c ""] first, then
    [f d p] for every descendant [d], where [p] is ["a/b"] for child [b]
    of child [a]. [Cell.path d] is [Cell.path c ^ "/" ^ p]. Each path
    costs one allocation, made from its parent's, where {!path}
    rebuilds every ancestor's. *)
val iter_paths : (t -> string -> unit) -> t -> unit

(** [fold_prims f acc c] folds over all primitive instances below (and
    including) [c]. *)
val fold_prims : ('a -> t -> 'a) -> 'a -> t -> 'a

(** [find_child c name] looks up a direct child by instance name. *)
val find_child : t -> string -> t option

(** [find_path c path] resolves a ["a/b/c"] instance path below [c]. *)
val find_path : t -> string -> t option

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
