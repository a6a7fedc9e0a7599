(** Compile plan of the simulation kernel ({!Batch}, and {!Simulator}
    as its one-lane face).

    The kernel's [create] builds one plan and keeps it: the prechecks,
    the levelized rank order with its level table, dense net numbering,
    the CSR fan-out and the checkpoint tables. A plan is immutable. The
    kernel adds its plane store, its dirty worklist over the plan's
    ranks and levels, its per-primitive eval closures and its
    sequential node records. {!Reference} builds none of this: it stays
    the independent golden model. *)

(** Raised on a combinational loop, with the instance paths on it — the
    same cell list {!Jhdl_circuit.Design.validate} reports. *)
exception Combinational_cycle of string list

(** A primitive at its rank, port nets as dense indices. *)
type node = {
  inst : Jhdl_circuit.Types.cell;
  prim : Jhdl_circuit.Prim.t;
  ins : (string * int array) list;
  outs : (string * int array) list;
  clocked : bool;  (** in the clock domain [create] selected *)
}

(** A flip-flop ([flop]) or SRL16/RAM16X1 state entry, at [rank]. *)
type seq = {
  path : string;
  rank : int;
  flop : bool;
}

type t = private {
  design : Jhdl_circuit.Design.t;
  who : string;  (** message prefix, e.g. ["Simulator.Batch"] *)
  net_idx : (int, int) Hashtbl.t;  (** net id -> dense index *)
  n_nets : int;
  snapshot_nets : int;
      (** design nets: dense indices [0 .. snapshot_nets-1], in
          [Design.all_nets] order *)
  row : int array;  (** CSR offsets, length [n_nets + 1] *)
  col : int array;  (** consumer ranks *)
  level_of : int array;  (** per rank *)
  level_lo : int array;  (** first rank of each level *)
  depth : int;
  seq : seq array;  (** sequential elements, hierarchy order *)
  black_boxes : (string * string) list;  (** path, model name *)
  signature : int Lazy.t;
}

(** [create ~who ~clock design] runs the design-rule and clock
    prechecks (raising [Invalid_argument] prefixed ["who.create: "]),
    levelizes (raising {!Combinational_cycle}) and returns the plan with
    its nodes by rank. *)
val create :
  who:string -> clock:Jhdl_circuit.Wire.t option -> Jhdl_circuit.Design.t ->
  t * node array

(** [port plan ports name] — the dense indices of port [name]. *)
val port : t -> (string * int array) list -> string -> int array

(** The design's {!Snapshot.signature}, computed on first use. *)
val signature : t -> int

(** Raises {!Snapshot.Error} when the design holds a black box. *)
val check_snapshot : t -> unit

(** [check_image plan img] raises {!Snapshot.Error} unless the design
    holds no black box, [img] has its signature and net count, and the
    state entries are exactly [plan.seq]'s paths and kinds, in order. *)
val check_image : t -> Snapshot.image -> unit
