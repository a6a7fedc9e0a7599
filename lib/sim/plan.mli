(** Compile plan of the simulation kernel ({!Batch}, and {!Simulator}
    as its one-lane face).

    The kernel's [create] builds one plan and keeps it: the prechecks,
    the levelized rank order, dense net numbering, the CSR fan-out, the
    level-bucketed dirty worklist and the checkpoint tables. The kernel
    adds its plane store, its per-primitive eval closures and its
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
  dirty : Bytes.t;  (** per-rank pending flag *)
  level_pending : int array;  (** dirty count per level *)
  mutable pending_total : int;
  mutable evals : int;  (** node evaluations by settles *)
  mutable changes : int;  (** change-tracked net writes that stuck *)
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

(** [mark plan rank] puts [rank] on the dirty worklist. *)
val mark : t -> int -> unit

(** [changed plan idx] counts a net write that changed dense net [idx]
    and marks its combinational consumers. *)
val changed : t -> int -> unit

(** [drain plan eval] evaluates every dirty rank in ascending level
    order and returns how many it evaluated. *)
val drain : t -> (unit -> unit) array -> int

(** [full_pass plan eval] evaluates every rank once and clears the
    worklist. *)
val full_pass : t -> (unit -> unit) array -> unit

(** The design's {!Snapshot.signature}, computed on first use. *)
val signature : t -> int

(** Raises {!Snapshot.Error} when the design holds a black box. *)
val check_snapshot : t -> unit

(** [check_image plan img] raises {!Snapshot.Error} unless the design
    holds no black box, [img] has its signature and net count, and the
    state entries are exactly [plan.seq]'s paths and kinds, in order. *)
val check_image : t -> Snapshot.image -> unit
