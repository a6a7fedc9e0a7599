(** The simulation kernel: up to 63 independent testbenches per
    machine word.

    A batch simulator compiles a design once into dense net numbering,
    CSR fan-out and a level-bucketed dirty worklist, and stores each
    net's 4-valued code across [lanes] independent testbench lanes in
    two bit-plane words: bit [l] of the first (resp. second) plane holds
    bit 0 (resp. bit 1) of the lane's {!Jhdl_logic.Bit.to_code}, so
    Zero=(0,0), One=(1,0), X=(0,1), Z=(1,1). One settle pass then
    evaluates every lane at once: LUT1–LUT4 become word-wise
    possibility-set table lookups over the plane pair,
    MUXCY/XORCY/MULT_AND/INV/BUF become a handful of bitwise word
    operations, and FD*/SRL16E/RAM16X1S keep per-lane sequential state
    in packed planes. At one lane, a LUT or SRL16E/RAM16X1S read whose
    address bits are all defined reads its INIT bit or cell directly.

    This is the one kernel: {!Simulator} is its one-lane face. Every
    lane is bit-identical to a run of the golden {!Reference}
    interpreter on the same stimulus; the fuzz [batch] oracle and the
    qcheck lane-equivalence suite pin this.

    Input forcing is deferred here: {!set_input} and {!set_inputs} only
    record the forced values, and the next {!cycle}, {!propagate} or
    read ({!get}, {!get_port}, {!snapshot_lane})
    settles combinational logic once for everything forced since — so
    driving all 63 lanes costs a single settle. Behavioural black boxes
    run with one lane only: their state is opaque and cannot be
    lane-packed. Waveform watches, cycle hooks and immediate settles
    belong to the {!Simulator} face. *)

type t

(** Raised on a combinational loop, with the instance paths on it. The
    same exception as {!Simulator.Combinational_cycle}: a handler for
    either catches a loop found by either kernel. *)
exception Combinational_cycle of string list

(** Hard lane capacity: 63 lanes per OCaml [int] plane word. *)
val max_lanes : int

(** [create ?clock ~lanes design] compiles [design] into a batch kernel
    with [lanes] independent testbench lanes, every net starting X in
    every lane. [clock] selects the clock domain exactly as in
    {!Simulator.create}.

    Raises [Invalid_argument] when [lanes] is outside [1..max_lanes]
    (lane counts are never silently truncated), when [lanes > 1] and
    the design holds behavioural black boxes (their boxed state cannot
    be lane-packed), or on design-rule errors; raises
    {!Combinational_cycle} on a combinational loop. *)
val create : ?clock:Jhdl_circuit.Wire.t -> lanes:int -> Jhdl_circuit.Design.t -> t

val design : t -> Jhdl_circuit.Design.t

(** Number of active lanes, as passed to {!create}. *)
val lanes : t -> int

(** [set_input b ~lane port value] forces a top-level input port in one
    lane. Width must match; the settle is deferred (see above). Raises
    [Invalid_argument] for an unknown or output port, a driven net, or a
    lane outside [0..lanes-1]. *)
val set_input : t -> lane:int -> string -> Jhdl_logic.Bits.t -> unit

(** [set_inputs b ~lane assignments] forces several ports in one lane;
    equivalent to a sequence of {!set_input} calls. *)
val set_inputs : t -> lane:int -> (string * Jhdl_logic.Bits.t) list -> unit

(** [propagate b] settles combinational logic across all lanes at once;
    normally implicit in {!cycle} and the read accessors. *)
val propagate : t -> unit

(** [cycle ?n b] settles pending input forces, then advances [n]
    (default 1) rising clock edges — every lane steps together. *)
val cycle : ?n:int -> t -> unit

(** [reset b] restores every register to its INIT value in every lane
    and zeroes the shared cycle counter; forced inputs are kept, like
    {!Simulator.reset}. *)
val reset : t -> unit

(** Shared cycle counter (all lanes step together). *)
val cycle_count : t -> int

(** [get b ~lane wire] reads a wire's value in one lane (settles
    first). *)
val get : t -> lane:int -> Jhdl_circuit.Wire.t -> Jhdl_logic.Bits.t

(** [get_port b ~lane name] reads a top-level port in one lane. *)
val get_port : t -> lane:int -> string -> Jhdl_logic.Bits.t

(** {1 Lane extraction}

    One lane's complete architectural state serializes to a standard
    {!Snapshot} blob — byte-identical to {!Reference.snapshot} of a
    watchless run in the same state, so batch lanes check-point into,
    and restore from, the {!Simulator} face and the golden model. *)

(** [snapshot_lane b ~lane] serializes one lane (settling first).
    Raises {!Snapshot.Error} when the design holds a behavioural black
    box. *)
val snapshot_lane : t -> lane:int -> string

(** [restore_lane b ~lane blob] overwrites one lane's nets and
    sequential state from [blob] and settles. The shared cycle counter
    is {e not} changed — lanes step together, so a restored lane adopts
    the batch's clock position. Raises {!Snapshot.Error} on malformed or
    foreign blobs, leaving every lane untouched, under the same checks
    as {!Simulator.restore}. *)
val restore_lane : t -> lane:int -> string -> unit

(** {1 Introspection}

    One "evaluation" or "event" here is a word-wise operation covering
    all lanes at once; with one lane these are {!Simulator}'s
    counters. *)

val prim_count : t -> int
val levels : t -> int

(** Lifetime word-wise node evaluations performed by settles. *)
val eval_count : t -> int

(** Lifetime change-tracked plane writes that stuck. *)
val event_count : t -> int

(** [register_metrics b registry] registers the kernel's counters,
    named in the style of {!Simulator.register_metrics}: probes [lanes_active],
    [batch_cycles_total], [batch_settle_evals_total] and
    [batch_net_events_total], plus a [words_per_settle] histogram
    (word-wise evaluations per non-empty settle) fed from inside the
    settle loop without allocating. *)
val register_metrics : t -> Jhdl_metrics.Metrics.t -> unit

(** [attach_settle_histogram b h] routes the per-settle word count into
    an externally owned histogram — lets a campaign aggregate
    [words_per_settle] across many short-lived batch sims under one
    registry. *)
val attach_settle_histogram : t -> Jhdl_metrics.Metrics.histogram -> unit

(**/**)

(* The one-lane face, {!Simulator}, is built on these; nothing else
   calls them. *)

(** {!create} with [who] as the prefix of its error messages. *)
val create_as :
  who:string -> clock:Jhdl_circuit.Wire.t option -> lanes:int -> Jhdl_circuit.Design.t -> t

(** [force_net b ~lane net bit] forces one net of one lane without
    settling; a net outside the design is ignored. *)
val force_net : t -> lane:int -> Jhdl_circuit.Types.net -> Jhdl_logic.Bit.t -> unit

(** {!snapshot_lane} before encoding. *)
val lane_image : t -> lane:int -> Snapshot.image

(** {!restore_lane} after decoding, for a lane known to be in range. *)
val restore_image : t -> lane:int -> Snapshot.image -> unit
