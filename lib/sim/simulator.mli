(** Cycle-based circuit simulator: the one-lane face of the simulation
    kernel.

    The JHDL design suite's built-in simulator, reproduced: designs are
    elaborated to a flat list of primitive instances, combinational logic
    is levelized once at construction, and the user steps the design with
    {!cycle} and {!reset} — the two buttons the paper's applets expose.
    Propagation is incremental and event-driven: a changed net marks its
    combinational consumers dirty and the dirty set is drained in
    level order, so settling after an input change or a clock edge costs
    only the affected cone of logic.

    There is one kernel, {!Batch}; a simulator is that kernel with one
    lane. {!create} compiles the levelized netlist once into dense net
    numbering, a CSR fan-out and a level-bucketed dirty worklist, and
    lowers every primitive to a word-wise rule over the net's two value
    planes. The steady-state cycle loop performs no string port lookups,
    hashtable probes or per-cycle allocation. On top of the kernel this
    face settles at once on every input force, samples watched wires,
    runs cycle hooks, keeps its own cycle counter and puts watch
    histories into its snapshots. The retained interpreter,
    {!Reference}, is the independent golden model the kernel is
    differentially tested against.

    Values are four-valued ({!Jhdl_logic.Bit}); registers power up to
    their INIT value and {!reset} models the Virtex global set/reset.
    Sequential primitives update on the rising edge of the designated
    clock with two-phase semantics (all next-states are computed from
    pre-edge values, then committed). Behavioural {!Jhdl_circuit.Prim.Black_box}
    models participate through their [comb] and [clock_edge] closures,
    which is also the hook for the protected black-box IP of Section 4.2
    of the paper. *)

type t

(** Raised on a combinational loop, with the instance paths forming the
    cycle. {!Batch.create} raises this same exception, so one handler
    covers both kernels. *)
exception Combinational_cycle of string list

(** [create ?clock design] elaborates and levelizes [design].

    [clock], if given, must be a 1-bit top-level input wire; sequential
    primitives whose clock pin is attached to it update on {!cycle}. When
    omitted, every sequential primitive is treated as belonging to the
    single implicit clock domain (the common JHDL case).

    Raises {!Combinational_cycle} on a combinational loop and
    [Invalid_argument] when the design has design-rule errors. *)
val create : ?clock:Jhdl_circuit.Wire.t -> Jhdl_circuit.Design.t -> t

val design : t -> Jhdl_circuit.Design.t

(** [set_input sim port value] forces a top-level input port. Width must
    match. Combinational logic is re-propagated immediately. *)
val set_input : t -> string -> Jhdl_logic.Bits.t -> unit

(** [set_input_wire sim wire value] forces any root-scope wire (or view)
    bound to a top-level input; useful with sliced wires. *)
val set_input_wire : t -> Jhdl_circuit.Wire.t -> Jhdl_logic.Bits.t -> unit

(** [set_inputs sim assignments] forces several top-level input ports and
    settles combinational logic once for the whole batch — the fast path
    for protocol endpoints that update many ports per step. Equivalent to
    a sequence of {!set_input} calls. If an assignment is invalid, logic
    settles for the assignments already applied before the exception is
    re-raised. *)
val set_inputs : t -> (string * Jhdl_logic.Bits.t) list -> unit

(** [get sim wire] reads the current value of any wire in the design. *)
val get : t -> Jhdl_circuit.Wire.t -> Jhdl_logic.Bits.t

(** [get_port sim name] reads a top-level port by name. *)
val get_port : t -> string -> Jhdl_logic.Bits.t

(** [propagate sim] settles combinational logic; normally implicit. *)
val propagate : t -> unit

(** [cycle ?n sim] advances [n] (default 1) rising clock edges. *)
val cycle : ?n:int -> t -> unit

(** [reset sim] restores every register to its INIT value, zeroes the
    cycle counter and clears recorded history, like the applet's Reset
    button. Forced input values are kept. *)
val reset : t -> unit

val cycle_count : t -> int

(** {1 Waveform recording}

    Watched wires are sampled after every {!cycle} (and once at watch
    time). The recorded history feeds the waveform viewer and VCD
    export. *)

val watch : t -> ?label:string -> Jhdl_circuit.Wire.t -> unit

(** [history sim] returns, per watched label in watch order, the samples
    as [(cycle, value)] pairs in increasing cycle order. *)
val history : t -> (string * (int * Jhdl_logic.Bits.t) list) list

(** {1 Checkpointing}

    Crash-safe co-simulation serializes the running state into
    {!Snapshot} blobs; a restarted endpoint restores the blob and
    replays its journal to the exact pre-crash state. *)

(** [snapshot sim] serializes the complete architectural state — net
    codes, register/SRL/RAM contents, cycle counter, watch histories —
    into a versioned, CRC-checked blob. Raises {!Snapshot.Error} when
    the design holds behavioural black boxes (opaque state). *)
val snapshot : t -> string

(** [restore sim blob] overwrites [sim]'s state with [blob] and settles
    combinational logic. The blob must come from a design with the same
    {!Snapshot.signature} — either simulator implementation qualifies.
    Raises {!Snapshot.Error} on malformed, corrupt, wrong-version or
    foreign blobs, on blobs whose state entries are not exactly the
    design's sequential elements, in snapshot order, with matching
    flip-flop/memory kinds, and on designs holding behavioural black
    boxes, whose state no blob carries; [sim] is only modified once the
    blob has been fully validated against the design. *)
val restore : t -> string -> unit

(** {1 Introspection for tools}

    The open-API surface that lets viewers and third-party tools attach to
    a running simulation (Section 2.3). *)

(** [on_cycle sim f] registers a callback invoked after each clock cycle
    with the new cycle count. *)
val on_cycle : t -> (int -> unit) -> unit

(** [prim_count sim] is the number of elaborated primitive instances. *)
val prim_count : t -> int

(** [levels sim] is the depth of the levelized combinational network. *)
val levels : t -> int

(** [eval_count sim] is the lifetime number of node evaluations
    performed by settles (full passes included). *)
val eval_count : t -> int

(** [event_count sim] is the lifetime number of change-tracked net
    writes that actually changed a value. *)
val event_count : t -> int

(** [register_metrics sim registry] registers the kernel's work
    counters as pull-based probes ([cycles_total], [settle_evals_total],
    [net_events_total], [prims], [levels]) plus a
    [settle_evals_per_cycle] histogram fed from a cycle hook.  On a live
    registry the hook's updates are allocation-free, so the pinned
    zero-allocation steady-state cycle is preserved. *)
val register_metrics : t -> Jhdl_metrics.Metrics.t -> unit

(** {1 Batch mode}

    {!Batch} is the kernel itself, with up to 63 independent testbench
    lanes in the bit positions of one machine word per net plane, so a
    single settle pass evaluates every lane at once — the data-parallel
    engine behind the fuzz oracles, the differential corpus sweeps and
    multi-user co-simulation. This simulator is its one-lane face. *)

module Batch = Batch
