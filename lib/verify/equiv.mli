(** Equivalence checking between two designs: BDD proof first,
    vector sweep as the fallback.

    The customer side of "the more visibility available to the customer,
    the more confidence he or she has that the IP operates as specified":
    given two designs with the same external interface — say, the netlist
    a licensed applet exported and the black-box model the evaluation
    applet exposed, or a chain-structured KCM against a tree-structured
    one — show their outputs agree on every stimulus.

    Two mechanisms, strongest first:

    - {b Proof}: both designs are compiled to dual-rail BDD cones
      ({!Jhdl_analysis.Cone}) on one shared manager, in defined-input
      mode. Combinational designs are {!Proved} equivalent when every
      output bit's pair is physically equal — a closed-form statement
      over {e all} defined input vectors, not a sample. Sequential
      designs use matched FF frontiers: flip-flops of both designs are
      partitioned by pin configuration and INIT, the partition is
      refined until next-state cones agree per class, and physically
      equal output cones over the class leaves prove equivalence by
      induction, without unrolling. A combinational BDD difference is
      turned into a concrete counterexample and {e confirmed on the
      real simulators} before being reported; a sequential difference
      is inconclusive (the distinguishing state may be unreachable)
      and falls back to the sweep.

    - {b Sweep}: small input spaces are checked exhaustively, larger
      ones with a deterministic pseudo-random sample. The sweep runs
      both designs through {!Jhdl_sim.Simulator.Batch}, up to 63
      vectors per settle; when either design holds a behavioural black
      box (which cannot be lane-packed) it runs one lane, one vector
      per settle. Clocked designs are compared over
      [cycles_per_vector] cycles with outputs sampled after every
      cycle and a reset between vector chunks.

    The proof path is exercised against the sweep by the [absint] fuzz
    oracle: every [Proved] verdict must survive a differential batch
    sweep. *)

type mismatch = {
  inputs : (string * Jhdl_logic.Bits.t) list;  (** the failing stimulus *)
  cycle : int;  (** cycle at which the divergence was observed (0 = comb) *)
  port : string;
  value_a : Jhdl_logic.Bits.t;
  value_b : Jhdl_logic.Bits.t;
}

type result =
  | Proved of { outputs : int; bdd_nodes : int; sequential : bool }
      (** BDD-proved equal on every defined stimulus: [outputs] output
          bits compared, [bdd_nodes] allocated by the proof,
          [sequential] when FF-frontier induction was used *)
  | Equivalent of { vectors : int; exhaustive : bool }
      (** sweep-equivalent: no proof, but no divergence over [vectors] *)
  | Not_equivalent of mismatch
  | Interface_mismatch of string
      (** differing port names, directions or widths *)

(** Which machinery to use. [`Auto] (default) tries the proof and
    falls back to the sweep; [`Sweep] skips the proof. *)
type strategy = [ `Auto | `Sweep ]

(** [check ?max_exhaustive_bits ?random_vectors ?cycles_per_vector ?clock
    ?strategy ?node_budget ?metrics a b]:
    - ports are matched by name; a clock port named by [clock] (default
      ["clk"]) is excluded from stimulus and used to clock both sides;
    - the proof path is attempted first under [`Auto] with at most
      [node_budget] BDD nodes (default 200k; overflow falls back to
      the sweep);
    - if the total input width is at most [max_exhaustive_bits]
      (default 14), the sweep applies every input combination;
      otherwise [random_vectors] (default 500) deterministic
      pseudo-random vectors;
    - for sequential designs set [cycles_per_vector] (default 1 when a
      clock port exists, 0 otherwise): outputs are compared before the
      first edge and after each of the cycles, with resets between
      vectors;
    - [metrics] registers proof/fallback/refutation counters and a
      proof-size histogram on the given registry. *)
val check :
  ?max_exhaustive_bits:int ->
  ?random_vectors:int ->
  ?cycles_per_vector:int ->
  ?clock:string ->
  ?strategy:strategy ->
  ?node_budget:int ->
  ?metrics:Jhdl_metrics.Metrics.t ->
  Jhdl_circuit.Design.t ->
  Jhdl_circuit.Design.t ->
  result

val pp_result : Format.formatter -> result -> unit
