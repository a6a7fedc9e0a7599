(** The delivery-path artifact cache: one {!Store} per artifact class.

    A module-generator output is a pure function of (generator,
    parameters, tech-library version) — the shape ArithsGen and the
    web multiplier-IP service exploit — so every stage of serving a
    request can be content-addressed: the elaborated design, its lint
    verdict, the exported netlist and the jar bundle each live in their
    own store, keyed by descriptors derived from
    {!Jhdl_sim.Snapshot.descriptor} (and therefore collision-safe per
    the store's verify-on-hit discipline).

    The cache is polymorphic in the elaborated-design payload so this
    library stays below the applet layer: the server instantiates
    ['design] with its built-module record. *)

type 'design t = {
  designs : 'design Store.t;  (** elaborated builds *)
  verdicts : Jhdl_lint.Lint.report Store.t;  (** lint runs *)
  netlists : string Store.t;  (** exported netlist text *)
  bundles : Jhdl_bundle.Jar.t list Store.t;  (** jar sets *)
}

(** [create ?metrics ?name ~cap_entries ~cap_bytes ()] — four stores,
    each bounded by [cap_entries]/[cap_bytes]. A live [metrics] registry
    gains aggregate probes summed across the classes
    ([<name>cache_lookups_total], [..hits..], [..misses..],
    [..verify_rejects..], [..insertions..], [..evictions..],
    [<name>cache_entries], [<name>cache_bytes]) rather than 4×8
    per-store rows. *)
val create :
  ?metrics:Jhdl_metrics.Metrics.t ->
  ?name:string ->
  cap_entries:int ->
  cap_bytes:int ->
  unit ->
  'design t

(** [generator_descriptor ~generator ~params] — content address of a
    generator invocation before elaboration: the tech-library version,
    generator name and canonicalized parameter assignment. Sorted by
    parameter name so argument order cannot split the cache. *)
val generator_descriptor :
  generator:string -> params:(string * string) list -> string

(** [verdict t ~now design build] — the cached lint report for
    [design], running [build] on a miss. *)
val verdict :
  'design t -> now:float -> Jhdl_circuit.Design.t ->
  (unit -> Jhdl_lint.Lint.report) -> Jhdl_lint.Lint.report

(** [netlist t ~now ~kind design build] — the cached export of [design]
    in format [kind]. *)
val netlist :
  'design t -> now:float -> kind:string -> Jhdl_circuit.Design.t ->
  (unit -> string) -> string

(** [netlist_keyed t ~now ~kind ~descriptor build] — like {!netlist}
    but keyed by a caller-supplied invocation descriptor (typically
    {!generator_descriptor}), for the serving path where the invocation
    already determines the design: the same verify-on-hit discipline
    without re-serializing the design on every lookup. *)
val netlist_keyed :
  'design t -> now:float -> kind:string -> descriptor:string ->
  (unit -> string) -> string

(** [combined_stats t] — per-field sum of the four stores' stats. *)
val combined_stats : 'design t -> Store.stats

(** [hit_rate t] — hits over lookups across all classes. *)
val hit_rate : 'design t -> float
