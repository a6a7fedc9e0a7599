(** The vendor's IP catalog: module generators packaged as deliverable
    {!Ip_module.t} values. [kcm] is the paper's constant coefficient
    multiplier applet (Figures 1 and 3); [fir] is the "more complicated
    IP" of the future-work section and the second black box in the
    Figure 4 scenario; [counter] is a small logic module rounding out the
    catalog. *)

(** Parameters: [multiplicand_width] (2..16), [product_width] (2..32),
    [signed], [pipelined], [constant] (-32768..32767). Ports:
    [multiplicand], [product], [clk]. *)
val kcm : Ip_module.t

(** Parameters: [input_width] (2..12), [output_width] (4..40), [signed],
    [taps] as a choice of preset coefficient sets. Ports: [x], [y],
    [clk]. *)
val fir : Ip_module.t

(** Parameters: [width] (1..16), [has_enable]. Ports: [q], [clk],
    optionally [ce]. *)
val counter : Ip_module.t

(** Parameters: [width] (6..32), [iterations] (1..32), [pipelined].
    Ports: [angle], [cos], [sin], [clk]. *)
val cordic : Ip_module.t

(** Parameters: [a_width] (2..12), [b_width] (2..12), [product_width]
    (2..24). Ports: [a], [b], [product] — combinational. *)
val wallace : Ip_module.t

(** Parameters: [dividend_width] (2..12), [divisor_width] (2..8),
    [pipelined]. Ports: [dividend], [divisor], [quotient], [remainder],
    [clk]. *)
val divider : Ip_module.t

val all : Ip_module.t list

(** [find name] — case-insensitive catalog lookup. *)
val find : string -> Ip_module.t option

(** [fir_coefficient_sets] — the named presets the [taps] choice offers. *)
val fir_coefficient_sets : (string * int list) list

(** Why an [ip]'s default-parameter elaboration failed — a typed
    verdict, not a swallowed exception string. *)
type elaboration_error = {
  failed_ip : string;
  exception_name : string;  (** exception constructor, e.g.
                                ["Invalid_argument"] *)
  detail : string;  (** [Printexc] rendering of the payload *)
}

val elaboration_error_to_string : elaboration_error -> string

(** [elaborate ip assignment] runs [ip]'s generator on a validated
    [assignment]; a generator that raises (a parameter combination it
    cannot build) yields the typed error instead. *)
val elaborate :
  Ip_module.t ->
  (string * Ip_module.param_value) list ->
  (Ip_module.built, elaboration_error) result

(** [lint_verdict ?cache ?now ip] — the lint report for [ip] elaborated
    at its default parameters. With [cache] the verdict is served
    content-addressed (key: generator name, canonical defaults,
    tech-library version — all the elaboration depends on), so a hit
    skips elaboration entirely; misses populate the store at [now]. *)
val lint_verdict :
  ?cache:Jhdl_lint.Lint.report Jhdl_cache.Store.t ->
  ?now:float ->
  Ip_module.t ->
  (Jhdl_lint.Lint.report, elaboration_error) result

(** [lint_summary ?cache ?now ip] — one-line count summary of
    {!lint_verdict} (e.g. ["0 error(s), 14 warning(s), 0 info"]), or the
    elaboration-failure note. Shown next to catalog entries. *)
val lint_summary :
  ?cache:Jhdl_lint.Lint.report Jhdl_cache.Store.t ->
  ?now:float ->
  Ip_module.t ->
  string
