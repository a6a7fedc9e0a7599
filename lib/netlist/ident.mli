(** Identifier legalization for netlist formats.

    Flattened names contain ['/'], ['['], [']'] and may collide after
    sanitizing; a legalizer rewrites them into the target format's
    identifier syntax and keeps the mapping stable and collision-free
    within one netlist. *)

type t

(** Which syntax to legalize for. *)
type style =
  | Edif  (** letters, digits, underscore; must start with a letter *)
  | Vhdl  (** VHDL-93 basic identifiers; reserved words avoided *)
  | Verilog  (** Verilog simple identifiers; reserved words avoided *)

val create : style -> t

(** [legalize t name] returns the legal identifier for [name], allocating
    one on first use; the same input always maps to the same output and
    distinct inputs never collide. *)
val legalize : t -> string -> string

(** [sanitize style name] is the stateless first step of {!legalize}: the
    name rewritten into the style's identifier syntax, before any
    collision uniquification. Exposed for the lint engine, which checks
    whether distinct names sanitize to the same identifier. *)
val sanitize : style -> string -> string

(** [is_reserved style name] — [name] (case-insensitively) is a reserved
    word of the target language. *)
val is_reserved : style -> string -> bool

(** [case_key style name] — the collision key used when allocating
    identifiers: lowercased for case-insensitive VHDL, verbatim
    otherwise. *)
val case_key : style -> string -> string
