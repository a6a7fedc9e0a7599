(** EDIF reader: a small s-expression parser plus extraction of the
    netlist skeleton from EDIF 2.0.0 text.

    Exists so the test suite (and a receiving customer's flow) can check
    a generated netlist structurally — parse it back, count instances and
    nets, recover INIT properties — rather than trusting the writer. *)

type sexp =
  | Atom of string
  | List of sexp list

(** [max_depth] is the deepest list nesting {!parse} accepts: 1 024,
    about a hundred times what the EDIF writer nests. *)
val max_depth : int

(** [parse s] — [Error message] on malformed input (with position),
    and on a list nested deeper than {!max_depth}, refused at the
    parenthesis that opens it with a message naming the limit. Runs in
    time linear in [s], with no recursion. *)
val parse : string -> (sexp, string) result

type summary = {
  design_name : string;
  library_cells : string list;  (** declared technology cells, sorted *)
  instance_count : int;
  net_count : int;
  port_count : int;  (** external ports of the design cell *)
  init_properties : (string * string) list;
      (** (instance, INIT value) pairs, in document order *)
}

(** [summarize sexp] — walks a parsed EDIF document. [Error _] when the
    document does not have the expected shape. *)
val summarize : sexp -> (summary, string) result

(** [read s] = parse then summarize. *)
val read : string -> (summary, string) result
