(** Multi-IP delivery applet.

    The paper's future work names "developing applets that deliver more
    than one IP module". A suite wraps one applet per catalog entry
    behind a single executable with an IP selector; the license (and its
    meters) is shared across the suite, so an evaluation cap applies to
    the customer, not per module. *)

type t

type command =
  | List_ips  (** show the catalog slice this suite carries *)
  | Select of string  (** switch the active IP by name *)
  | Ip_command of Applet.command  (** forwarded to the active IP's applet *)

val command_to_string : command -> string

(** [create ?lint_cache ?clock ~ips ~license ~user ()] — one shared
    license and meter; the first IP is initially selected. [ips] must be
    non-empty. With [lint_cache], catalog listings serve each entry's
    lint verdict content-addressed instead of re-elaborating per
    listing; [clock] timestamps cache recency (defaults to a constant —
    LRU order is maintained structurally either way). *)
val create :
  ?lint_cache:Jhdl_lint.Lint.report Jhdl_cache.Store.t ->
  ?clock:(unit -> float) ->
  ips:Ip_module.t list ->
  license:License.t ->
  user:string ->
  unit ->
  t

val selected : t -> Ip_module.t

val exec : t -> command -> (string, string) result
val run_script : t -> command list -> string
