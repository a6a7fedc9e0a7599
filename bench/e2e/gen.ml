(* Seeded workload inputs. Everything here is a pure function of the
   workload seed; the program under test only ever sees what these
   functions return. *)

open Jhdl

let state ~seed ~tag = Random.State.make [| seed; Hashtbl.hash tag |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* one generator invocation: the IP, its complete assignment, the
   form-field strings a browser would post, and the content address *)
type point = {
  ip : Ip_module.t;
  assignment : (string * Ip_module.param_value) list;
  fields : (string * string) list;
  descriptor : string;
}

let point ip assignment =
  let fields =
    List.map (fun (k, v) -> (k, Ip_module.param_to_string v)) assignment
  in
  { ip; assignment; fields;
    descriptor =
      Delivery_cache.generator_descriptor ~generator:ip.Ip_module.ip_name
        ~params:fields }

(* The coupled constraints of the catalog generators: ranges the schema
   accepts one parameter at a time but the generator refuses in
   combination. *)
let coupled_ok ip assignment =
  let int n = Ip_module.int_param assignment n
  and bool n = Ip_module.bool_param assignment n in
  match ip.Ip_module.ip_name with
  | "VirtexKCMMultiplier" -> bool "signed" || int "constant" >= 0
  | "FirFilter" ->
    bool "signed"
    || List.for_all (fun c -> c >= 0)
         (List.assoc (Ip_module.choice_param assignment "taps")
            Catalog.fir_coefficient_sets)
  | "CordicRotator" -> int "iterations" <= int "width"
  | _ -> true

(* ------------------------------------------------------------------ *)
(* the hot population: defaults plus single-parameter nudges           *)
(* ------------------------------------------------------------------ *)

(* 8 invocations per catalog IP: its defaults, then one parameter at a
   time nudged by 1..4 steps either way, skipping repeats and points a
   coupled constraint refuses *)
let hot_population ~per_ip =
  let variants ip =
    let defaults = Ip_module.defaults ip in
    let nudge name step dir =
      List.map
        (fun (n, v) ->
           if not (String.equal n name) then (n, v)
           else
             match (v, List.assoc n ip.Ip_module.params) with
             | Ip_module.Int_value d, Ip_module.Int_param { min_value; max_value; _ } ->
               (n, Ip_module.Int_value (max min_value (min max_value (d + (dir * step)))))
             | Ip_module.Bool_value b, _ -> (n, Ip_module.Bool_value (not b))
             | Ip_module.Choice_value c, Ip_module.Choice_param { choices; _ } ->
               let rec index i = function
                 | [] -> 0
                 | x :: rest -> if String.equal x c then i else index (i + 1) rest
               in
               let i = index 0 choices in
               (n, Ip_module.Choice_value
                     (List.nth choices ((i + step) mod List.length choices)))
             | other, _ -> (n, other))
        defaults
    in
    let candidates =
      List.concat_map
        (fun step ->
           List.concat_map
             (fun (name, _) -> [ nudge name step 1; nudge name step (-1) ])
             ip.Ip_module.params)
        [ 1; 2; 3; 4 ]
    in
    let rec take acc seen = function
      | [] -> List.rev acc
      | _ when List.length acc >= per_ip -> List.rev acc
      | assignment :: rest ->
        let p = point ip assignment in
        if List.mem p.descriptor seen || not (coupled_ok ip assignment) then
          take acc seen rest
        else take (p :: acc) (p.descriptor :: seen) rest
    in
    take [] [] (defaults :: candidates)
  in
  Array.of_list (List.concat_map variants Catalog.all)

(* Zipf(skew) over [k] items: rank r has weight 1/(r+1)^skew. Ranks
   map onto items through a fixed shuffle, not a seeded one, so every
   seed requests the same popularity mix; the seed draws the sequence
   (and the users and links), which keeps the hot workload's
   cross-seed spread down to timing noise. *)
let zipf ~skew ~k =
  let cdf = Array.make k 0.0 in
  let total = ref 0.0 in
  for r = 0 to k - 1 do
    total := !total +. (1.0 /. (float_of_int (r + 1) ** skew));
    cdf.(r) <- !total
  done;
  let perm = Array.init k (fun i -> i) in
  shuffle (Random.State.make [| 77 |]) perm;
  fun st ->
    let u = Random.State.float st !total in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if u <= cdf.(mid) then find lo mid else find (mid + 1) hi
    in
    perm.(find 0 (k - 1))

(* ------------------------------------------------------------------ *)
(* the cold stream: stratified uniform draws inside each IP's ranges   *)
(* ------------------------------------------------------------------ *)

(* [n] points of one IP: point [j] takes, for parameter [name], the
   position [u name j] in [0, 1) along its range. Coupled constraints
   are honoured by placing the dependent parameter inside its valid
   sub-range: CORDIC iterations in 1..width, an unsigned KCM constant
   in 0..max, an unsigned FIR among the non-negative tap sets. *)
let placed ip n ~u =
  let pick_int lo hi x = min hi (lo + int_of_float (x *. float_of_int (hi - lo + 1))) in
  List.init n (fun j ->
    let u name = u name j in
    let raw =
      List.map
        (fun (name, kind) ->
           ( name,
             match kind with
             | Ip_module.Int_param { min_value; max_value; _ } ->
               Ip_module.Int_value (pick_int min_value max_value (u name))
             | Ip_module.Bool_param _ -> Ip_module.Bool_value (u name >= 0.5)
             | Ip_module.Choice_param { choices; _ } ->
               Ip_module.Choice_value
                 (List.nth choices (pick_int 0 (List.length choices - 1) (u name))) ))
        ip.Ip_module.params
    in
    let set name v = List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) raw in
    let assignment =
      match ip.Ip_module.ip_name with
      | "CordicRotator" ->
        set "iterations"
          (Ip_module.Int_value (pick_int 1 (Ip_module.int_param raw "width") (u "iterations")))
      | "VirtexKCMMultiplier" when not (Ip_module.bool_param raw "signed") ->
        set "constant" (Ip_module.Int_value (pick_int 0 32767 (u "constant")))
      | "FirFilter" when not (Ip_module.bool_param raw "signed") ->
        let positive =
          List.filter (fun (_, cs) -> List.for_all (fun c -> c >= 0) cs)
            Catalog.fir_coefficient_sets
        in
        set "taps"
          (Ip_module.Choice_value
             (fst (List.nth positive (pick_int 0 (List.length positive - 1) (u "taps")))))
      | _ -> raw
    in
    point ip assignment)

(* Latin-hypercube sampling: each parameter's range is cut into [n]
   strata, visited once each in an independent seeded order, with a
   uniform draw inside the stratum. The marginals stay uniform over
   each range, but a block's mix of design sizes no longer swings with
   the seed, which is what keeps the cold workload's cross-seed spread
   inside its bounds. *)
let stratified_points st ip n =
  let perms =
    List.map
      (fun (name, _) ->
         let perm = Array.init n (fun i -> i) in
         shuffle st perm;
         (name, perm))
      ip.Ip_module.params
  in
  placed ip n ~u:(fun name j ->
    (float_of_int (List.assoc name perms).(j) +. Random.State.float st 1.0)
    /. float_of_int n)

(* graded points: point [j] of [n] sits at the centre of stratum [j] of
   every parameter, so the points run from small to large designs *)
let graded_points ip n = placed ip n ~u:(fun _ j -> (float_of_int j +. 0.5) /. float_of_int n)

(* [n] cold points: every catalog IP gets an equal share (uniform IP),
   in seeded order *)
let cold_points st n =
  let ips = Array.of_list Catalog.all in
  let k = Array.length ips in
  let per_ip =
    Array.mapi
      (fun i ip ->
         Array.of_list (stratified_points st ip ((n / k) + if i < n mod k then 1 else 0)))
      ips
  in
  let order = Array.init n (fun j -> j mod k) in
  shuffle st order;
  let next = Array.make k 0 in
  Array.map
    (fun i ->
       let p = per_ip.(i).(next.(i)) in
       next.(i) <- next.(i) + 1;
       p)
    order

(* ------------------------------------------------------------------ *)
(* clients and schedules                                               *)
(* ------------------------------------------------------------------ *)

let users =
  [| ("passive-user", License.Passive);
     ("evaluator-user", License.Evaluator);
     ("licensed-user", License.Licensed) |]

let links = [| Download.modem_56k; Download.dsl_1m; Download.lan_10m |]

(* Poisson arrivals: [n] due times (seconds from the phase start) at
   [rate] per second *)
let poisson st ~rate n =
  let t = ref 0.0 in
  Array.init n (fun _ ->
    t := !t -. (log (1.0 -. Random.State.float st 1.0) /. rate);
    !t)

(* digest of a rendered input stream: same seed, same bytes *)
let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))
