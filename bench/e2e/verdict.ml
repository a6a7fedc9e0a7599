(* The rules a change is judged by, for one metric on one workload,
   given the parent's runs [a] and the change's runs [b], taken in
   alternating pairs (a.(i), b.(i)):

   - a gain counts when the change wins at least 9 of 10 pairs (ties
     count for neither) and the medians differ by more than the
     parent's interquartile range;
   - a regression is a change median worse than the parent's by more
     than the metric's bound;
   - when the parent's own spread (IQR over median) is wider than the
     bound, the metric is unresolved, unless every run of the change
     reads better than every run of the parent.

   A metric without a bound (per layer) is improved or regressed by the
   gain rule alone, in either direction. *)

type outcome = Improved | Unchanged | Regressed | Unresolved

let outcome_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let better ~higher x y = if higher then x > y else x < y

(* share of pairs the change wins *)
let win_fraction ~higher a b =
  let a = Array.of_list a and b = Array.of_list b in
  let n = min (Array.length a) (Array.length b) in
  let wins = ref 0 in
  for i = 0 to n - 1 do
    if better ~higher b.(i) a.(i) then incr wins
  done;
  if n = 0 then 0.0 else float_of_int !wins /. float_of_int n

(* the change's median against the parent's, as a share of the parent's
   median; positive when worse *)
let worsening ~higher ~base value =
  if base = 0.0 then 0.0
  else
    let d = (value -. base) /. Float.abs base in
    if higher then -.d else d

let classify ~higher ?bound a b =
  let q1, ma, q3 = Stats.quartiles a in
  let mb = Stats.median b in
  let iqr = q3 -. q1 in
  let gain ~higher =
    win_fraction ~higher a b >= 0.9 && Float.abs (mb -. ma) > iqr && better ~higher mb ma
  in
  match bound with
  | None ->
    if gain ~higher then Improved
    else if gain ~higher:(not higher) then Regressed
    else Unchanged
  | Some bound ->
    let all_better = List.for_all (fun y -> List.for_all (fun x -> better ~higher y x) a) b in
    if Stats.spread a > bound then (if all_better then Improved else Unresolved)
    else if worsening ~higher ~base:ma mb > bound then Regressed
    else if gain ~higher then Improved
    else Unchanged
