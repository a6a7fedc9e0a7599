(* Summarize or compare benchmark runs.

     compare.exe [--benchmark FILE] RUN.json...
       median and quartiles of every metric per workload, and the
       median of every extra count, as bench/e2e/baseline.json holds them

     compare.exe [--benchmark FILE] [--claim METRIC] A.json... --vs B.json...
       the parent's runs A against the change's runs B, in alternating
       pairs: per metric and workload, medians, quartiles, the change's
       worsening against the metric's bound and a verdict (improved,
       unchanged, regressed, unresolved; see verdict.ml); counts that
       must repeat exactly are checked bit for bit. --claim names the
       metric a change claims to improve and prints its win fraction.

   RUN.json files are written by run.exe --json. Bounds and directions
   come from BENCHMARK.json (default: ./BENCHMARK.json). Exits 1 when a
   metric regressed or an exact count differs. *)

open E2e

type run = {
  workload : string;
  record : Json.t;
  metrics : (string * (float * string)) list;
  extras : (string * (float * string * bool)) list;
}

let field name j = match Json.member name j with Some v -> v | None -> Json.Null
let str name j = Option.value ~default:"" (Json.to_str (field name j))
let num name j = Option.value ~default:nan (Json.to_num (field name j))

let load path =
  let j = Json.read_file path in
  { workload = str "workload" j;
    record = j;
    metrics =
      List.map (fun (k, v) -> (k, (num "value" v, str "unit" v))) (Json.to_obj (field "metrics" j));
    extras =
      List.map
        (fun (k, v) -> (k, (num "value" v, str "unit" v, field "exact" v = Json.Bool true)))
        (Json.to_obj (field "extras" j)) }

(* name -> (higher is better, bound) *)
let declared path =
  let j = Json.read_file path in
  let entries key with_bound =
    List.map
      (fun m ->
         ( str "name" m,
           ( str "better" m = "higher",
             if with_bound then Some (num "bound" m) else None ) ))
      (Json.to_list (field key j))
  in
  entries "end_to_end" true @ entries "per_layer" false

let workloads runs = List.sort_uniq compare (List.map (fun r -> r.workload) runs)
let of_workload w runs = List.filter (fun r -> r.workload = w) runs

let values name runs =
  List.filter_map (fun r -> Option.map fst (List.assoc_opt name r.metrics)) runs

let metric_names runs =
  List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.metrics) runs)

let summary runs =
  let first = List.hd runs in
  let meta k = field k first.record in
  let per_workload w =
    let rs = of_workload w runs in
    let extra_names =
      List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.extras) rs)
    in
    ( w,
      Json.Obj
        (("runs", Json.Num (float_of_int (List.length rs)))
         :: ("digests",
             Json.Arr (List.sort_uniq compare (List.map (fun r -> field "digest" r.record) rs)))
         :: ("extras",
             Json.Obj
               (List.map
                  (fun name ->
                     let xs =
                       List.filter_map
                         (fun r -> Option.map (fun (v, _, _) -> v) (List.assoc_opt name r.extras))
                         rs
                     in
                     (name, Json.Num (Stats.median xs)))
                  extra_names))
         :: List.map
              (fun name ->
                 let xs = values name rs in
                 let q1, q2, q3 = Stats.quartiles xs in
                 let unit_ = snd (List.assoc name (List.hd rs).metrics) in
                 ( name,
                   Json.Obj
                     [ ("unit", Json.Str unit_); ("median", Json.Num q2);
                       ("q1", Json.Num q1); ("q3", Json.Num q3);
                       ("iqr_over_median", Json.Num (Stats.spread xs)) ] ))
              (metric_names rs)) )
  in
  Json.Obj
    [ ("rev", meta "rev"); ("ocaml", meta "ocaml"); ("nproc", meta "nproc");
      ("seeds",
       Json.Arr (List.sort_uniq compare (List.map (fun r -> field "seed" r.record) runs)));
      ("seconds", meta "seconds"); ("trace", meta "trace");
      ("workloads", Json.Obj (List.map per_workload (workloads runs))) ]

let compare_runs ~declared ~claim a b =
  let failed = ref false in
  Printf.printf "%-14s %-28s %14s %14s %8s %6s %6s %5s  %s\n" "workload" "metric" "A median"
    "B median" "worse" "bound" "spread" "wins" "verdict";
  List.iter
    (fun w ->
       let ra = of_workload w a and rb = of_workload w b in
       List.iter
         (fun name ->
            let xa = values name ra and xb = values name rb in
            let higher, bound =
              Option.value ~default:(false, None) (List.assoc_opt name declared)
            in
            if xa <> [] && xb <> [] then begin
              let outcome = Verdict.classify ~higher ?bound xa xb in
              if outcome = Verdict.Regressed then failed := true;
              let ma = Stats.median xa and mb = Stats.median xb in
              Printf.printf "%-14s %-28s %14.6g %14.6g %7.2f%% %6s %6.3f %5.2f  %s\n" w name ma mb
                (100.0 *. Verdict.worsening ~higher ~base:ma mb)
                (match bound with Some x -> Printf.sprintf "%.3f" x | None -> "-")
                (Stats.spread xa) (Verdict.win_fraction ~higher xa xb)
                (Verdict.outcome_name outcome);
              if claim = Some name then
                Printf.printf "  claim %s on %s: change wins %.0f%% of %d pairs (a gain needs 90%%): %s\n"
                  name w
                  (100.0 *. Verdict.win_fraction ~higher xa xb)
                  (min (List.length xa) (List.length xb))
                  (if outcome = Verdict.Improved then "gain" else "not met")
            end)
         (metric_names (ra @ rb));
       (* counts the program computes must repeat exactly for a seed *)
       let exact = Hashtbl.create 8 in
       List.iter
         (fun r ->
            List.iter
              (fun (name, (v, _, is_exact)) ->
                 if is_exact then
                   Hashtbl.replace exact (name, num "seed" r.record)
                     (v :: Option.value ~default:[] (Hashtbl.find_opt exact (name, num "seed" r.record))))
              r.extras)
         (ra @ rb);
       Hashtbl.iter
         (fun (name, seed) vs ->
            if List.exists (fun v -> Int64.bits_of_float v <> Int64.bits_of_float (List.hd vs)) vs
            then begin
              failed := true;
              Printf.printf "%-14s %-28s seed %.0f: exact count differs across runs\n" w name seed
            end)
         exact)
    (workloads (a @ b));
  !failed

let () =
  let benchmark = ref "BENCHMARK.json" and claim = ref None in
  let a = ref [] and b = ref [] and in_b = ref false in
  let rec parse = function
    | "--benchmark" :: file :: rest -> benchmark := file; parse rest
    | "--claim" :: name :: rest -> claim := Some name; parse rest
    | "--vs" :: rest -> in_b := true; parse rest
    | file :: rest ->
      if !in_b then b := file :: !b else a := file :: !a;
      parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let a = List.rev_map load !a and b = List.rev_map load !b in
  if a = [] then begin
    prerr_endline "usage: compare.exe [--benchmark FILE] [--claim METRIC] A.json... [--vs B.json...]";
    exit 2
  end;
  if b = [] then print_endline (Json.pretty (summary a))
  else if compare_runs ~declared:(declared !benchmark) ~claim:!claim a b then exit 1
