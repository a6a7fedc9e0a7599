(* What the command-line tools share: [name=value] option splitting, a
   catalog generator run at [--param] options, and the [--chaos]
   runner. *)

open Jhdl

(* [split_eq what s] splits one [name=value] option; [what] names the
   option in the error *)
let split_eq what s =
  match String.index_opt s '=' with
  | Some i ->
    Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> Error (Printf.sprintf "%s expects name=value, got %s" what s)

(* [collect f xs] — [f] over [xs], stopping at the first error *)
let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    (match f x with
     | Error _ as e -> e
     | Ok v -> Result.map (fun vs -> v :: vs) (collect f rest))

(* [elaborate ip params] — [ip]'s generator at the [--param name=value]
   options, through the one form parser and the one generator call *)
let elaborate ip params =
  let ( let* ) = Result.bind in
  let* fields = collect (split_eq "--param") params in
  let* assignment = Ip_module.parse_params ip fields in
  Result.map_error Catalog.elaboration_error_to_string
    (Catalog.elaborate ip assignment)

(* --chaos: play one named scenario against a fresh delivery stack and
   exit. Exit 0 only when every recovery invariant held; 1 on a failed
   invariant; 2 for an unknown scenario. The caller has checked
   [metrics_format]. *)
let run_chaos name seed metrics_format =
  match Chaos.find_scenario name with
  | None ->
    Printf.eprintf "unknown scenario %s; choices: %s\n" name
      (String.concat ", " (Chaos.scenario_names ()));
    2
  | Some scenario ->
    let registry =
      if Option.is_some metrics_format then Metrics.create "chaos"
      else Metrics.nil
    in
    let report = Chaos.run ~metrics:registry ~seed scenario in
    print_string (Chaos.report_to_text report);
    (match metrics_format with
     | Some "json" -> print_string (Metrics.all_to_json [ registry ])
     | Some _ -> print_string (Metrics.all_to_text [ registry ])
     | None -> ());
    if Chaos.passed report then 0 else 1
