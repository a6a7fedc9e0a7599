(* What one run measured: operation counts, failures by exception name,
   output checks, the input digest, and named metrics. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  failures : (string, int) Hashtbl.t;
  mutable mismatches : int;
  mutable first_mismatch : string option;
  mutable digest : string;
  mutable metrics : (string * float * string) list;  (* newest first *)
  mutable extras : (string * float * string * bool) list;
      (* newest first; the flag marks counts that repeat exactly *)
}

let create () =
  { attempted = 0; failed = 0; failures = Hashtbl.create 4; mismatches = 0;
    first_mismatch = None; digest = ""; metrics = []; extras = [] }

let fail r name =
  r.failed <- r.failed + 1;
  Hashtbl.replace r.failures name
    (1 + Option.value ~default:0 (Hashtbl.find_opt r.failures name))

(* [attempt r f] — one operation against the program: [Some v] on
   success; a raise is a failed operation, recorded under its exception
   name, and never aborts the run *)
let attempt r f =
  r.attempted <- r.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
    fail r (Printexc.exn_slot_name e);
    None

(* an output check *)
let check r ok what =
  if not ok then begin
    r.mismatches <- r.mismatches + 1;
    if r.first_mismatch = None then r.first_mismatch <- Some (what ())
  end

let correct r = r.mismatches = 0

(* a declared metric: the result line carries exactly these *)
let metric r name value unit_ = r.metrics <- (name, value, unit_) :: r.metrics

(* a number kept in the full record only: [exact] marks a count the
   program computes, which must repeat exactly for a seed *)
let extra ?(exact = false) r name value unit_ =
  r.extras <- (name, value, unit_, exact) :: r.extras

let metrics r = List.rev r.metrics
let extras r = List.rev r.extras

let failures r =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.failures [])

let metrics_json r =
  Json.Obj
    (List.map
       (fun (name, value, unit_) ->
          (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit_) ]))
       (metrics r))

(* the last line of standard output *)
let result_line r =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (correct r));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ("metrics", metrics_json r) ])

(* the full record [compare.exe] reads *)
let record r ~rev ~workload ~seed ~seconds ~trace =
  Json.Obj
    [ ("rev", Json.Str rev);
      ("ocaml", Json.Str Sys.ocaml_version);
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num seconds);
      ("trace", Json.Bool trace);
      ("digest", Json.Str r.digest);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("failures",
       Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) (failures r)));
      ("metrics", metrics_json r);
      ("extras",
       Json.Obj
         (List.map
            (fun (name, value, unit_, exact) ->
               ( name,
                 Json.Obj
                   [ ("value", Json.Num value); ("unit", Json.Str unit_);
                     ("exact", Json.Bool exact) ] ))
            (extras r))) ]
