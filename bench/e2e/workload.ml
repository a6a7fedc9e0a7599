(* The four workloads (Declared.workloads) by name. *)

(* [run name r opts] — run one workload into [r], which then holds the
   declared metrics of its mode in declared order: the end-to-end ones
   untraced, the per-layer ones traced, where a layer the workload
   never crossed reads 0 *)
let run name r (o : Measure.opts) =
  (match name with
   | "deliver_hot" -> Deliver.run r Deliver.Hot o
   | "deliver_cold" -> Deliver.run r Deliver.Cold o
   | "cosim_session" -> Cosim_session.run r o
   | "sim_sweep" -> Sim_sweep.run r o
   | _ -> invalid_arg ("unknown workload " ^ name));
  let traced = o.Measure.trace <> None in
  let reported = Report.metrics r in
  r.Report.metrics <- [];
  List.iter
    (fun (metric, unit_, _) ->
       match List.find_opt (fun (n, _, _) -> n = metric) reported with
       | Some (_, v, _) -> Report.metric r metric v unit_
       | None when traced -> Report.metric r metric 0.0 unit_
       | None -> failwith (name ^ " did not report " ^ metric))
    (if traced then Declared.per_layer else Declared.end_to_end)

(* the digest of a workload's generated inputs, without running it *)
let digest name ~seed ~seconds =
  match name with
  | "deliver_hot" | "deliver_cold" ->
    let kind = if name = "deliver_hot" then Deliver.Hot else Deliver.Cold in
    (Deliver.inputs kind ~population:(Gen.hot_population ~per_ip:8) ~seed ~seconds).Deliver.digest
  | "cosim_session" ->
    let _, _, d = Cosim_session.inputs ~seed ~seconds in
    d
  | "sim_sweep" ->
    let _, _, d = Sim_sweep.inputs ~seed ~seconds in
    d
  | _ -> invalid_arg ("unknown workload " ^ name)
