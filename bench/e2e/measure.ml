(* Run options and the measurements every workload shares. *)

type opts = {
  seed : int;
  seconds : float;  (* phase sizes scale with this *)
  setups : int;  (* set-ups timed for [setup_s] *)
  trace : Trace.t option;  (* [Some] in the traced run *)
}

let mb words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1e6

(* [setup_s]: set up from scratch [opts.setups] times, and in a full
   run ([setups] > 1) keep going, up to 40 times, while the set-ups add
   up to under 1.5 s. Set-ups are short, so a slow second of the host
   (see [e2e]) can cover several of them; [setup_s] is the first
   quartile of the times. The last world is the one measured. *)
let setups r opts f =
  let times = ref [] in
  let world = ref None in
  let spent = ref 0.0 in
  let reps = ref 0 in
  while !reps < opts.setups || (opts.setups > 1 && !spent < 1.5 && !reps < 40) do
    let t0 = Trace.now () in
    let w = f () in
    let dt = Trace.now () -. t0 in
    times := dt :: !times;
    spent := !spent +. dt;
    incr reps;
    world := Some w
  done;
  if opts.trace = None then begin
    let q1, _, _ = Stats.quartiles !times in
    Report.metric r "setup_s" q1 "s"
  end;
  Option.get !world

(* [blocks n k] — [n] items cut into [k] consecutive blocks, as
   (start, length) *)
let blocks n k =
  let k = max 1 (min k n) in
  List.init k (fun j ->
    let lo = j * n / k and hi = (j + 1) * n / k in
    (lo, hi - lo))

(* The end-to-end metrics every untraced run reports. A run is cut
   into windows of like work, and latency percentiles and throughput
   are taken per window. Other tenants of the host only ever slow a
   window down, by as much as a fifth and for seconds at a time, so
   each metric reports the better quartile across windows: the first
   quartile of the per-window latencies, the third of the per-window
   rates. *)
let e2e r ~windows ~rates =
  let low xs = let q1, _, _ = Stats.quartiles xs in q1 in
  let high xs = let _, _, q3 = Stats.quartiles xs in q3 in
  let pct q w = Stats.percentile_sorted (Stats.sorted_array w) q in
  Report.metric r "latency_p50_ms" (low (List.map (pct 0.5) windows) *. 1e3) "ms";
  Report.metric r "latency_p95_ms" (low (List.map (pct 0.95) windows) *. 1e3) "ms";
  Report.metric r "throughput_per_s" (high rates) "1/s";
  Report.metric r "peak_heap_mb" (mb (Gc.quick_stat ()).Gc.top_heap_words) "MB";
  Report.extra ~exact:true r "windows" (float_of_int (List.length windows)) "count";
  Report.extra ~exact:true r "samples"
    (float_of_int (List.fold_left (fun acc w -> acc + Stats.length w) 0 windows))
    "count"

(* [runtime r ~ops f] — run [f], an untraced pass of [ops] operations,
   and report its GC work per operation; returns [f]'s result *)
let runtime r ~ops f =
  let before = Gc.quick_stat () in
  let heap0 = before.Gc.heap_words in
  let v = f () in
  let after = Gc.quick_stat () in
  let ops = float_of_int (max 1 ops) in
  Report.metric r "runtime.minor_words_per_op"
    ((after.Gc.minor_words -. before.Gc.minor_words) /. ops) "words";
  Report.metric r "runtime.major_gcs_per_kop"
    (float_of_int (after.Gc.major_collections - before.Gc.major_collections)
     *. 1000.0 /. ops)
    "count";
  Report.metric r "runtime.heap_growth_mb" (mb (after.Gc.heap_words - heap0)) "MB";
  v

(* trace-quality metrics: how much of the [root] spans' time their
   children cover, and the traced operation's p50 against the same
   operation's untraced p50 *)
let trace_quality r tr ~root ~traced_p50 ~untraced_p50 =
  Report.metric r "trace.coverage" (Trace.coverage tr root) "ratio";
  Report.metric r "trace.overhead_pct"
    (if untraced_p50 > 0.0 then 100.0 *. ((traced_p50 /. untraced_p50) -. 1.0) else 0.0)
    "%"

let us s = s *. 1e6
let ms s = s *. 1e3
