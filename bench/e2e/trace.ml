(* Monotonic clock and the in-memory span recorder of the traced run.

   A span is (name, start, end, parent, request id). Spans nest on a
   stack; when one closes, its self time (duration minus the time its
   children covered) is added to the samples of its name, and its
   duration is charged to the parent. Root spans (depth 0) also keep
   their durations and the time their children covered, for
   [root_p50] and [coverage]. The first [chrome_requests] requests are
   kept as raw events for a Chrome trace-event file. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let max_depth = 16
let chrome_requests = 2000

type t = {
  enabled : bool;
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable self : Stats.samples array;  (* per name *)
  mutable roots : Stats.samples array;  (* per name: root durations *)
  mutable covered : float array;  (* per name: root time children covered *)
  stack_id : int array;
  stack_start : float array;
  stack_entered : float array;
  stack_child : float array;
  mutable depth : int;
  mutable request : int;
  (* raw events of the first requests *)
  ev_name : Stats.samples;
  ev_start : Stats.samples;
  ev_dur : Stats.samples;
  ev_parent : Stats.samples;
  ev_req : Stats.samples;
}

let make enabled =
  { enabled; ids = Hashtbl.create 32; names = [||]; self = [||]; roots = [||];
    covered = [||];
    stack_id = Array.make max_depth 0;
    stack_start = Array.make max_depth 0.0;
    stack_entered = Array.make max_depth 0.0;
    stack_child = Array.make max_depth 0.0;
    depth = 0; request = 0;
    ev_name = Stats.samples (); ev_start = Stats.samples ();
    ev_dur = Stats.samples (); ev_parent = Stats.samples ();
    ev_req = Stats.samples () }

let create () = make true

(* the untraced runs pass [off]: every call is a test and a return *)
let off = make false

let id t name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None ->
    let i = Array.length t.names in
    Hashtbl.replace t.ids name i;
    t.names <- Array.append t.names [| name |];
    t.self <- Array.append t.self [| Stats.samples () |];
    t.roots <- Array.append t.roots [| Stats.samples () |];
    t.covered <- Array.append t.covered [| 0.0 |];
    i

let set_request t n = t.request <- n

(* A span's own duration runs from the end of [enter] to the start of
   [exit]; the recorder's bookkeeping on either side is charged to the
   span as its parent sees it, so recording never shows up as the
   parent's self time. *)
let enter t i =
  if t.enabled then begin
    let entered = now () in
    let d = t.depth in
    t.stack_id.(d) <- i;
    t.stack_child.(d) <- 0.0;
    t.stack_entered.(d) <- entered;
    t.depth <- d + 1;
    t.stack_start.(d) <- now ()
  end

let exit t =
  if t.enabled then begin
    let stop = now () in
    let d = t.depth - 1 in
    t.depth <- d;
    let start = t.stack_start.(d) in
    let dur = stop -. start in
    let i = t.stack_id.(d) in
    Stats.add t.self.(i) (dur -. t.stack_child.(d));
    if d = 0 then begin
      Stats.add t.roots.(i) dur;
      t.covered.(i) <- t.covered.(i) +. t.stack_child.(d)
    end;
    if t.request < chrome_requests then begin
      Stats.add t.ev_name (float_of_int i);
      Stats.add t.ev_start start;
      Stats.add t.ev_dur dur;
      Stats.add t.ev_parent (if d = 0 then -1.0 else float_of_int t.stack_id.(d - 1));
      Stats.add t.ev_req (float_of_int t.request)
    end;
    if d > 0 then
      t.stack_child.(d - 1) <- t.stack_child.(d - 1) +. (now () -. t.stack_entered.(d))
  end

(* [span t i f] — [f ()] inside a span *)
let span t i f =
  enter t i;
  match f () with
  | v -> exit t; v
  | exception e -> exit t; raise e

let find t field name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> field.(i)
  | None -> Stats.samples ()

let self_p50 t name = Stats.p50 (find t t.self name)
let self_p50_p99 t name = Stats.p50_p99 (find t t.self name)
let root_p50 t name = Stats.p50 (find t t.roots name)

(* share of the [root] spans' time that their child spans cover *)
let coverage t root =
  match Hashtbl.find_opt t.ids root with
  | None -> 0.0
  | Some i ->
    let total = Stats.total t.roots.(i) in
    if total = 0.0 then 0.0 else t.covered.(i) /. total

let write_chrome t path =
  let oc = open_out_bin path in
  output_string oc "{\"traceEvents\": [\n";
  let n = Stats.length t.ev_name in
  let t0 = if n = 0 then 0.0 else (Stats.sorted_array t.ev_start).(0) in
  for k = 0 to n - 1 do
    let get s = s.Stats.data.(k) in
    let parent = int_of_float (get t.ev_parent) in
    Printf.fprintf oc
      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
       \"dur\": %.3f, \"args\": {\"request\": %d, \"parent\": \"%s\"}}"
      (if k = 0 then "" else ",\n")
      t.names.(int_of_float (get t.ev_name))
      ((get t.ev_start -. t0) *. 1e6)
      (get t.ev_dur *. 1e6)
      (int_of_float (get t.ev_req))
      (if parent < 0 then "" else t.names.(parent))
  done;
  output_string oc "\n], \"displayTimeUnit\": \"ns\"}\n";
  close_out oc
