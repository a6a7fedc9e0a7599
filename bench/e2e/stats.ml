(* Sample buffers and the order statistics the benchmark reports.

   [percentile] interpolates linearly between closest ranks (numpy's
   default); [quartiles] reproduces Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method), because
   that is how run-to-run spread is judged against a metric's bound. *)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (max 1024 (2 * s.len)) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let length s = s.len

(* [sub s (lo, len)] — a window of [s]; [concat] — all of several *)
let sub s (lo, len) = { data = Array.sub s.data lo len; len }

let concat ss =
  let all = samples () in
  List.iter (fun s -> for i = 0 to s.len - 1 do add all s.data.(i) done) ss;
  all

let total s = Array.fold_left ( +. ) 0.0 (Array.sub s.data 0 s.len)

let sorted_array s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* [q] in [0, 1]; 0 for an empty sample (a layer a workload never
   crossed) *)
let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else if n = 1 then a.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)
  end

let percentile xs q = percentile_sorted (sorted xs) q
let median xs = percentile xs 0.5
let p50 s = percentile_sorted (sorted_array s) 0.5

let p50_p99 s =
  let a = sorted_array s in
  (percentile_sorted a 0.5, percentile_sorted a 0.99)

(* Python's statistics.quantiles(data, n=4, method="exclusive") *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
  end

(* interquartile range as a share of the median: the spread the bound
   of a metric is judged against *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2
