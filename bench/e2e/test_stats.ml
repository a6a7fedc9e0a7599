(* Hand-computed vectors for the order statistics and verdict rules the
   benchmark and compare.exe rely on. *)

open E2e

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-12

let triple (a, b, c) (x, y, z) = close a x && close b y && close c z

let () =
  let one_to n = List.init n (fun i -> float_of_int (i + 1)) in
  (* linear interpolation between closest ranks *)
  check "percentile p50 even" (close (Stats.percentile [ 4.0; 1.0; 3.0; 2.0 ] 0.5) 2.5);
  check "percentile p0" (close (Stats.percentile [ 4.0; 1.0; 3.0; 2.0 ] 0.0) 1.0);
  check "percentile p100" (close (Stats.percentile [ 4.0; 1.0; 3.0; 2.0 ] 1.0) 4.0);
  check "percentile p25" (close (Stats.percentile [ 4.0; 1.0; 3.0; 2.0 ] 0.25) 1.75);
  check "percentile p99 of 1..101" (close (Stats.percentile (one_to 101) 0.99) 100.0);
  check "percentile p99 of 1..100" (close (Stats.percentile (one_to 100) 0.99) 99.01);
  check "percentile empty" (close (Stats.percentile [] 0.5) 0.0);
  check "percentile single" (close (Stats.percentile [ 7.0 ] 0.99) 7.0);
  check "median odd" (close (Stats.median [ 3.0; 1.0; 2.0 ]) 2.0);
  check "median even" (close (Stats.median [ 10.0; 1.0; 2.0; 3.0 ]) 2.5);
  (* statistics.quantiles(xs, n=4) *)
  check "quartiles 1..4" (triple (Stats.quartiles (one_to 4)) (1.25, 2.5, 3.75));
  check "quartiles 1..10" (triple (Stats.quartiles (one_to 10)) (2.75, 5.5, 8.25));
  check "quartiles 1..5" (triple (Stats.quartiles (one_to 5)) (1.5, 3.0, 4.5));
  (* two points: Python extrapolates past both ends *)
  check "quartiles two" (triple (Stats.quartiles [ 2.0; 1.0 ]) (0.75, 1.5, 2.25));
  check "quartiles unsorted"
    (triple (Stats.quartiles [ 9.0; 2.0; 7.0; 4.0; 5.0; 1.0; 8.0 ]) (2.0, 5.0, 8.0));
  check "spread 1..10" (close (Stats.spread (one_to 10)) 1.0);
  check "spread constant" (close (Stats.spread [ 3.0; 3.0; 3.0 ]) 0.0);
  (* sample buffers grow past their first chunk *)
  let s = Stats.samples () in
  for i = 1 to 5000 do
    Stats.add s (float_of_int i)
  done;
  check "samples length" (Stats.length s = 5000);
  check "samples p50" (close (Stats.p50 s) 2500.5);
  check "samples total" (close (Stats.total s) 12502500.0);
  check "sub window" (close (Stats.p50 (Stats.sub s (1000, 11))) 1006.0);
  check "concat" (Stats.length (Stats.concat [ s; Stats.sub s (0, 10) ]) = 5010);
  (* verdicts *)
  let a = [ 10.0; 10.1; 9.9; 10.0; 10.2; 9.8; 10.0; 10.1; 9.9; 10.0 ] in
  let faster = List.map (fun x -> x *. 0.8) a in
  let slower = List.map (fun x -> x *. 1.2) a in
  check "win fraction all" (close (Verdict.win_fraction ~higher:false a faster) 1.0);
  check "win fraction none" (close (Verdict.win_fraction ~higher:false a slower) 0.0);
  check "win fraction ties" (close (Verdict.win_fraction ~higher:false a a) 0.0);
  check "worsening lower" (close (Verdict.worsening ~higher:false ~base:10.0 11.0) 0.1);
  check "worsening higher" (close (Verdict.worsening ~higher:true ~base:10.0 11.0) (-0.1));
  let verdict = Verdict.classify ~higher:false ~bound:0.05 a in
  check "improved" (verdict faster = Verdict.Improved);
  check "regressed" (verdict slower = Verdict.Regressed);
  check "unchanged" (verdict a = Verdict.Unchanged);
  let noisy = [ 5.0; 15.0; 10.0; 6.0; 14.0; 9.0; 11.0; 7.0; 13.0; 10.0 ] in
  check "unresolved" (Verdict.classify ~higher:false ~bound:0.05 noisy a = Verdict.Unresolved);
  check "unresolved but all better"
    (Verdict.classify ~higher:false ~bound:0.05 noisy (List.map (fun _ -> 1.0) noisy)
     = Verdict.Improved);
  check "no bound regressed" (Verdict.classify ~higher:false a slower = Verdict.Regressed);
  check "no bound unchanged" (Verdict.classify ~higher:false a a = Verdict.Unchanged);
  if !failures > 0 then exit 1;
  print_endline "test_stats: ok"
