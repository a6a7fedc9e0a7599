(* The observability subsystem itself: instrument semantics, bucket
   boundaries, ring-buffer wraparound, renderer goldens, and the nil
   registry's contract that disabled call sites still work. *)

module M = Jhdl_metrics.Metrics

let test_counter () =
  let reg = M.create "t" in
  let c = M.counter reg "hits" in
  Alcotest.(check int) "starts at zero" 0 (M.count c);
  M.incr c;
  M.incr c;
  M.add c 40;
  Alcotest.(check int) "incr and add" 42 (M.count c);
  Alcotest.check_raises "duplicate name rejected"
    (Invalid_argument "Metrics: duplicate metric t.hits") (fun () ->
      ignore (M.counter reg "hits"))

let test_gauge () =
  let g = M.gauge (M.create "t") "level" in
  Alcotest.(check int) "initial" 0 (M.value g);
  M.set g 7;
  M.set g 3;
  Alcotest.(check int) "last write wins" 3 (M.value g)

let test_histogram_buckets () =
  let reg = M.create "t" in
  let h = M.histogram ~bounds:[| 10; 100; 1000 |] reg "size" in
  (* a value exactly on a bound lands in that bucket (inclusive upper) *)
  List.iter (M.observe h) [ 1; 10; 11; 100; 101; 1000 ];
  let s = M.summary h in
  Alcotest.(check int) "count" 6 s.M.count;
  Alcotest.(check int) "sum" 1223 s.M.sum;
  Alcotest.(check int) "max" 1000 s.M.max;
  (* ceil(0.5 * 6) = 3rd value; buckets hold 2/2/2 so the 3rd closes in
     the second bucket, bound 100 *)
  Alcotest.(check int) "p50 is a bucket bound" 100 s.M.p50;
  Alcotest.(check int) "p95 is the last bound" 1000 s.M.p95

let test_histogram_overflow () =
  let h = M.histogram ~bounds:[| 10 |] (M.create "t") "size" in
  M.observe h 5000;
  let s = M.summary h in
  (* overflow quantiles report the observed max, not a fake bound *)
  Alcotest.(check int) "overflow p50" 5000 s.M.p50;
  Alcotest.(check int) "overflow max" 5000 s.M.max;
  let empty = M.summary (M.histogram ~bounds:[| 10 |] (M.create "e") "z") in
  Alcotest.(check int) "empty count" 0 empty.M.count;
  Alcotest.(check int) "empty p95" 0 empty.M.p95

let test_probe () =
  let reg = M.create "t" in
  let state = ref 5 in
  M.probe reg "live" (fun () -> !state);
  state := 9;
  (* probes are read at snapshot time, not registration time *)
  match M.snapshot reg with
  | [ ("live", M.Counter_sample v) ] -> Alcotest.(check int) "pull" 9 v
  | _ -> Alcotest.fail "expected one probe sample"

let test_nil_noop () =
  Alcotest.(check bool) "nil is nil" true (M.is_nil M.nil);
  (* instruments minted from nil are live but unregistered: the same
     call sites work with metrics off, and duplicates never trip *)
  let c = M.counter M.nil "x" in
  let c2 = M.counter M.nil "x" in
  M.incr c;
  M.incr c2;
  Alcotest.(check int) "nil counter still counts" 1 (M.count c);
  Alcotest.(check (list string)) "nothing registered" []
    (List.map fst (M.snapshot M.nil));
  let tr = M.tracer M.nil in
  M.trace tr "ev";
  Alcotest.(check int) "nil tracer drops" 0 (List.length (M.events tr));
  Alcotest.(check int) "nil tracer is a full no-op" 0 (M.trace_total tr);
  Alcotest.(check string) "nil renders empty" "" (M.all_to_text [ M.nil ])

let test_tracer_wraparound () =
  let tr = M.tracer ~capacity:4 (M.create "t") in
  for i = 1 to 10 do
    M.trace tr ~span:M.Point ~value:i "step"
  done;
  Alcotest.(check int) "total counts overwrites" 10 (M.trace_total tr);
  let evs = M.events tr in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length evs);
  Alcotest.(check (list int)) "oldest first, newest kept" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.M.ev_value) evs);
  Alcotest.(check (list int)) "seq is stream position" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.M.ev_seq) evs)

let test_text_golden () =
  let reg = M.create "demo" in
  let c = M.counter reg "requests_total" in
  let g = M.gauge reg "in_flight" in
  let h = M.histogram ~bounds:[| 1; 2; 5 |] reg "latency" in
  M.add c 3;
  M.set g 1;
  M.observe h 2;
  M.observe h 9;
  Alcotest.(check string) "aligned text"
    ("[demo] 3 metric(s)\n"
    ^ "  gauge     in_flight                        1\n"
    ^ "  histogram latency                          count=2 sum=11 p50=2 \
       p95=9 max=9\n"
    ^ "  counter   requests_total                   3\n")
    (M.to_text reg)

let test_json_golden () =
  let reg = M.create "demo" in
  M.add (M.counter reg "a\"b") 1;
  M.set (M.gauge reg "g") 2;
  Alcotest.(check string) "escaped, one object per line"
    ("{\n  \"component\": \"demo\",\n  \"metrics\": [\n"
    ^ "    {\"name\": \"a\\\"b\", \"type\": \"counter\", \"value\": 1},\n"
    ^ "    {\"name\": \"g\", \"type\": \"gauge\", \"value\": 2}\n"
    ^ "  ]\n}\n")
    (M.to_json reg)

let test_trace_text () =
  let tr = M.tracer ~capacity:8 (M.create "t") in
  M.trace tr ~span:M.Enter ~value:1 "exchange";
  M.trace tr ~span:M.Exit ~value:1 "exchange";
  M.trace tr "tick";
  let text = M.trace_to_text ~last:2 tr in
  Alcotest.(check string) "tail rendering"
    ("trace: 3 event(s) recorded, showing last 2\n"
    ^ "  [     1] exit  exchange                     1\n"
    ^ "  [     2] point tick                         0\n")
    text

let test_crc16_known_answers () =
  let crc = Jhdl_logic.Crc16.checksum in
  (* CRC-16/CCITT-FALSE check values; both wire formats (simulator
     snapshots and the cosim protocol) share this implementation *)
  Alcotest.(check int) "empty" 0xFFFF (crc "");
  Alcotest.(check int) "123456789" 0x29B1 (crc "123456789");
  Alcotest.(check int) "A" 0xB915 (crc "A")

(* the bit-serial CRC-16/CCITT-FALSE, one branch per bit: the
   definition the table-driven [Crc16.checksum_sub] must reproduce *)
let crc16_bitwise s pos len =
  let crc = ref 0xFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor (Char.code s.[i] lsl 8);
    for _ = 1 to 8 do
      crc :=
        if !crc land 0x8000 <> 0 then ((!crc lsl 1) lxor 0x1021) land 0xFFFF
        else (!crc lsl 1) land 0xFFFF
    done
  done;
  !crc

let prop_crc16_table_matches_bitwise =
  QCheck.Test.make ~count:500 ~name:"crc16 table = bit-serial reference"
    QCheck.(triple string small_nat small_nat)
    (fun (s, a, b) ->
       let n = String.length s in
       let pos = a mod (n + 1) in
       let len = b mod (n - pos + 1) in
       Jhdl_logic.Crc16.checksum_sub s pos len = crc16_bitwise s pos len
       && Jhdl_logic.Crc16.checksum s = crc16_bitwise s 0 n)

(* the sliced loop takes 8 bytes a step and the rest one at a time:
   every length from 0 to 40, each at a random offset, crosses both
   paths and every tail length *)
let prop_crc16_sliced_every_length =
  QCheck.Test.make ~count:200 ~name:"crc16 sliced = bit-serial at lengths 0..40"
    QCheck.(pair (string_of_size (Gen.int_range 40 96)) small_nat)
    (fun (s, offset) ->
       let n = String.length s in
       List.for_all
         (fun len ->
            let pos = offset mod (n - len + 1) in
            Jhdl_logic.Crc16.checksum_sub s pos len = crc16_bitwise s pos len)
         (List.init 41 Fun.id))

(* a checksum continued over a second range equals the checksum of
   the two ranges laid end to end *)
let prop_crc16_update_continues =
  QCheck.Test.make ~count:300 ~name:"crc16 update continues a checksum"
    QCheck.(pair string small_nat)
    (fun (s, cut) ->
       let n = String.length s in
       let cut = cut mod (n + 1) in
       let open Jhdl_logic.Crc16 in
       update (update 0xFFFF s 0 cut) s cut (n - cut) = checksum s)

let suite =
  [ Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "gauge" `Quick test_gauge;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "histogram overflow" `Quick test_histogram_overflow;
    Alcotest.test_case "probe" `Quick test_probe;
    Alcotest.test_case "nil registry is a no-op" `Quick test_nil_noop;
    Alcotest.test_case "tracer wraparound" `Quick test_tracer_wraparound;
    Alcotest.test_case "text golden" `Quick test_text_golden;
    Alcotest.test_case "json golden" `Quick test_json_golden;
    Alcotest.test_case "trace text" `Quick test_trace_text;
    Alcotest.test_case "crc16 known answers" `Quick test_crc16_known_answers;
    QCheck_alcotest.to_alcotest prop_crc16_table_matches_bitwise;
    QCheck_alcotest.to_alcotest prop_crc16_sliced_every_length;
    QCheck_alcotest.to_alcotest prop_crc16_update_continues ]
