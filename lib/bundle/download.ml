module Fault = Jhdl_faults.Fault
module M = Jhdl_metrics.Metrics

type link = {
  bandwidth_bits_per_s : float;
  latency_s : float;
}

let modem_56k = { bandwidth_bits_per_s = 56_000.0; latency_s = 0.150 }
let isdn_128k = { bandwidth_bits_per_s = 128_000.0; latency_s = 0.060 }
let dsl_1m = { bandwidth_bits_per_s = 1_000_000.0; latency_s = 0.030 }
let lan_10m = { bandwidth_bits_per_s = 10_000_000.0; latency_s = 0.005 }
let lan_100m = { bandwidth_bits_per_s = 100_000_000.0; latency_s = 0.001 }

let link_name link =
  if link.bandwidth_bits_per_s < 100_000.0 then "56k modem"
  else if link.bandwidth_bits_per_s < 500_000.0 then "128k ISDN"
  else if link.bandwidth_bits_per_s < 5_000_000.0 then "1M DSL"
  else if link.bandwidth_bits_per_s < 50_000_000.0 then "10M LAN"
  else "100M LAN"

(* connection setup + request/response: two round trips *)
let setup_seconds link = 4.0 *. link.latency_s

let payload_seconds link bytes = bytes *. 8.0 /. link.bandwidth_bits_per_s

(* one jar: TCP-ish setup plus compressed payload over bandwidth *)
let jar_seconds link jar =
  let bytes = float_of_int (Jar.compressed_size jar) in
  setup_seconds link +. payload_seconds link bytes

let jars_seconds link jars =
  List.fold_left (fun acc j -> acc +. jar_seconds link j) 0.0 jars

let update_seconds link ~changed () = jars_seconds link changed

(* ------------------------------------------------------------------ *)
(* faulty fetches with retry and byte-offset resume                    *)
(* ------------------------------------------------------------------ *)

type fetch_policy = {
  max_attempts : int;
  base_backoff_s : float;
  backoff_cap_s : float;
}

let default_fetch_policy =
  { max_attempts = 5; base_backoff_s = 0.5; backoff_cap_s = 8.0 }

let single_attempt = { default_fetch_policy with max_attempts = 1 }

type fetch = {
  fetch_jar : Jar.t;
  delivered : bool;
  attempts : int;
  bytes_on_wire : int;
  fetch_seconds : float;
}

(* One jar over a faulty HTTP link. Each attempt pays the connection
   setup; [Drop]/[Disconnect] kill the transfer at a seeded-random byte
   offset and the next attempt issues a Range request resuming there;
   [Corrupt] is only detected by the archive checksum after the full
   payload arrived, so it restarts from byte zero; [Latency_spike]
   stretches the setup. Retries wait a capped exponential backoff. *)
let fetch_jar ~injector ~spike_s ~policy link jar =
  let total = Jar.compressed_size jar in
  let seconds = ref 0.0 in
  let bytes_on_wire = ref 0 in
  let offset = ref 0 in
  let rec attempt n =
    if n > policy.max_attempts then
      { fetch_jar = jar;
        delivered = false;
        attempts = policy.max_attempts;
        bytes_on_wire = !bytes_on_wire;
        fetch_seconds = !seconds }
    else begin
      if n > 1 then
        seconds :=
          !seconds
          +. Float.min policy.backoff_cap_s
               (policy.base_backoff_s *. (2.0 ** float_of_int (n - 2)));
      seconds := !seconds +. setup_seconds link;
      let remaining = total - !offset in
      match Option.map Fault.draw injector |> Option.join with
      | None | Some Fault.Duplicate ->
        (* HTTP responses do not duplicate; delivered clean *)
        seconds := !seconds +. payload_seconds link (float_of_int remaining);
        bytes_on_wire := !bytes_on_wire + remaining;
        { fetch_jar = jar;
          delivered = true;
          attempts = n;
          bytes_on_wire = !bytes_on_wire;
          fetch_seconds = !seconds }
      | Some Fault.Latency_spike ->
        seconds :=
          !seconds +. spike_s +. payload_seconds link (float_of_int remaining);
        bytes_on_wire := !bytes_on_wire + remaining;
        { fetch_jar = jar;
          delivered = true;
          attempts = n;
          bytes_on_wire = !bytes_on_wire;
          fetch_seconds = !seconds }
      | Some Fault.Drop | Some Fault.Disconnect | Some Fault.Session_crash ->
        (* died mid-transfer (a crashed server looks like a dropped
           connection to HTTP): the bytes that made it are kept and the
           next attempt resumes at the new offset *)
        let fraction =
          match injector with Some i -> Fault.fraction i | None -> 0.0
        in
        let got = int_of_float (float_of_int remaining *. fraction) in
        seconds := !seconds +. payload_seconds link (float_of_int got);
        bytes_on_wire := !bytes_on_wire + got;
        offset := !offset + got;
        attempt (n + 1)
      | Some Fault.Corrupt ->
        (* whole payload arrived but the archive checksum rejects it:
           all of it was wasted and resume is impossible *)
        seconds := !seconds +. payload_seconds link (float_of_int remaining);
        bytes_on_wire := !bytes_on_wire + remaining;
        offset := 0;
        attempt (n + 1)
    end
  in
  attempt 1

(* Instruments minted once per registry ([fetch_jars] runs per request,
   so it cannot register names itself without colliding). *)
type metrics = {
  m_fetched : M.counter;
  m_delivered : M.counter;
  m_failed : M.counter;
  m_attempts : M.counter;
  m_bytes : M.counter;
  m_jar_ms : M.histogram; (* per-jar transfer time, milliseconds *)
}

let metrics registry =
  { m_fetched = M.counter registry "jars_fetched_total";
    m_delivered = M.counter registry "jars_delivered_total";
    m_failed = M.counter registry "jars_failed_total";
    m_attempts = M.counter registry "fetch_attempts_total";
    m_bytes = M.counter registry "fetch_bytes_total";
    m_jar_ms = M.histogram registry "jar_fetch_ms" }

let observe_fetch m f =
  M.incr m.m_fetched;
  M.incr (if f.delivered then m.m_delivered else m.m_failed);
  M.add m.m_attempts f.attempts;
  M.add m.m_bytes f.bytes_on_wire;
  M.observe m.m_jar_ms (int_of_float (f.fetch_seconds *. 1e3))

let fetch_jars ?faults ?(policy = default_fetch_policy) ?metrics link jars =
  let injector = Option.map Fault.injector faults in
  let spike_s =
    match faults with Some c -> c.Fault.latency_spike_s | None -> 0.0
  in
  (* each jar gets its own split stream so its draws cannot disturb the
     next jar's, whatever its retry count was *)
  List.map
    (fun jar ->
       let injector = Option.map Fault.split injector in
       let fetch = fetch_jar ~injector ~spike_s ~policy link jar in
       (match metrics with Some m -> observe_fetch m fetch | None -> ());
       fetch)
    jars

let fetch_total_seconds fetches =
  List.fold_left (fun acc f -> acc +. f.fetch_seconds) 0.0 fetches

let fetch_total_bytes fetches =
  List.fold_left (fun acc f -> acc + f.bytes_on_wire) 0 fetches

let fetch_failures fetches =
  List.filter_map
    (fun f -> if f.delivered then None else Some f.fetch_jar)
    fetches

let fetch_attempts fetches =
  List.fold_left (fun acc f -> acc + f.attempts) 0 fetches
