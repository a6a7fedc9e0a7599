(* The metrics every run reports, by name, unit and better direction.
   BENCHMARK.json declares the same lists; the smoke check holds the
   two in agreement. *)

let workloads = [ "deliver_hot"; "deliver_cold"; "cosim_session"; "sim_sweep" ]

(* reported by every untraced run *)
let end_to_end =
  [ ("setup_s", "s", "lower");
    ("peak_heap_mb", "MB", "lower");
    ("latency_p50_ms", "ms", "lower");
    ("latency_p95_ms", "ms", "lower");
    ("throughput_per_s", "1/s", "higher") ]

(* reported by every traced run; a layer the workload never crosses
   reports 0 *)
let per_layer =
  [ ("resilience.admit_us", "us", "lower");
    ("resilience.complete_us", "us", "lower");
    ("applet.create_us", "us", "lower");
    ("applet.params_us", "us", "lower");
    ("cache.lookup_us", "us", "lower");
    ("cache.hit_ratio", "ratio", "higher");
    ("cache.evictions", "count", "lower");
    ("cache.verify_rejects", "count", "lower");
    ("modgen.build_ms_p50", "ms", "lower");
    ("modgen.build_ms_p99", "ms", "lower");
    ("modgen.builds", "count", "lower");
    ("sim.snapshot_descriptor_ms", "ms", "lower");
    ("netlist.edif_ms", "ms", "lower");
    ("bundle.jars_for_us", "us", "lower");
    ("bundle.fetch_us", "us", "lower");
    ("bundle.browser_cache_us", "us", "lower");
    ("webserver.publish_ms", "ms", "lower");
    ("netproto.encode_us", "us", "lower");
    ("netproto.decode_us", "us", "lower");
    ("netproto.handle_us", "us", "lower");
    ("netproto.checkpoint_ms", "ms", "lower");
    ("netproto.restart_ms", "ms", "lower");
    ("netproto.messages_per_cycle", "count", "lower");
    ("netproto.retries", "count", "lower");
    ("netproto.resumes", "count", "lower");
    ("netproto.checkpoints", "count", "lower");
    ("netproto.replayed", "count", "lower");
    ("netproto.modeled_ms_per_cycle", "ms", "lower");
    ("sim.compile_ms", "ms", "lower");
    ("sim.batch_compile_ms", "ms", "lower");
    ("sim.cycle_us", "us", "lower");
    ("sim.evals_per_cycle", "count", "lower");
    ("sim.events_per_cycle", "count", "lower");
    ("sim.batch_cycle_us", "us", "lower");
    ("sim.batch_drive_us", "us", "lower");
    ("runtime.minor_words_per_op", "words", "lower");
    ("runtime.major_gcs_per_kop", "count", "lower");
    ("runtime.heap_growth_mb", "MB", "lower");
    ("trace.coverage", "ratio", "higher");
    ("trace.overhead_pct", "%", "lower") ]
