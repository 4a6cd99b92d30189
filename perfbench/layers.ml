(* The per-layer metrics every traced run reports, in order.  A layer a
   workload does not pass through reports 0: it did no work there. *)

let all =
  [
    ("runtime.steps_per_op", "count");
    ("runtime.reads_per_op", "count");
    ("runtime.writes_per_op", "count");
    ("runtime.flips_per_op", "count");
    ("runtime.self_ns_per_step", "ns");
    ("runtime.step_ns", "ns");
    ("rng.draw_ns", "ns");
    ("snapshot.scans_per_op", "count");
    ("snapshot.attempts_per_scan", "count");
    ("snapshot.reg_ops_per_scan", "count");
    ("snapshot.self_ns_per_scan", "ns");
    ("snapshot.handshake_scan_ns_n4", "ns");
    ("snapshot.handshake_scan_ns_n16", "ns");
    ("snapshot.embedded_scan_ns_n64", "ns");
    ("strip.decode_ns_n4", "ns");
    ("strip.decode_ns_n8", "ns");
    ("strip.decode_ns_n16", "ns");
    ("strip.decode_ns_n64", "ns");
    ("strip.decode_ns_n128", "ns");
    ("coin.walk_steps_per_op", "count");
    ("core.rounds_per_op", "count");
    ("core.self_ns_per_scan", "ns");
    ("harness.setup_us_per_op", "us");
    ("service.queue_wait_ms_p50", "ms");
    ("service.dispatch_ms_p50", "ms");
    ("service.batch_size_mean", "count");
    ("service.busy_frac", "ratio");
    ("service.overloaded", "count");
    ("service.overhead_us_per_instance", "us");
    ("check.runs", "count");
    ("check.pruned_frac", "ratio");
    ("check.replay_steps_per_run", "count");
    ("check.setup_ns_per_run", "ns");
    ("check.verify_ns_per_run", "ns");
    ("check.ladder_resumes_per_run", "count");
    ("gc.minor_collections_per_op", "count");
    ("gc.major_collections", "count");
    ("loadgen.lag_ms_p99", "ms");
    ("loadgen.samples", "count");
    ("trace.overhead_frac", "ratio");
    ("trace.clock_ns", "ns");
    ("trace.residual_frac", "ratio");
    ("trace.core_residual_frac", "ratio");
    ("trace.runtime_residual_frac", "ratio");
    ("bench.failed_frac", "ratio");
  ]

(* The full list, with [values] filled in and every other metric 0. *)
let metrics values =
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k all) then invalid_arg ("Layers: unknown " ^ k))
    values;
  List.map
    (fun (name, unit_) ->
      Common.m name unit_
        (Option.value (List.assoc_opt name values) ~default:0.0))
    all

(* The isolated loops, run in every traced run whatever the workload:
   they are workload-independent, so they also serve as a drift check
   between traced runs of different workloads. *)
let micro ~budget_s =
  let b = budget_s /. 13.0 in
  [
    ("runtime.step_ns", Micro.step_ns ~budget_s:b ~n:4);
    ("rng.draw_ns", Micro.draw_ns ~budget_s:b);
    ("snapshot.handshake_scan_ns_n4", Micro.handshake_scan_ns ~budget_s:b ~n:4);
    ( "snapshot.handshake_scan_ns_n16",
      Micro.handshake_scan_ns ~budget_s:b ~n:16 );
    ("snapshot.embedded_scan_ns_n64", Micro.embedded_scan_ns ~budget_s:b ~n:64);
    ("strip.decode_ns_n4", Micro.decode_ns ~budget_s:b ~n:4);
    ("strip.decode_ns_n8", Micro.decode_ns ~budget_s:b ~n:8);
    ("strip.decode_ns_n16", Micro.decode_ns ~budget_s:b ~n:16);
    ("strip.decode_ns_n64", Micro.decode_ns ~budget_s:b ~n:64);
    ("strip.decode_ns_n128", Micro.decode_ns ~budget_s:b ~n:128);
    ( "service.overhead_us_per_instance",
      Micro.engine_overhead_us ~budget_s:(2.0 *. b) );
    ("trace.clock_ns", Micro.clock_ns ~budget_s:b);
  ]
