(* The two single-domain protocol workloads, [decide] and [large-n]:
   a seeded list of consensus instances run one after another through
   [Run.consensus_once], one reused arena per process count.

   Each instance's time is scaled by the host's speed ([Common.Host]).
   While time allows, the list is replayed and each instance's time is
   the mean of its scaled times; every replay must reproduce the first
   pass's digest, so replays also prove the outcomes deterministic. *)

module Sim = Bprc_runtime.Sim
module Adversary = Bprc_runtime.Adversary

type config = {
  stack : Instances.stack;
  block : int array;  (** process counts of one block of the list *)
  block_s : float;  (** a block's wall time on an unloaded host, roughly *)
  bounds : (int * int) list;
      (** step bound per n; an instance reaching it failed *)
  canary : (int * int) list;  (** fixed (n, seed) instances, pinned *)
  canary_pin : string;  (** MD5 of the canary outcomes *)
}

let repeat k n = List.init k (fun _ -> n)

(* Each n takes about a third of a block's wall time. *)
let decide =
  {
    stack = Instances.Handshake_walk;
    block = Array.of_list (repeat 100 4 @ repeat 6 8 @ [ 16 ]);
    block_s = 0.09;
    bounds = Instances.decide_bounds;
    canary = List.init 6 (fun i -> (4, 101 + i)) @ [ (8, 201); (8, 202); (16, 301) ];
    canary_pin = "ea9dd40a0c684193a212a226a4763826";
  }

(* Three n=64 instances per n=128 one: the latency median falls inside
   the n=64 population and the p99 inside the n=128 one.  Step bounds
   are about five times the longest decision seen in the seeded
   instances tried (264k steps at n=64, 1.09M at n=128). *)
let large_n =
  {
    stack = Instances.Embedded_oracle;
    block = [| 64; 64; 64; 128 |];
    block_s = 0.95;
    bounds = [ (64, 1_500_000); (128, 5_000_000) ];
    canary = [ (64, 401) ];
    canary_pin = "eb4f1e503a4901fda69742858c8a65fc";
  }

(* A pass takes about half the run on an unloaded host; the run
   replays the list while another pass fits in its time. *)
let passes_per_run = 2.0

let blocks_for cfg ~seconds =
  max 1 (int_of_float (Float.round (seconds /. passes_per_run /. cfg.block_s)))

type state = {
  cfg : config;
  arenas : (int * Sim.t) list;
  ns : int array;
  seeds : int array;
}

let arena st n = List.assoc n st.arenas

let plain_run st sim ~n ~seed =
  Instances.plain st.cfg.stack ~max_steps:(Sim.max_steps sim) sim ~n ~seed

let outcome_failed (o : Instances.outcome) =
  (not o.completed) || Result.is_error o.spec

(* Arenas, the seeded list of [blocks] blocks, and the pinned canary run
   through the fresh arenas (which also warms them). *)
let setup cfg ~seed ~blocks () =
  let arenas =
    List.map
      (fun (n, max_steps) ->
        (n, Sim.create ~seed:0 ~max_steps ~n ~adversary:(Adversary.random ()) ()))
      cfg.bounds
  in
  let block = Array.copy cfg.block in
  Bprc_rng.Dist.shuffle_in_place (Bprc_rng.Splitmix.create ~seed) block;
  let len = blocks * Array.length block in
  let st =
    {
      cfg;
      arenas;
      ns = Array.init len (fun i -> block.(i mod Array.length block));
      seeds = Array.init len (Common.item_seed ~seed);
    }
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (n, seed) ->
      let o = plain_run st (arena st n) ~n ~seed in
      Common.gate (not (outcome_failed o)) "canary n=%d seed=%d failed" n seed;
      Common.add_outcome buf ~n ~seed ~steps:o.steps o.decisions)
    cfg.canary;
  Common.check_pin "canary" ~got:(Common.md5 (Buffer.contents buf))
    ~default:cfg.canary_pin;
  (st, ignore)

type pass = {
  failed : int;
  digest : string;  (** over the outcomes of the instances that did not fail *)
  wall_s : float;
  minor_words : float;  (** allocated by the instances that did not fail *)
  minor_collections : int;
  major_collections : int;
}

(* One pass over the list through [run].  [times.(i)] adds up instance
   [i]'s scaled times, [runs.(i)] counts them.  An instance that fails is marked in
   [skip] and not run again: its outcome is deterministic, and a
   livelock replayed would only burn the run's time. *)
let pass st ~run ~times ~runs ~skip =
  let buf = Buffer.create 65536 in
  let failed = ref 0 and minor_words = ref 0.0 in
  let gc0 = Gc.quick_stat () in
  let t_start = Common.now_s () in
  for i = 0 to Array.length st.ns - 1 do
    if not skip.(i) then begin
      let n = st.ns.(i) and seed = st.seeds.(i) in
      let (o : Instances.outcome), words =
        Common.minor_words_of @@ fun () ->
        let t0 = Common.now_s () in
        let o = run (arena st n) ~n ~seed in
        times.(i) <- times.(i) +. Common.Host.scale (Common.now_s () -. t0);
        o
      in
      runs.(i) <- runs.(i) + 1;
      if outcome_failed o then begin
        Common.info "failed: n=%d seed=%d steps=%d completed=%b spec=%s" n
          seed o.steps o.completed
          (match o.spec with Ok () -> "ok" | Error e -> e);
        skip.(i) <- true;
        incr failed
      end
      else begin
        minor_words := !minor_words +. words;
        Common.add_outcome buf ~n ~seed ~steps:o.steps o.decisions
      end
    end
  done;
  let minor_words = !minor_words in
  let wall_s = Common.now_s () -. t_start in
  let gc1 = Gc.quick_stat () in
  {
    failed = !failed;
    digest = Common.md5 (Buffer.contents buf);
    wall_s;
    minor_words;
    minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

let end_to_end cfg (a : Common.args) =
  let setup = setup cfg ~seed:a.seed ~blocks:(blocks_for cfg ~seconds:a.seconds) in
  let st, _ = Common.timed_setup setup in
  let len = Array.length st.ns in
  let times = Array.make len 0.0 and runs = Array.make len 0 in
  let skip = Array.make len false in
  let t0 = Common.now_s () in
  let first = pass st ~run:(plain_run st) ~times ~runs ~skip in
  Common.resample_setup setup;
  let passes = ref 1 in
  let fits () =
    let elapsed = Common.now_s () -. t0 in
    elapsed *. float_of_int (!passes + 1) /. float_of_int !passes <= a.seconds
  in
  while fits () do
    let p = pass st ~run:(plain_run st) ~times ~runs ~skip in
    Common.resample_setup setup;
    incr passes;
    Common.gate (p.digest = first.digest) "pass %d diverged from pass 1"
      !passes
  done;
  Common.top_up_setups setup;
  Common.info "instances=%d passes=%d failed=%d digest=%s host=%.3f" len
    !passes first.failed first.digest (Common.Host.mean_factor ());
  (* Rate, latencies and words cover the instances that decided.  A
     failed instance is counted in [failed] and has no decision
     latency; the time a hung one takes is the benchmark's own
     deadline, which would otherwise set the p99 and a quarter of the
     rate of any list it turns up in. *)
  let mean =
    Array.to_seqi times
    |> Seq.filter_map (fun (i, t) ->
           if skip.(i) then None else Some (t /. float_of_int runs.(i)))
    |> Array.of_seq
  in
  let decided = float_of_int (Array.length mean) in
  let per_s = decided /. Array.fold_left ( +. ) 0.0 mean in
  ( len,
    first.failed,
    [
      Common.m "setup_s" "s" (Common.setup_s ());
      Common.m "instances_per_s" "1/s" per_s;
      Common.m "runs_per_s" "1/s" per_s;
      Common.m "latency_p50_ms" "ms" (1000.0 *. Common.quantile 0.5 mean);
      Common.m "latency_p99_ms" "ms" (1000.0 *. Common.quantile 0.99 mean);
      Common.m "minor_words_per_op" "words" (first.minor_words /. decided);
      Common.m "peak_heap_mb" "MB" (Common.peak_heap_mb ());
    ] )

(* The traced run: the first quarter of the end-to-end list, one pass
   untraced and one traced, then the isolated loops; the two passes
   must agree on every instance's steps and decisions. *)
let traced cfg (a : Common.args) =
  let blocks = max 1 (blocks_for cfg ~seconds:a.seconds / 4) in
  let st, _ = Common.timed_setup (setup cfg ~seed:a.seed ~blocks) in
  let prefix = Array.length st.ns in
  let fresh () =
    (Array.make prefix 0.0, Array.make prefix 0, Array.make prefix false)
  in
  Common.info "traced prefix: %d instances" prefix;
  let times, runs, skip = fresh () in
  let u = pass st ~run:(plain_run st) ~times ~runs ~skip in
  (* Steps and scans per process count, for the anatomy. *)
  let steps_n = Hashtbl.create 8 and scans_n = Hashtbl.create 8 in
  let bump tbl n v =
    Hashtbl.replace tbl n (v + Option.value (Hashtbl.find_opt tbl n) ~default:0)
  in
  let rounds = ref 0 and walk = ref 0 and proto_scans = ref 0 in
  Tracing.reset ();
  Instances.times.setup_ns <- 0;
  Instances.times.run_ns <- 0;
  Instances.times.retries <- 0;
  let run sim ~n ~seed =
    let (o : Instances.outcome) = Instances.traced cfg.stack sim ~n ~seed in
    bump steps_n n o.steps;
    bump scans_n n o.scans;
    rounds := !rounds + o.rounds;
    walk := !walk + o.walk_steps;
    proto_scans := !proto_scans + o.scans;
    o
  in
  let times, runs, skip = fresh () in
  let t = pass st ~run ~times ~runs ~skip in
  Common.info "untraced digest=%s traced digest=%s instances=%d" u.digest
    t.digest prefix;
  Common.gate (u.digest = t.digest) "traced run diverged from the untraced one";
  let c = Tracing.c in
  (* A hung instance leaves its scans counted by the wrapper only. *)
  Common.gate
    (c.scans = !proto_scans || !Instances.hangs > 0)
    "traced scans %d <> protocol scans %d" c.scans !proto_scans;
  let ops = float_of_int prefix in
  let steps = float_of_int (Hashtbl.fold (fun _ v a -> v + a) steps_n 0) in
  let scans = float_of_int c.scans in
  let micro = Layers.micro ~budget_s:(a.seconds *. 0.1) in
  (* Self times with the stamps' own cost taken out. *)
  let clock_ns = List.assoc "trace.clock_ns" micro in
  let cal segments total = Tracing.calibrated ~clock_ns ~segments total in
  let core_ns = cal c.core_segs c.core_ns in
  let snap_ns = cal c.snap_segs c.snap_ns in
  let reg_ops = c.reads + c.writes + c.flips + c.yields in
  let runtime_ns =
    cal reg_ops (Instances.times.run_ns - c.core_ns - c.snap_ns)
  in
  (* Anatomy: isolated per-call costs times traced call counts, against
     the traced self times. *)
  let predicted tbl cost =
    Hashtbl.fold (fun n k acc -> acc +. (float_of_int k *. cost n)) tbl 0.0
  in
  let decode_pred =
    predicted scans_n (fun n ->
        List.assoc (Printf.sprintf "strip.decode_ns_n%d" n) micro)
  in
  let step_pred =
    predicted steps_n (fun n -> Micro.step_ns ~budget_s:(a.seconds *. 0.01) ~n)
  in
  let residual meas pred = Common.ratio (meas -. pred) meas in
  let values =
    [
      ("runtime.steps_per_op", steps /. ops);
      ("runtime.reads_per_op", float_of_int c.reads /. ops);
      ("runtime.writes_per_op", float_of_int c.writes /. ops);
      ("runtime.flips_per_op", float_of_int c.flips /. ops);
      ("runtime.self_ns_per_step", runtime_ns /. steps);
      ("snapshot.scans_per_op", scans /. ops);
      ( "snapshot.attempts_per_scan",
        (scans +. float_of_int Instances.times.retries) /. scans );
      ("snapshot.reg_ops_per_scan", float_of_int c.snap_ops /. scans);
      ("snapshot.self_ns_per_scan", snap_ns /. scans);
      ("coin.walk_steps_per_op", float_of_int !walk /. ops);
      ("core.rounds_per_op", float_of_int !rounds /. ops);
      ("core.self_ns_per_scan", core_ns /. scans);
      ( "harness.setup_us_per_op",
        float_of_int Instances.times.setup_ns /. 1000.0 /. ops );
      ("gc.minor_collections_per_op", float_of_int u.minor_collections /. ops);
      ("gc.major_collections", float_of_int u.major_collections);
      ("trace.overhead_frac", (t.wall_s /. u.wall_s) -. 1.0);
      ( "trace.residual_frac",
        residual (core_ns +. runtime_ns) (decode_pred +. step_pred) );
      ("trace.core_residual_frac", residual core_ns decode_pred);
      ("trace.runtime_residual_frac", residual runtime_ns step_pred);
      ("bench.failed_frac", float_of_int u.failed /. ops);
    ]
  in
  (prefix, u.failed, Layers.metrics (values @ micro))
