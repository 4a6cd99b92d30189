(* Throughput benchmark suite: raw simulator steps/sec and the derived
   rates every other workload bottoms out in, each with GC
   minor-allocation-per-operation instrumentation.

   Usage:
     throughput.exe                     run all four benches, print a table
     throughput.exe --trials K          scale iteration counts by K (default 8)
     throughput.exe --json [FILE]       also write a report
                                        (default FILE: BENCH_throughput.json)
     throughput.exe --baseline FILE     embed FILE (a previous report) under
                                        "baseline" in the emitted JSON; the
                                        embedded copy's own "baseline" field
                                        is nulled out so the chain stays one
                                        level deep instead of nesting every
                                        refresh inside the last
     throughput.exe --assert-minor-words-per-step CEIL
                                        exit 1 if the raw-Sim bench allocates
                                        more than CEIL minor words per step
                                        (CI allocation-regression guard)
     throughput.exe --assert-explorer-words-per-run CEIL
                                        exit 1 if explorer-seq allocates more
                                        than CEIL minor words per explored run
                                        (the allocation-free DFS
                                        bookkeeping guard)
     throughput.exe --assert-seq-vs-ref R
                                        exit 1 if explorer-seq runs/sec falls
                                        below R x explorer-ref (the in-process
                                        floor on the flat-bookkeeping speedup;
                                        machine-independent, unlike the 2x
                                        claim against the recorded baseline)
     throughput.exe --assert-seq-vs-baseline R
                                        exit 1 if explorer-seq runs/sec falls
                                        below R x the --baseline file's
                                        recorded explorer-seq rate (the 2x
                                        claim, checked when refreshing the
                                        shipped report on a comparable
                                        machine; requires --baseline)
     throughput.exe --assert-consensus-words-per-decision CEIL
                                        exit 1 if the consensus row allocates
                                        more than CEIL minor words per decided
                                        process (the protocol scratch-arena
                                        regression guard)
     throughput.exe --assert-consensus-vs-baseline R
                                        exit 1 if consensus decisions/sec fall
                                        below R x the --baseline file's
                                        recorded consensus rate (requires
                                        --baseline)
     throughput.exe --assert-service8-vs-baseline R
                                        exit 1 if service-n8 instances/sec fall
                                        below R x the --baseline file's
                                        recorded service-n8 rate (requires
                                        --baseline)

   The four benches:
     raw-sim     n=4 processes spinning on write/read of private
                 registers under round-robin — the Sim.step inner loop
                 with nothing else on top (ops = simulated steps)
     esnap-scan  n=4 processes doing write+scan pairs on the embedded-
                 scan snapshot (ops = write+scan pairs; a write embeds
                 a full scan, so each pair costs two collect sweeps;
                 the explicit scan reuses a view buffer via scan_into)
     consensus   end-to-end ADS89 shared-walk decisions over random
                 inputs (ops = decided processes)
     explorer    bounded exhaustive exploration of a 3-process
                 write-then-read config (ops = exploration runs)
     explorer-ref   the same snapshot-atomic tree explored by the
                 frozen original Explorer_ref — the in-process
                 baseline the flat-bookkeeping speedup is asserted
                 against
     explorer-seq   the snapshot-atomic registry config explored
                 unreduced (30k-run tree) — the same tree as explorer-ref
                 (the plain "explorer" row uses a much lighter config
                 and is not comparable)
                 (ops = exploration runs; explorer-ref and explorer-seq
                 must report identical run counts — checked)
     service-nN  sustained decision throughput of the lib/service
                 engine at N processes: a closed-loop client keeps the
                 1000-instance in-flight window full over a 2-worker
                 pool (ops = decided instances; the metric map also
                 carries submit-to-decide p50/p99 latency)

   The substrate and explorer rows are single-domain on purpose: this
   suite measures the hot path itself.  The service-nN rows are the
   exception; their minor-words metric sums the driving domain and
   every pool helper domain (Pool.helper_minor_words). *)

module Sim = Bprc_runtime.Sim
module Adversary = Bprc_runtime.Adversary
open Bprc_harness

type sample = {
  bench : string;
  unit_ : string;  (* what one "op" is *)
  ops : float;
  sim_steps : float option;  (* simulated steps, when the bench counts them *)
  wall_s : float;
  minor_words : float;
  extra_metrics : (string * float) list;
      (* bench-specific metrics (e.g. service latency percentiles),
         merged into the table's metric map under "<bench>_<key>" *)
}

let measure ?(extra = fun () -> []) ~bench ~unit_ f =
  (* Start from an empty minor heap so the reported words are the
     bench's own allocations, not a promotion of earlier garbage. *)
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let ops, sim_steps, extra_minor = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. m0 +. extra_minor in
  {
    bench;
    unit_;
    ops = float_of_int ops;
    sim_steps;
    wall_s;
    minor_words;
    extra_metrics = extra ();
  }

(* ---- raw simulator steps --------------------------------------------- *)

let bench_raw_sim ~trials () =
  let n = 4 in
  let iters = 50_000 * trials in
  let sim =
    Sim.create ~seed:1 ~max_steps:max_int ~n
      ~adversary:(Adversary.round_robin ()) ()
  in
  let (module R) = Sim.runtime sim in
  for i = 0 to n - 1 do
    let r = R.make_reg ~name:(Printf.sprintf "r%d" i) 0 in
    ignore
      (Sim.spawn sim (fun () ->
           for k = 1 to iters do
             R.write r k;
             ignore (R.read r)
           done))
  done;
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> failwith "raw-sim bench hit step limit");
  let steps = Sim.clock sim in
  (steps, Some (float_of_int steps), 0.0)

(* ---- embedded-snapshot scans ------------------------------------------ *)

let bench_esnap ~trials () =
  let n = 4 in
  let pairs = 1_500 * trials in
  let sim =
    Sim.create ~seed:2 ~max_steps:max_int ~n
      ~adversary:(Adversary.round_robin ()) ()
  in
  let module S = Bprc_snapshot.Embedded.Make ((val Sim.runtime sim)) in
  let mem = S.create ~init:0 () in
  for i = 0 to n - 1 do
    ignore
      (Sim.spawn sim (fun () ->
           (* One view buffer per scanning process, reused across all
              its scans: the explicit scan itself allocates nothing. *)
           let view = Array.make n 0 in
           for k = 1 to pairs do
             S.write mem ((k * n) + i);
             S.scan_into mem view
           done))
  done;
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> failwith "esnap bench hit step limit");
  (n * pairs, Some (float_of_int (Sim.clock sim)), 0.0)

(* ---- end-to-end consensus decisions ----------------------------------- *)

let space_metrics r =
  (* The measured register count must equal the analytic report's: a
     protocol that allocated registers the report does not list (or
     vice versa) has a dishonest space accounting. *)
  let space = r.Run.space in
  if r.Run.registers_used <> Bprc_space.Space.registers space then
    failwith "space accounting mismatch: analytic report vs arena registers";
  [
    ("space_registers", float_of_int (Bprc_space.Space.registers space));
    ( "space_max_register_bits",
      float_of_int (Bprc_space.Space.max_register_bits space) );
    ("space_total_bits", float_of_int (Bprc_space.Space.total_bits space));
  ]

let bench_consensus ~trials ~space () =
  let n = 4 in
  let runs = 12 * trials in
  let decisions = ref 0 in
  let steps = ref 0 in
  for i = 1 to runs do
    let r =
      Run.consensus_once
        ~algo:(Run.Ads Bprc_core.Ads89.Shared_walk)
        ~pattern:Run.Random_inputs ~n ~seed:(0x7E5 + i) ()
    in
    if not r.Run.completed then failwith "consensus bench did not complete";
    Array.iter
      (function Some _ -> incr decisions | None -> ())
      r.Run.decisions;
    steps := !steps + r.Run.steps;
    space := space_metrics r
  done;
  (!decisions, Some (float_of_int !steps), 0.0)

(* ---- large-n frontier -------------------------------------------------- *)

(* One decision at n in the hundreds/thousands: the paper's protocol
   over the wait-free embedded snapshot (handshake double-collects
   starve at this scale) with the oracle round coin (the shared-walk
   coin needs ~(2n)^2 flips at ~n steps each — a multi-minute run even
   at n=64; the oracle isolates the strip/snapshot scaling, which is
   what the steps- and space-vs-n curves measure).  One run per row:
   the row exists to pin the curve, not to average noise away. *)
let bench_large_n ~n ~space () =
  let r =
    Run.consensus_once ~max_steps:200_000_000
      ~algo:(Run.Ads_esnap Bprc_core.Ads89.Oracle_shared)
      ~pattern:Run.Random_inputs ~n ~seed:0x1A6 ()
  in
  if not r.Run.completed then failwith "large-n bench did not complete";
  (match r.Run.spec with
  | Ok () -> ()
  | Error e -> failwith ("large-n bench spec violation: " ^ e));
  space :=
    space_metrics r
    @ [
        ("steps_to_decide", float_of_int r.Run.steps);
        ("register_bits", float_of_int r.Run.register_bits);
      ];
  let decisions =
    Array.fold_left
      (fun acc d -> match d with Some _ -> acc + 1 | None -> acc)
      0 r.Run.decisions
  in
  (decisions, Some (float_of_int r.Run.steps), 0.0)

let measure_large_n ~n =
  let space = ref [] in
  measure
    ~extra:(fun () -> !space)
    ~bench:(Printf.sprintf "large-n%d" n)
    ~unit_:"decision"
    (bench_large_n ~n ~space)

(* ---- bounded exhaustive exploration ----------------------------------- *)

let explorer_setup sim =
  let (module R) = Sim.runtime sim in
  let r = R.make_reg ~name:"x" 0 in
  for i = 0 to 2 do
    ignore
      (Sim.spawn sim (fun () ->
           R.write r (i + 1);
           ignore (R.read r)))
  done;
  fun () -> Ok ()

let bench_explorer ~trials () =
  let reps = 6 * trials in
  let runs = ref 0 in
  for _ = 1 to reps do
    let stats =
      Bprc_check.Explorer.explore ~n:3 ~max_steps:64 ~setup:explorer_setup ()
    in
    if not stats.Bprc_check.Explorer.exhausted then
      failwith "explorer bench did not exhaust";
    runs := !runs + stats.Bprc_check.Explorer.runs
  done;
  (!runs, None, 0.0)

(* The explorer-seq/ref rows: one full unreduced sweep of the
   snapshot-atomic registry configuration (~30k schedules) per trial.
   The run counts are identical in the frozen reference; the run-count
   check after the measurements enforces it. *)
let snapshot_config () =
  match Bprc_check.Config.find "snapshot-atomic" with
  | Some c -> c
  | None -> failwith "snapshot-atomic config missing"

let explore_snapshot_once cfg =
  let stats =
    Bprc_check.Explorer.explore ~n:cfg.Bprc_check.Config.n
      ~max_steps:cfg.Bprc_check.Config.max_steps ~reduction:false
      ~setup:cfg.Bprc_check.Config.setup ()
  in
  if not stats.Bprc_check.Explorer.exhausted then
    failwith "explorer-seq bench did not exhaust";
  stats.Bprc_check.Explorer.runs

(* The frozen original explorer on the identical tree: the in-process
   baseline for the flat-bookkeeping speedup assert.  Being in the same
   process and build, it moves with the machine and the shared workload
   libraries, so the seq-vs-ref ratio is conservative — the recorded
   BENCH_throughput.json baseline is where the full speedup shows. *)
let bench_explorer_ref ~trials () =
  let cfg = snapshot_config () in
  let runs = ref 0 in
  for _ = 1 to trials do
    let stats =
      Bprc_check.Explorer_ref.explore ~n:cfg.Bprc_check.Config.n
        ~max_steps:cfg.Bprc_check.Config.max_steps ~reduction:false
        ~setup:cfg.Bprc_check.Config.setup ()
    in
    if not stats.Bprc_check.Explorer_ref.exhausted then
      failwith "explorer-ref bench did not exhaust";
    runs := !runs + stats.Bprc_check.Explorer_ref.runs
  done;
  (!runs, None, 0.0)

let bench_explorer_seq ~trials () =
  let cfg = snapshot_config () in
  let runs = ref 0 in
  for _ = 1 to trials do
    runs := !runs + explore_snapshot_once cfg
  done;
  (!runs, None, 0.0)

(* ---- sustained service decisions --------------------------------------- *)

(* The decision-engine rows: a closed-loop client keeps the engine's
   in-flight window full (submit until [`Overloaded], consume one,
   repeat), so the rate reported is the engine's sustained capacity,
   not a burst.  Ops are decided instances; sim_steps sums the steps
   every instance consumed; latency percentiles come back through
   [extra] so they land in the metric map next to ops_per_sec.  The
   pool helper domains' allocation is banked into the row's minor
   words. *)
let service_cap = 1_000
let service_workers = 2

let bench_service ~n ~per_trial ~trials ~latency () =
  let module E = Bprc_service.Engine in
  let total = per_trial * trials in
  let pool = Pool.create ~workers:service_workers () in
  Pool.reset_helper_minor_words pool;
  let engine =
    E.create ~mode:E.Throughput ~seed:(0xBE2 + n) ~in_flight_cap:service_cap
      ~lat_capacity:total ~pool ()
  in
  let spec = Bprc_service.Workload.spec ~n () in
  let decided = ref 0 in
  let steps = ref 0 in
  let account (d : E.decided) =
    (match d.E.spec_check with
    | Ok () -> ()
    | Error e -> failwith ("service bench spec violation: " ^ e));
    if not d.E.completed then failwith "service bench instance incomplete";
    incr decided;
    steps := !steps + d.E.steps
  in
  let submitted = ref 0 in
  while !submitted < total do
    match E.submit engine spec with
    | `Accepted _ -> incr submitted
    | `Overloaded -> (
      match E.next_decided engine with
      | Some d -> account d
      | None -> assert false (* overloaded implies something in flight *))
  done;
  List.iter account (E.drain engine);
  if !decided <> total then failwith "service bench lost instances";
  let st = E.stats engine in
  latency :=
    [
      ("lat_p50_s", st.E.lat_p50_s);
      ("lat_p99_s", st.E.lat_p99_s);
      (* The engine's own per-instance allocation gauge (driving domain
         + helpers, banked per dispatch round): lands in the metric map
         as service-nN_minor_words_per_instance so the report carries
         the regression-guard number directly. *)
      ("minor_words_per_instance", st.E.minor_words_per_instance);
    ];
  E.shutdown engine;
  let helper_words = Pool.helper_minor_words pool in
  Pool.shutdown pool;
  (!decided, Some (float_of_int !steps), helper_words)

let measure_service ~n ~per_trial ~trials =
  let latency = ref [] in
  measure
    ~extra:(fun () -> !latency)
    ~bench:(Printf.sprintf "service-n%d" n)
    ~unit_:"instance"
    (bench_service ~n ~per_trial ~trials ~latency)

(* ---- table / report --------------------------------------------------- *)

let ops_per_sec s = s.ops /. s.wall_s
let minor_per_op s = s.minor_words /. s.ops

let row s =
  [
    s.bench;
    s.unit_;
    Table.fmt_float s.ops;
    (match s.sim_steps with Some v -> Table.fmt_float v | None -> "-");
    Printf.sprintf "%.4f" s.wall_s;
    Table.fmt_float (ops_per_sec s);
    (match s.sim_steps with
    | Some v -> Table.fmt_float (v /. s.wall_s)
    | None -> "-");
    Printf.sprintf "%.2f" (minor_per_op s);
  ]

let table ~trials samples =
  let metric name s suffix v = (name ^ "_" ^ suffix, v s) in
  Table.make ~id:"THR"
    ~title:(Printf.sprintf "simulator throughput (trials factor %d)" trials)
    ~columns:
      [
        "bench"; "unit"; "ops"; "sim_steps"; "wall_s"; "ops_per_sec";
        "steps_per_sec"; "minor_words_per_op";
      ]
    ~notes:
      [
        "ops_per_sec: higher is better; minor_words_per_op: lower is better";
        "raw-sim ops are simulated steps, so its two rates coincide";
        "explorer-ref is the frozen original explorer on the same tree as \
         explorer-seq: their ratio isolates the flat-bookkeeping speedup";
        "service-nN rows drive the lib/service decision engine closed-loop \
         (in-flight window pinned at its cap of 1000) over a 2-worker pool; \
         their lat_p50_s/lat_p99_s metrics are submit-to-decide latency";
        "large-nN rows are one ADS89-over-embedded-snapshot oracle-coin \
         decision at scale; their space_* metrics are the shared-memory \
         footprint (n=1024 behind --huge-n: a ~10 min run)";
      ]
    ~metrics:
      (List.concat_map
         (fun s ->
           metric s.bench s "ops_per_sec" ops_per_sec
           :: metric s.bench s "minor_words_per_op" minor_per_op
           :: List.map (fun (k, v) -> (s.bench ^ "_" ^ k, v)) s.extra_metrics)
         samples)
    (List.map row samples)

let usage_error msg =
  Printf.eprintf "%s\n%!" msg;
  exit 2

let parse_args args =
  let json = ref None
  and trials = ref 8
  and baseline = ref None
  and ceiling = ref None
  and esnap_ceiling = ref None
  and esnap_obj_ceiling = ref None
  and explorer_words_ceiling = ref None
  and consensus_words_ceiling = ref None
  and seq_vs_ref = ref None
  and seq_vs_baseline = ref None
  and consensus_vs_baseline = ref None
  and service8_vs_baseline = ref None
  and space_ceiling = ref None
  and huge_n = ref false in
  let number what r v tl go =
    match float_of_string_opt v with
    | Some c when c >= 0.0 ->
      r := Some c;
      go tl
    | _ -> usage_error (what ^ " expects a number")
  in
  let rec go = function
    | [] -> ()
    | "--json" :: tl -> (
      match tl with
      | file :: tl' when String.length file > 0 && file.[0] <> '-' ->
        json := Some file;
        go tl'
      | tl ->
        json := Some "BENCH_throughput.json";
        go tl)
    | "--trials" :: v :: tl -> (
      match int_of_string_opt v with
      | Some k when k >= 1 ->
        trials := k;
        go tl
      | _ -> usage_error "--trials expects a positive integer")
    | "--baseline" :: file :: tl ->
      baseline := Some file;
      go tl
    | "--assert-minor-words-per-step" :: v :: tl ->
      number "--assert-minor-words-per-step" ceiling v tl go
    | "--assert-esnap-words-per-op" :: v :: tl ->
      number "--assert-esnap-words-per-op" esnap_ceiling v tl go
    | "--assert-esnap-obj-words-per-op" :: v :: tl ->
      number "--assert-esnap-obj-words-per-op" esnap_obj_ceiling v tl go
    | "--assert-explorer-words-per-run" :: v :: tl ->
      number "--assert-explorer-words-per-run" explorer_words_ceiling v tl go
    | "--assert-consensus-words-per-decision" :: v :: tl ->
      number "--assert-consensus-words-per-decision" consensus_words_ceiling v
        tl go
    | "--assert-seq-vs-ref" :: v :: tl ->
      number "--assert-seq-vs-ref" seq_vs_ref v tl go
    | "--assert-seq-vs-baseline" :: v :: tl ->
      number "--assert-seq-vs-baseline" seq_vs_baseline v tl go
    | "--assert-consensus-vs-baseline" :: v :: tl ->
      number "--assert-consensus-vs-baseline" consensus_vs_baseline v tl go
    | "--assert-service8-vs-baseline" :: v :: tl ->
      number "--assert-service8-vs-baseline" service8_vs_baseline v tl go
    | "--assert-space-total-bits" :: v :: tl ->
      number "--assert-space-total-bits" space_ceiling v tl go
    | "--huge-n" :: tl ->
      huge_n := true;
      go tl
    | a :: _ -> usage_error (Printf.sprintf "unknown argument %s" a)
  in
  go args;
  ( !json, !trials, !baseline, !ceiling, !esnap_ceiling, !esnap_obj_ceiling,
    !explorer_words_ceiling, !consensus_words_ceiling, !seq_vs_ref,
    !seq_vs_baseline, !consensus_vs_baseline, !service8_vs_baseline,
    !space_ceiling, !huge_n )

let read_baseline file =
  let ic = open_in file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Bprc_util.Json.of_string s with
  | Ok (Bprc_util.Json.Obj kvs) ->
    (* Cap the baseline chain at depth 1: the loaded report may itself
       embed the report it was compared against, and without this every
       refresh would nest the full history one level deeper. *)
    Bprc_util.Json.Obj
      (List.map
         (function
           | "baseline", _ -> ("baseline", Bprc_util.Json.Null)
           | kv -> kv)
         kvs)
  | Ok j -> j
  | Error e -> usage_error (Printf.sprintf "--baseline %s: %s" file e)

let () =
  let ( json, trials, baseline, ceiling, esnap_ceiling, esnap_obj_ceiling,
        explorer_words_ceiling, consensus_words_ceiling, seq_vs_ref,
        seq_vs_baseline, consensus_vs_baseline, service8_vs_baseline,
        space_ceiling, huge_n ) =
    parse_args (List.tl (Array.to_list Sys.argv))
  in
  (* Load the baseline before any report write: --json may target the
     same file (the usual refresh-in-place flow), and the baseline
     assert below must compare against the old contents. *)
  let baseline_json = Option.map read_baseline baseline in
  let t0 = Unix.gettimeofday () in
  let consensus_space = ref [] in
  let samples =
    [
      measure ~bench:"raw-sim" ~unit_:"step" (bench_raw_sim ~trials);
      measure ~bench:"esnap-scan" ~unit_:"write+scan" (bench_esnap ~trials);
      measure
        ~extra:(fun () -> !consensus_space)
        ~bench:"consensus" ~unit_:"decision"
        (bench_consensus ~trials ~space:consensus_space);
      measure ~bench:"explorer" ~unit_:"run" (bench_explorer ~trials);
      measure ~bench:"explorer-ref" ~unit_:"run" (bench_explorer_ref ~trials);
      measure ~bench:"explorer-seq" ~unit_:"run" (bench_explorer_seq ~trials);
      measure_service ~n:3 ~per_trial:250 ~trials;
      measure_service ~n:8 ~per_trial:125 ~trials;
      measure_service ~n:16 ~per_trial:125 ~trials;
      measure_large_n ~n:64;
      measure_large_n ~n:256;
    ]
    @ (if huge_n then [ measure_large_n ~n:1024 ] else [])
  in
  (* The explorer rows over the snapshot-atomic tree must agree on the
     work done: identical trees, identical run counts — only the rate may
     differ. *)
  (let ops bench = (List.find (fun s -> s.bench = bench) samples).ops in
   if ops "explorer-seq" <> ops "explorer-ref" then begin
     Printf.eprintf
       "explorer-ref/seq rows disagree on run counts: the explorer no \
        longer matches its frozen reference\n\
        %!";
     exit 1
   end);
  let total_wall_s = Unix.gettimeofday () -. t0 in
  let tbl = table ~trials samples in
  Table.print tbl;
  Printf.printf "total wall time: %.1fs\n%!" total_wall_s;
  (match json with
  | None -> ()
  | Some path ->
    let report =
      {
        Report.date = Report.iso8601 (Unix.time ());
        workers = 1;
        quick = trials <= 2;
        total_wall_s;
        calibration = None;
        entries = [ { Report.table = tbl; wall_s = total_wall_s } ];
        extra =
          [
            ("kind_detail", Table.Str "bprc-throughput-report");
            ( "baseline",
              match baseline_json with
              | None -> Table.Null
              | Some j -> j );
          ];
      }
    in
    Report.write ~path report;
    Printf.printf "wrote %s\n%!" path);
  let check_ceiling ~what ~got = function
    | None -> ()
    | Some c ->
      if got > c then begin
        Printf.eprintf "allocation regression: %s = %.2f (ceiling %.2f)\n%!"
          what got c;
        exit 1
      end
      else Printf.printf "%s: %.2f (ceiling %.2f) — ok\n%!" what got c
  in
  let raw = List.find (fun s -> s.bench = "raw-sim") samples in
  check_ceiling ~what:"raw-sim minor words/step" ~got:(minor_per_op raw)
    ceiling;
  let esnap = List.find (fun s -> s.bench = "esnap-scan") samples in
  check_ceiling ~what:"esnap-scan minor words/op" ~got:(minor_per_op esnap)
    esnap_ceiling;
  (* The object-allocation metric: total minor words minus the
     simulator's own 2-words-per-step effect-continuation cost, which
     no snapshot-level change can remove (13 steps/op = a 26-word
     floor).  This is the number the Embedded optimization controls. *)
  let esnap_obj =
    match esnap.sim_steps with
    | Some steps -> (esnap.minor_words -. (2.0 *. steps)) /. esnap.ops
    | None -> minor_per_op esnap
  in
  check_ceiling ~what:"esnap-scan object words/op" ~got:esnap_obj
    esnap_obj_ceiling;
  (* The explorer's allocation guard: its own DFS
     bookkeeping is allocation-free, so words/run on the 30k-run tree
     is workload setup + check cost and must stay flat. *)
  let explorer_seq = List.find (fun s -> s.bench = "explorer-seq") samples in
  check_ceiling ~what:"explorer-seq minor words/run"
    ~got:(minor_per_op explorer_seq) explorer_words_ceiling;
  (* The protocol scratch-arena guard: steady-state ADS89 rounds decode
     scans into a reused counter-matrix + graph pair, so minor words
     per decided process on the consensus row must stay low and flat. *)
  let consensus_row = List.find (fun s -> s.bench = "consensus") samples in
  check_ceiling ~what:"consensus minor words/decision"
    ~got:(minor_per_op consensus_row) consensus_words_ceiling;
  (* The paper-config (handshake, n=4) shared-bits total: the flat
     strip/handshake rewrite must not grow the bounded footprint. *)
  (match space_ceiling with
  | None -> ()
  | Some c ->
    let consensus = List.find (fun s -> s.bench = "consensus") samples in
    let got =
      try List.assoc "space_total_bits" consensus.extra_metrics
      with Not_found -> failwith "consensus row lacks space_total_bits"
    in
    if got > c then begin
      Printf.eprintf "space regression: consensus space_total_bits = %.0f \
                      (ceiling %.0f)\n%!"
        got c;
      exit 1
    end
    else
      Printf.printf "consensus space_total_bits: %.0f (ceiling %.0f) — ok\n%!"
        got c);
  let rate name =
    ops_per_sec (List.find (fun s -> s.bench = name) samples)
  in
  let check_ratio ~what ~num ~den = function
    | None -> ()
    | Some r ->
      let got = rate num /. rate den in
      if got < r then begin
        Printf.eprintf "speedup regression: %s = %.2fx (floor %.2fx)\n%!" what
          got r;
        exit 1
      end
      else Printf.printf "%s: %.2fx (floor %.2fx) — ok\n%!" what got r
  in
  check_ratio ~what:"explorer-seq vs explorer-ref" ~num:"explorer-seq"
    ~den:"explorer-ref" seq_vs_ref;
  (* Rate claims against the recorded report rather than an in-process
     row: only meaningful when refreshing the shipped
     BENCH_throughput.json on a machine comparable to the one that
     produced the baseline.  explorer-seq carries the headline 2x
     explorer-rewrite claim; consensus and service-n8 are the
     before/after floors guarding the protocol-decode rewrite. *)
  let check_vs_baseline ~flag ~row = function
    | None -> ()
    | Some r -> (
      let bj =
        match baseline_json with
        | Some j -> j
        | None ->
          usage_error (Printf.sprintf "%s requires --baseline FILE" flag)
      in
      let module J = Bprc_util.Json in
      let key = row ^ "_ops_per_sec" in
      let base_rate =
        let ( let* ) = Option.bind in
        let* exps = J.member "experiments" bj in
        let* e0 = match exps with J.Arr (e :: _) -> Some e | _ -> None in
        let* ms = J.member "metrics" e0 in
        let* v = J.member key ms in
        match v with
        | J.Float f -> Some f
        | J.Int i -> Some (float_of_int i)
        | _ -> None
      in
      match base_rate with
      | None -> usage_error (Printf.sprintf "%s: baseline lacks %s" flag key)
      | Some b ->
        let got = rate row /. b in
        if got < r then begin
          Printf.eprintf
            "speedup regression: %s vs recorded baseline = %.2fx (floor \
             %.2fx)\n\
             %!"
            row got r;
          exit 1
        end
        else
          Printf.printf "%s vs recorded baseline: %.2fx (floor %.2fx) — ok\n%!"
            row got r)
  in
  check_vs_baseline ~flag:"--assert-seq-vs-baseline" ~row:"explorer-seq"
    seq_vs_baseline;
  check_vs_baseline ~flag:"--assert-consensus-vs-baseline" ~row:"consensus"
    consensus_vs_baseline;
  check_vs_baseline ~flag:"--assert-service8-vs-baseline" ~row:"service-n8"
    service8_vs_baseline
