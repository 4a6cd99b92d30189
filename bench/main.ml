(* Benchmark and experiment driver.

   Usage:
     main.exe                      run experiments E1-E14 (full sizes) + micro
     main.exe quick                run everything with reduced trial counts
     main.exe e1 e5 ...            run selected experiments
     main.exe micro                run only the Bechamel micro-benchmarks
     main.exe --workers N ...      fan trials over N domains (default: cores)
     main.exe --json [FILE] ...    also write a machine-readable report
                                   (default FILE: BENCH_<date>.json)

   Every experiment regenerates one of the paper's quantitative claims;
   the mapping is documented in DESIGN.md §3 and EXPERIMENTS.md, and
   the JSON report schema in EXPERIMENTS.md. *)

open Bprc_harness

let run_experiment ~quick ~pool id =
  match Experiments.by_id id with
  | Some fn ->
    let t0 = Unix.gettimeofday () in
    let table = fn ~quick ~pool () in
    let wall_s = Unix.gettimeofday () -. t0 in
    Table.print table;
    Printf.printf "  (%.1fs)\n\n%!" wall_s;
    Some { Report.table; wall_s }
  | None ->
    Printf.eprintf "unknown experiment %s; valid ids: %s\n%!" id
      (String.concat " " Experiments.ids);
    exit 1

(* Calibration for the JSON report: the same seeded consensus batch run
   inline on one worker and fanned over the pool, timing both and
   checking the per-trial results are bit-identical. *)
let calibrate pool =
  let trials = 48 in
  let rng = Bprc_rng.Splitmix.create ~seed:0xCA11 in
  let trial r =
    let run =
      Run.consensus_once
        ~algo:(Run.Ads Bprc_core.Ads89.Shared_walk)
        ~pattern:Run.Random_inputs ~n:4
        ~seed:(Bprc_rng.Splitmix.bits30 r)
        ()
    in
    (run.Run.steps, run.Run.max_round, run.Run.walk_steps, run.Run.completed)
  in
  let seq_pool = Pool.create ~workers:1 () in
  let t0 = Unix.gettimeofday () in
  let seq = Pool.map_seeded seq_pool ~rng ~trials trial in
  let seq_wall_s = Unix.gettimeofday () -. t0 in
  Pool.shutdown seq_pool;
  let t1 = Unix.gettimeofday () in
  let par = Pool.map_seeded pool ~rng ~trials trial in
  let par_wall_s = Unix.gettimeofday () -. t1 in
  {
    Report.trials;
    seq_wall_s;
    par_wall_s;
    speedup = seq_wall_s /. par_wall_s;
    deterministic = seq = par;
  }

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: per-operation costs of the substrate.    *)
(* ------------------------------------------------------------------ *)

let bench_snapshot_ops n () =
  let sim =
    Bprc_runtime.Sim.create ~seed:1 ~n
      ~adversary:(Bprc_runtime.Adversary.round_robin ()) ()
  in
  let module S = Bprc_snapshot.Handshake.Make ((val Bprc_runtime.Sim.runtime sim)) in
  let mem = S.create ~init:0 () in
  for p = 0 to n - 1 do
    ignore
      (Bprc_runtime.Sim.spawn sim (fun () ->
           for k = 1 to 20 do
             S.write mem (k + p);
             ignore (S.scan mem)
           done))
  done;
  ignore (Bprc_runtime.Sim.run sim)

let bench_shared_coin n () =
  ignore (Run.coin_once ~delta:2 ~n ~seed:7 ())

let bench_inc_graph n () =
  let c = Bprc_strip.Edge_counters.create ~k:2 ~n in
  for i = 0 to (4 * n) - 1 do
    Bprc_strip.Edge_counters.apply_inc c (i mod n)
  done

let bench_consensus n () =
  ignore
    (Run.consensus_once ~algo:(Run.Ads Bprc_core.Ads89.Shared_walk)
       ~pattern:Run.Random_inputs ~n ~seed:5 ())

module Reg_lin =
  Bprc_registers.Lin.Make ((val Bprc_registers.Specs.register ~init:0))

let bench_linearize () =
  let ops =
    Array.init 12 (fun k ->
        {
          Bprc_registers.Hist.pid = k mod 3;
          start_time = 2 * k;
          finish_time = (2 * k) + 3;
          op =
            (if k mod 2 = 0 then Bprc_registers.Specs.Write (k / 2)
             else Bprc_registers.Specs.Read (k / 2));
        })
  in
  fun () -> ignore (Reg_lin.linearizable ops)

let micro () =
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"snapshot: 20x(write+scan) x4 procs"
        (Staged.stage (bench_snapshot_ops 4));
      Test.make ~name:"shared coin (n=4)" (Staged.stage (bench_shared_coin 4));
      Test.make ~name:"shared coin (n=8)" (Staged.stage (bench_shared_coin 8));
      Test.make ~name:"inc_graph x4n (n=8, K=2)"
        (Staged.stage (bench_inc_graph 8));
      Test.make ~name:"consensus end-to-end (n=3)"
        (Staged.stage (bench_consensus 3));
      Test.make ~name:"consensus end-to-end (n=5)"
        (Staged.stage (bench_consensus 5));
      Test.make ~name:"linearizability check (12 ops)"
        (Staged.stage (bench_linearize ()));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  print_endline "=== micro-benchmarks (Bechamel, monotonic clock) ===";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            if est >= 1e6 then
              Printf.printf "  %-40s %10.3f ms/run\n%!" name (est /. 1e6)
            else Printf.printf "  %-40s %10.0f ns/run\n%!" name est
          | _ -> Printf.printf "  %-40s (no estimate)\n%!" name)
        analyzed)
    tests;
  print_newline ()

(* ------------------------------------------------------------------ *)

let usage_error msg =
  Printf.eprintf "%s\n%!" msg;
  exit 1

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let after ~prefix s =
  String.sub s (String.length prefix) (String.length s - String.length prefix)

(* Is [s] a positional word rather than a --json FILE value? *)
let is_keyword s =
  let l = String.lowercase_ascii s in
  l = "quick" || l = "micro" || l = "all" || Experiments.by_id s <> None

let parse_args args =
  let json = ref None and workers = ref None and rest = ref [] in
  let rec go = function
    | [] -> ()
    | "--json" :: tl -> (
      match tl with
      | file :: tl'
        when String.length file > 0 && file.[0] <> '-' && not (is_keyword file)
        ->
        json := Some file;
        go tl'
      | tl ->
        json := Some (Report.default_filename ());
        go tl)
    | a :: tl when starts_with ~prefix:"--json=" a ->
      json := Some (after ~prefix:"--json=" a);
      go tl
    | "--workers" :: v :: tl -> (
      match int_of_string_opt v with
      | Some w when w >= 1 ->
        workers := Some w;
        go tl
      | _ -> usage_error "--workers expects a positive integer")
    | [ "--workers" ] -> usage_error "--workers expects a positive integer"
    | a :: tl when starts_with ~prefix:"--workers=" a -> (
      match int_of_string_opt (after ~prefix:"--workers=" a) with
      | Some w when w >= 1 ->
        workers := Some w;
        go tl
      | _ -> usage_error "--workers expects a positive integer")
    | a :: _ when starts_with ~prefix:"-" a ->
      usage_error (Printf.sprintf "unknown option %s" a)
    | a :: tl ->
      rest := a :: !rest;
      go tl
  in
  go args;
  (!json, !workers, List.rev !rest)

let () =
  let json, workers, args = parse_args (List.tl (Array.to_list Sys.argv)) in
  let quick = List.mem "quick" args in
  let args = List.filter (fun a -> a <> "quick") args in
  let pool =
    try
      match workers with
      | Some w -> Pool.create ~workers:w ()
      | None -> Pool.default ()
    with Invalid_argument msg -> usage_error msg
  in
  let t0 = Unix.gettimeofday () in
  let entries =
    match args with
    | [] | [ "all" ] ->
      let entries =
        List.filter_map (run_experiment ~quick ~pool) Experiments.ids
      in
      micro ();
      entries
    | [ "micro" ] ->
      micro ();
      []
    | ids ->
      List.filter_map
        (fun id ->
          if String.lowercase_ascii id = "micro" then begin
            micro ();
            None
          end
          else run_experiment ~quick ~pool id)
        ids
  in
  let total_wall_s = Unix.gettimeofday () -. t0 in
  Printf.printf "total wall time: %.1fs (%d workers)\n%!" total_wall_s
    (Pool.workers pool);
  match json with
  | None -> ()
  | Some path ->
    let calibration = calibrate pool in
    let report =
      {
        Report.date = Report.iso8601 (Unix.time ());
        workers = Pool.workers pool;
        quick;
        total_wall_s;
        calibration = Some calibration;
        entries;
        extra = [];
      }
    in
    Report.write ~path report;
    Printf.printf "wrote %s (calibration: %.2fx speedup over 1 worker, %s)\n%!"
      path calibration.Report.speedup
      (if calibration.Report.deterministic then "deterministic"
       else "NON-DETERMINISTIC")
