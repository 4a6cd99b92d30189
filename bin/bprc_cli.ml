(* Command-line interface to the bounded polynomial randomized
   consensus library: single runs, shared-coin runs, the full
   experiment suite, and the fault-injection hunt/replay loop. *)

open Cmdliner

(* Shared by every randomness-consuming subcommand (run / coin / multi
   / trace / hunt); [experiment] derives its seeds from fixed
   per-experiment roots instead, so its tables are comparable across
   invocations. *)
let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Random seed (default 1).  Every run is deterministic in it, \
           independent of $(b,--workers).")

let n_arg =
  Arg.(value & opt int 4 & info [ "n"; "procs" ] ~docv:"N" ~doc:"Number of processes.")

let sched_conv =
  let parse = function
    | "random" -> Ok Bprc_harness.Run.Random_sched
    | "rr" | "round-robin" -> Ok Bprc_harness.Run.Round_robin_sched
    | "anti-coin" -> Ok Bprc_harness.Run.Anti_coin_sched
    | "split" -> Ok Bprc_harness.Run.Osc_coin_sched
    | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "bursty" -> (
        match
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
        with
        | Some b when b > 0 -> Ok (Bprc_harness.Run.Bursty_sched b)
        | _ -> Error (`Msg "bursty:<positive burst> expected"))
      | None | Some _ -> Error (`Msg ("unknown scheduler " ^ s)))
  in
  let print ppf s = Fmt.string ppf (Bprc_harness.Run.sched_name s) in
  Arg.conv (parse, print)

let sched_arg =
  Arg.(
    value
    & opt sched_conv Bprc_harness.Run.Random_sched
    & info [ "sched" ] ~docv:"SCHED"
        ~doc:
          "Scheduler/adversary: random, rr, bursty:K, anti-coin (walk \
           stretcher), split (disagreement seeker).")

let algo_conv =
  let parse = function
    | "ads" | "ads89" -> Ok (Bprc_harness.Run.Ads Bprc_core.Ads89.Shared_walk)
    | "ah" | "ah88" -> Ok Bprc_harness.Run.Ah
    | "local" -> Ok (Bprc_harness.Run.Ads Bprc_core.Ads89.Local_flips)
    | "oracle" -> Ok (Bprc_harness.Run.Ads Bprc_core.Ads89.Oracle_shared)
    | "esnap" | "ads-esnap" ->
      Ok (Bprc_harness.Run.Ads_esnap Bprc_core.Ads89.Shared_walk)
    | "esnap-oracle" ->
      Ok (Bprc_harness.Run.Ads_esnap Bprc_core.Ads89.Oracle_shared)
    | s -> Error (`Msg ("unknown algorithm " ^ s))
  in
  let print ppf a = Fmt.string ppf (Bprc_harness.Run.algo_name a) in
  Arg.conv (parse, print)

let algo_arg =
  Arg.(
    value
    & opt algo_conv (Bprc_harness.Run.Ads Bprc_core.Ads89.Shared_walk)
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:"Algorithm: ads (the paper), ah (unbounded baseline), local \
              (exponential baseline), oracle (perfect coin), esnap / \
              esnap-oracle (the paper's protocol over the wait-free \
              embedded snapshot — the large-n configuration).")

let pattern_conv =
  let parse = function
    | "random" -> Ok Bprc_harness.Run.Random_inputs
    | "split" -> Ok Bprc_harness.Run.Split
    | "ones" -> Ok (Bprc_harness.Run.Unanimous true)
    | "zeros" -> Ok (Bprc_harness.Run.Unanimous false)
    | s -> Error (`Msg ("unknown input pattern " ^ s))
  in
  let print ppf = function
    | Bprc_harness.Run.Random_inputs -> Fmt.string ppf "random"
    | Bprc_harness.Run.Split -> Fmt.string ppf "split"
    | Bprc_harness.Run.Unanimous v -> Fmt.pf ppf "unanimous %b" v
  in
  Arg.conv (parse, print)

let pattern_arg =
  Arg.(
    value
    & opt pattern_conv Bprc_harness.Run.Random_inputs
    & info [ "inputs" ] ~docv:"PATTERN"
        ~doc:"Input pattern: random, split, ones, zeros.")

(* Exit codes (documented in README "Exit codes"): 0 = all properties
   held, 1 = a property violation was found/reproduced, 2 = usage error
   (unknown flag, malformed value, unknown name), 124 = a budget or
   bound ran out first (run: some process had not decided at the step
   bound; hunt: the wall-clock budget), 125 = internal error (uncaught
   exception).  Usage errors must not share 124: scripts treat a bound
   hit as a pass. *)
let exit_ok = 0
let exit_violation = 1
let exit_usage = 2
let exit_budget = 124
let exit_internal = 125

(* --- run -------------------------------------------------------------- *)

let run_cmd =
  let action n seed algo sched pattern =
    let r = Bprc_harness.Run.consensus_once ~sched ~algo ~pattern ~n ~seed () in
    let inputs = Bprc_harness.Run.inputs_of_pattern pattern ~n ~seed in
    Fmt.pr "algorithm : %s@." (Bprc_harness.Run.algo_name algo);
    Fmt.pr "scheduler : %s@." (Bprc_harness.Run.sched_name sched);
    Fmt.pr "inputs    : %a@."
      Fmt.(array ~sep:(any " ") (fmt "%b"))
      inputs;
    Fmt.pr "decisions : %a@."
      Fmt.(array ~sep:(any " ") (option ~none:(any "?") (fmt "%b")))
      r.Bprc_harness.Run.decisions;
    Fmt.pr "steps     : %d   rounds: %d   walk steps: %d@."
      r.Bprc_harness.Run.steps r.Bprc_harness.Run.max_round
      r.Bprc_harness.Run.walk_steps;
    Fmt.pr "register  : %d bits@." r.Bprc_harness.Run.register_bits;
    (* [Spec.check] judges only the processes that decided, so an
       undecided one is reported (and exits 124) on its own. *)
    let undecided =
      Array.fold_left
        (fun c d -> if d = None then c + 1 else c)
        0 r.Bprc_harness.Run.decisions
    in
    let report_undecided () =
      if undecided > 0 then
        Fmt.pr "undecided : %d of %d processes did not decide within the \
                %d-step bound@."
          undecided n Bprc_harness.Run.default_max_steps
    in
    match r.Bprc_harness.Run.spec with
    | Ok () ->
      Fmt.pr "spec      : consistency and validity hold@.";
      report_undecided ();
      if undecided > 0 then exit exit_budget
    | Error e ->
      Fmt.pr "spec      : VIOLATION — %s@." e;
      report_undecided ();
      exit exit_violation
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one consensus instance in the simulator.  Exit codes: 0 every \
          process decided and the spec holds, 1 spec violation, 124 some \
          process undecided at the step bound.")
    Term.(const action $ n_arg $ seed_arg $ algo_arg $ sched_arg $ pattern_arg)


(* --- space-report ------------------------------------------------------ *)

let space_report_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as JSON (schema bprc-space-report v1).")
  in
  let action n algo json =
    (* Instantiating the protocol allocates every shared register it
       will ever use (the bound is the paper's headline), so the report
       needs a simulator arena but not a single executed step; the
       arena's register counter cross-checks the analytic report. *)
    let adversary = Bprc_runtime.Adversary.random () in
    let sim = Bprc_runtime.Sim.create ~seed:0 ~max_steps:1 ~n ~adversary () in
    let params = Bprc_core.Params.default in
    let algo_key, space, state_bits =
      let module R = (val Bprc_runtime.Sim.runtime sim) in
      match algo with
      | Bprc_harness.Run.Ads _ ->
        let module C = Bprc_core.Ads89.Make (R) in
        let t = C.create ~params () in
        ("ads", C.space t, Bprc_core.Params.state_bits params ~n)
      | Bprc_harness.Run.Ads_esnap _ ->
        let module E = Bprc_snapshot.Embedded.Make (R) in
        let module C = Bprc_core.Ads89.Make_over_snapshot (R) (E) in
        let t = C.create ~params () in
        ("esnap", C.space t, Bprc_core.Params.state_bits params ~n)
      | Bprc_harness.Run.Ah ->
        let module C = Bprc_core.Ah88.Make (R) in
        let t = C.create () in
        (* the unbounded baseline's payload is its (initial) grown
           maximum, not the static bound *)
        ("ah", C.space t, C.max_register_bits t)
    in
    let module Space = Bprc_space.Space in
    let registers_created = Bprc_runtime.Sim.registers_created sim in
    let k, delta, m = Bprc_core.Params.validate params ~n in
    if json then
      let open Bprc_util.Json in
      Fmt.pr "%s@."
        (to_string
           (Obj
              [
                ("schema", Str "bprc-space-report");
                ("version", Int 1);
                ("algo", Str algo_key);
                ("n", Int n);
                ( "params",
                  Obj [ ("k", Int k); ("delta", Int delta); ("m", Int m) ] );
                ("state_bits", Int state_bits);
                ("space", Space.to_json space);
                ("registers_created", Int registers_created);
              ]))
    else begin
      Fmt.pr "algorithm : %s   n = %d   (k=%d delta=%d m=%d)@."
        (Bprc_harness.Run.algo_name algo)
        n k delta m;
      Fmt.pr "payload   : %d bits of protocol state per segment@." state_bits;
      Fmt.pr "%a@." Space.pp space;
      Fmt.pr "arena     : %d registers created@." registers_created
    end;
    if registers_created <> Space.registers space then begin
      Fmt.epr
        "space-report: analytic report lists %d registers but the arena \
         created %d@."
        (Space.registers space) registers_created;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "space-report"
       ~doc:
         "Report the shared-memory footprint of a protocol instance: every \
          register group with its width, the total shared bits, and the \
          simulator cross-check that exactly those registers get created.  \
          Exit codes: 0 report consistent, 1 analytic/measured mismatch.")
    Term.(const action $ n_arg $ algo_arg $ json_arg)

(* --- coin ------------------------------------------------------------- *)

let coin_cmd =
  let delta_arg =
    Arg.(value & opt int 2 & info [ "delta" ] ~doc:"Barrier multiplier δ.")
  in
  let action n seed delta sched =
    let r = Bprc_harness.Run.coin_once ~delta ~sched ~n ~seed () in
    Fmt.pr "values     : %a@." Fmt.(list ~sep:(any " ") (fmt "%b")) r.Bprc_harness.Run.values;
    Fmt.pr "agreed     : %b@." r.Bprc_harness.Run.agreed;
    Fmt.pr "walk steps : %d   overflows: %d@." r.Bprc_harness.Run.walk_steps
      r.Bprc_harness.Run.overflows
  in
  Cmd.v
    (Cmd.info "coin" ~doc:"Flip one bounded weak shared coin (§3).")
    Term.(const action $ n_arg $ seed_arg $ delta_arg $ sched_arg)

(* --- experiment ------------------------------------------------------- *)

let experiment_cmd =
  let ids_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID" ~doc:"Experiment ids (E1..E14); all when empty.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced trial counts.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write a machine-readable JSON report to $(docv) (schema in \
             EXPERIMENTS.md).")
  in
  let workers_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Fan trials over $(docv) domains (default: one per core, \
             overridable via BPRC_WORKERS).")
  in
  let action ids quick csv json workers =
    let ids = if ids = [] then Bprc_harness.Experiments.ids else ids in
    (match
       List.find_opt
         (fun id -> Bprc_harness.Experiments.by_id id = None)
         ids
     with
    | Some id ->
      Fmt.epr "unknown experiment %s; valid ids: %s@." id
        (String.concat " " Bprc_harness.Experiments.ids);
      exit exit_usage
    | None -> ());
    (match workers with
    | Some w when w < 1 ->
      Fmt.epr "--workers expects a positive integer@.";
      exit exit_usage
    | _ -> ());
    let pool =
      try
        match workers with
        | Some w -> Bprc_harness.Pool.create ~workers:w ()
        | None -> Bprc_harness.Pool.default ()
      with Invalid_argument msg ->
        Fmt.epr "%s@." msg;
        exit exit_usage
    in
    let t0 = Unix.gettimeofday () in
    let entries =
      List.map
        (fun id ->
          let fn = Option.get (Bprc_harness.Experiments.by_id id) in
          let t = Unix.gettimeofday () in
          let table = fn ~quick ~pool () in
          let wall_s = Unix.gettimeofday () -. t in
          if csv then print_string (Bprc_harness.Table.to_csv table)
          else Bprc_harness.Table.print table;
          { Bprc_harness.Report.table; wall_s })
        ids
    in
    match json with
    | None -> ()
    | Some path ->
      let report =
        {
          Bprc_harness.Report.date =
            Bprc_harness.Report.iso8601 (Unix.time ());
          workers = Bprc_harness.Pool.workers pool;
          quick;
          total_wall_s = Unix.gettimeofday () -. t0;
          calibration = None;
          entries;
          extra = [];
        }
      in
      Bprc_harness.Report.write ~path report;
      Fmt.pr "wrote %s@." path
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Reproduce the paper's quantitative claims (see EXPERIMENTS.md).")
    Term.(const action $ ids_arg $ quick_arg $ csv_arg $ json_arg $ workers_arg)

(* --- multi ------------------------------------------------------------ *)

let multi_cmd =
  let width_arg =
    Arg.(value & opt int 8 & info [ "width" ] ~doc:"Bit width of the domain.")
  in
  let action n seed width =
    let sim =
      Bprc_runtime.Sim.create ~seed ~n
        ~adversary:(Bprc_runtime.Adversary.random ()) ()
    in
    let module M = Bprc_core.Multivalued.Make ((val Bprc_runtime.Sim.runtime sim)) in
    let t = M.create ~width () in
    let rng = Bprc_rng.Splitmix.create ~seed in
    let inputs =
      Array.init n (fun _ -> Bprc_rng.Splitmix.int rng (1 lsl width))
    in
    let handles =
      Array.init n (fun i ->
          Bprc_runtime.Sim.spawn sim (fun () -> M.run t ~input:inputs.(i)))
    in
    (match Bprc_runtime.Sim.run sim with
    | Bprc_runtime.Sim.Completed -> ()
    | Bprc_runtime.Sim.Hit_step_limit ->
      Fmt.epr "step limit hit@.";
      exit 1);
    Fmt.pr "inputs    : %a@." Fmt.(array ~sep:(any " ") int) inputs;
    Fmt.pr "decisions : %a@."
      Fmt.(array ~sep:(any " ") (option ~none:(any "?") int))
      (Array.map Bprc_runtime.Sim.result handles)
  in
  Cmd.v
    (Cmd.info "multi" ~doc:"Multi-valued consensus (the paper's extension).")
    Term.(const action $ n_arg $ seed_arg $ width_arg)

(* --- trace ------------------------------------------------------------ *)

(* Canonical digest of a full trace: every event rendered to a fixed
   textual form, MD5-hashed.  Pinned by the golden determinism cram
   test — any change to the simulator that perturbs scheduling, flip
   draws, or event recording changes this value. *)
let trace_digest tr =
  let buf = Buffer.create 4096 in
  Bprc_runtime.Trace.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d|%d|%d|%s|%s\n" e.Bprc_runtime.Trace.time e.pid
           e.reg_id e.reg_name
           (match e.kind with
           | Bprc_runtime.Trace.Read -> "R"
           | Bprc_runtime.Trace.Write -> "W"
           | Bprc_runtime.Trace.Flip b -> if b then "F1" else "F0"
           | Bprc_runtime.Trace.Step -> "S"
           | Bprc_runtime.Trace.Note s -> "N:" ^ s)))
    tr;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let trace_cmd =
  let steps_arg =
    Arg.(value & opt int 400 & info [ "steps" ] ~doc:"Steps to simulate.")
  in
  let digest_arg =
    Arg.(
      value & flag
      & info [ "digest" ]
          ~doc:
            "Print an MD5 digest of the full event stream instead of the \
             access statistics (golden determinism regression).")
  in
  let action n seed sched steps digest =
    let adversary =
      match sched with
      | Bprc_harness.Run.Random_sched -> Bprc_runtime.Adversary.random ()
      | Bprc_harness.Run.Round_robin_sched -> Bprc_runtime.Adversary.round_robin ()
      | Bprc_harness.Run.Bursty_sched b -> Bprc_runtime.Adversary.bursty ~burst:b ()
      | Bprc_harness.Run.Anti_coin_sched | Bprc_harness.Run.Osc_coin_sched ->
        Bprc_runtime.Adversary.random ()
    in
    let sim =
      Bprc_runtime.Sim.create ~seed ~max_steps:steps ~record_trace:true ~n
        ~adversary ()
    in
    let module C = Bprc_core.Ads89.Make ((val Bprc_runtime.Sim.runtime sim)) in
    let t = C.create () in
    let _ =
      Array.init n (fun i ->
          Bprc_runtime.Sim.spawn sim (fun () -> C.run t ~input:(i mod 2 = 0)))
    in
    ignore (Bprc_runtime.Sim.run sim);
    match Bprc_runtime.Sim.trace sim with
    | None -> Fmt.epr "no trace recorded@."
    | Some tr ->
      if digest then
        Fmt.pr "%d events  md5 %s@." (Bprc_runtime.Trace.length tr)
          (trace_digest tr)
      else
        Fmt.pr "%a@." Bprc_runtime.Trace_stats.pp
          (Bprc_runtime.Trace_stats.analyze tr ~n)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a consensus prefix with trace recording and print access              statistics.")
    Term.(const action $ n_arg $ seed_arg $ sched_arg $ steps_arg $ digest_arg)

(* --- hunt ------------------------------------------------------------- *)

let scenario_arg =
  let scenario_conv =
    Arg.conv
      ( (fun s ->
          match Bprc_faults.Scenario.find s with
          | Some sc -> Ok sc
          | None ->
            Error
              (`Msg
                 (Printf.sprintf "unknown scenario %s (valid: %s)" s
                    (String.concat ", " Bprc_faults.Scenario.names)))),
        fun ppf (s : Bprc_faults.Scenario.t) ->
          Fmt.string ppf s.Bprc_faults.Scenario.name )
  in
  Arg.(
    value
    & opt scenario_conv Bprc_faults.Scenario.consensus
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Hunt scenario: %s.  See DESIGN.md \"Fault model\"."
             (String.concat ", " Bprc_faults.Scenario.names)))

let workers_opt_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Fan trials over $(docv) domains (default: one per core, \
           overridable via BPRC_WORKERS).  Results are identical at any \
           worker count.")

let pool_of_workers workers =
  match workers with
  | Some w when w < 1 ->
    Fmt.epr "--workers expects a positive integer@.";
    exit exit_usage
  | Some w -> Bprc_harness.Pool.create ~workers:w ()
  | None -> Bprc_harness.Pool.default ()

let hunt_cmd =
  let trials_arg =
    Arg.(
      value & opt int 1000
      & info [ "trials" ] ~docv:"N" ~doc:"Fault-plan trials to attempt.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget-s" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget; exit 124 when it runs out first.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "hunt-failure.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the shrunk counterexample script.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit a machine-readable JSON summary on stdout.")
  in
  let action scenario trials seed n budget_s out json workers =
    let pool = pool_of_workers workers in
    let map f idxs = Bprc_harness.Pool.map_list pool f idxs in
    (* Batch sizing follows the pool width: each budget check costs one
       barrier, so wider pools hunt in proportionally larger batches to
       keep every domain busy between checks.  Outcomes stay
       batch-independent (lowest failing trial index wins). *)
    let batch = max 64 (16 * Bprc_harness.Pool.workers pool) in
    let outcome =
      Bprc_faults.Hunt.run ?budget_s ~batch ~map ~scenario ~trials ~seed ~n ()
    in
    let summary fields =
      if json then
        print_endline
          (Bprc_util.Json.to_string
             (Bprc_util.Json.Obj
                (("scenario",
                  Bprc_util.Json.Str scenario.Bprc_faults.Scenario.name)
                 :: ("seed", Bprc_util.Json.Int seed)
                 :: fields)))
    in
    match outcome with
    | Bprc_faults.Hunt.No_failure { trials_run } ->
      if not json then
        Fmt.pr "hunt: %d trials of %s clean (seed %d)@." trials_run
          scenario.Bprc_faults.Scenario.name seed;
      summary
        [
          ("outcome", Bprc_util.Json.Str "no_failure");
          ("trials_run", Bprc_util.Json.Int trials_run);
        ];
      exit exit_ok
    | Bprc_faults.Hunt.Budget_exhausted { trials_run } ->
      if not json then
        Fmt.pr "hunt: budget exhausted after %d clean trials@." trials_run;
      summary
        [
          ("outcome", Bprc_util.Json.Str "budget_exhausted");
          ("trials_run", Bprc_util.Json.Int trials_run);
        ];
      exit exit_budget
    | Bprc_faults.Hunt.Found f ->
      let orig = f.Bprc_faults.Hunt.script and s = f.Bprc_faults.Hunt.shrunk in
      Bprc_faults.Counterexample.save ~path:out s;
      if not json then begin
        let plan = Bprc_faults.Counterexample.plan in
        Fmt.pr "hunt: FAILURE at trial %d: %s@." f.Bprc_faults.Hunt.trial
          orig.failure;
        Fmt.pr "  plan    : %a@." Bprc_faults.Fault_plan.pp (plan s);
        Fmt.pr "  shrunk  : %d->%d faults, %d->%d choices, %d->%d flips@."
          (List.length (plan orig))
          (List.length (plan s))
          (List.length orig.choices) (List.length s.choices)
          (List.length orig.flips) (List.length s.flips);
        Fmt.pr "  replay  : %s@."
          (if f.Bprc_faults.Hunt.replay_verified then "bit-identical"
           else "NOT bit-identical (bug in the recorder?)");
        Fmt.pr "  script  : %s@." out;
        Fmt.pr "  repro   : bprc replay %s@." out
      end;
      summary
        [
          ("outcome", Bprc_util.Json.Str "failure");
          ("trial", Bprc_util.Json.Int f.Bprc_faults.Hunt.trial);
          ("failure", Bprc_util.Json.Str s.failure);
          ("script", Bprc_util.Json.Str out);
          ( "replay_verified",
            Bprc_util.Json.Bool f.Bprc_faults.Hunt.replay_verified );
          ("repro", Bprc_util.Json.Str ("bprc replay " ^ out));
        ];
      exit exit_violation
  in
  Cmd.v
    (Cmd.info "hunt"
       ~doc:
         "Fuzz a scenario with random fault plans; on failure, write a \
          shrunk replayable counterexample script.  Exit codes: 0 clean, 1 \
          failure found, 124 budget exhausted.")
    Term.(
      const action $ scenario_arg $ trials_arg $ seed_arg $ n_arg $ budget_arg
      $ out_arg $ json_arg $ workers_opt_arg)

(* --- replay ----------------------------------------------------------- *)

(* Re-execute a counterexample under the registry it names: a hunt
   scenario, or a check configuration at the step bound it was explored
   under. *)
let replay_counterexample (c : Bprc_faults.Counterexample.t) =
  match c.registry with
  | Bprc_faults.Counterexample.Hunt _ ->
    Option.map
      (fun scenario ->
        let r = Bprc_faults.Hunt.replay_script ~scenario c in
        let outcome =
          match r.Bprc_faults.Scenario.failure with
          | Some f -> `Reproduced f
          | None -> `Clean
        in
        (outcome, r.Bprc_faults.Scenario.clock))
      (Bprc_faults.Scenario.find c.name)
  | Bprc_faults.Counterexample.Check { max_steps } ->
    Option.map
      (fun cfg ->
        let outcome, clock =
          Bprc_check.Config.replay ~max_steps cfg
            {
              Bprc_check.Explorer.choices = c.choices;
              flips = c.flips;
              failure = c.failure;
              clock = c.clock;
            }
        in
        let outcome =
          match outcome with
          | Bprc_check.Explorer.Fail f -> `Reproduced f
          | Bprc_check.Explorer.Pass -> `Clean
          | Bprc_check.Explorer.Cutoff -> `Cutoff
        in
        (outcome, clock))
      (Bprc_check.Config.find c.name)

let replay_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Counterexample (JSON, written by hunt or check) to re-execute.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit a machine-readable JSON summary on stdout.")
  in
  let action file json =
    match Bprc_faults.Counterexample.load ~path:file with
    | Error e ->
      Fmt.epr "replay: %s@." e;
      exit exit_usage
    | Ok c -> (
      (* Hunt counterexamples name a scenario, check ones a config. *)
      let label =
        match c.registry with
        | Bprc_faults.Counterexample.Hunt _ -> "scenario"
        | Bprc_faults.Counterexample.Check _ -> "config"
      in
      match replay_counterexample c with
      | None ->
        Fmt.epr "replay: %s registry has no %s %S@."
          (Bprc_faults.Counterexample.registry_name c.registry)
          label c.name;
        exit exit_usage
      | Some (outcome, clock) ->
        let summary outcome fields =
          if json then
            print_endline
              (Bprc_util.Json.to_string
                 (Bprc_util.Json.Obj
                    ((label, Bprc_util.Json.Str c.name)
                     :: ("script", Bprc_util.Json.Str file)
                     :: ("outcome", Bprc_util.Json.Str outcome)
                     :: ("clock", Bprc_util.Json.Int clock)
                     :: fields)))
        in
        if not json then begin
          match c.registry with
          | Bprc_faults.Counterexample.Hunt { seed; plan; _ } ->
            Fmt.pr "scenario : %s  (n=%d seed=%d)@." c.name c.n seed;
            Fmt.pr "plan     : %a@." Bprc_faults.Fault_plan.pp plan
          | Bprc_faults.Counterexample.Check { max_steps } ->
            Fmt.pr "config   : %s  (n=%d max_steps=%d)@." c.name c.n max_steps
        end;
        (match outcome with
        | `Reproduced f ->
          let bit_identical = clock = c.clock && f = c.failure in
          if not json then begin
            Fmt.pr "failure  : %s@." f;
            Fmt.pr "expected : %s@." c.failure;
            Fmt.pr "clock    : %d (script: %d)%s@." clock c.clock
              (if bit_identical then "  [bit-identical]" else "")
          end;
          summary "reproduced"
            [
              ("failure", Bprc_util.Json.Str f);
              ("bit_identical", Bprc_util.Json.Bool bit_identical);
            ];
          exit exit_violation
        | `Clean ->
          if not json then
            Fmt.pr "failure  : none reproduced (script expected: %s)@."
              c.failure;
          summary "clean" [];
          exit exit_ok
        | `Cutoff ->
          if not json then
            Fmt.pr "failure  : step bound hit before completion@.";
          summary "cutoff" [];
          exit exit_budget))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a counterexample written by $(b,hunt) or $(b,check) \
          deterministically.  Exit codes: 1 when the violation reproduces, \
          0 when the run is clean, 124 when a check replay hits its step \
          bound first.")
    Term.(const action $ file_arg $ json_arg)

(* --- check ------------------------------------------------------------ *)

let check_cmd =
  let configs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"CONFIG"
          ~doc:
            (Printf.sprintf
               "Configurations to explore (default: all).  Known: %s."
               (String.concat ", " (Bprc_check.Config.names ()))))
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the known configurations and exit.")
  in
  let max_runs_arg =
    Arg.(
      value & opt int 200_000
      & info [ "max-runs" ] ~docv:"N"
          ~doc:"Bound on schedules explored per configuration.")
  in
  let max_steps_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:"Per-run step bound (default: the configuration's own).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget-s" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget per configuration.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "check-witness.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the violating schedule, if one is found.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit a machine-readable JSON report on stdout.")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Skip ddmin minimization of the witness.")
  in
  let action configs list max_runs max_steps budget_s out json no_shrink =
    if list then begin
      List.iter
        (fun c ->
          Fmt.pr "%-16s %s@." c.Bprc_check.Config.name
            c.Bprc_check.Config.summary)
        Bprc_check.Config.all;
      exit exit_ok
    end;
    let cfgs =
      match configs with
      | [] -> Bprc_check.Config.all
      | names ->
        List.map
          (fun name ->
            match Bprc_check.Config.find name with
            | Some c -> c
            | None ->
              Fmt.epr "check: unknown configuration %S (valid: %s)@." name
                (String.concat ", " (Bprc_check.Config.names ()));
              exit exit_usage)
          names
    in
    (* Clean means the whole tree was enumerated and every run finished:
       a run cut off at the step bound checked nothing. *)
    let clean (s : Bprc_check.Explorer.stats) =
      s.exhausted && s.step_limited = 0
    in
    let results =
      (* Stop exploring further configurations at the first violation,
         mirroring hunt's stop-at-first-failure. *)
      let rec go acc = function
        | [] -> List.rev acc
        | cfg :: rest ->
          let stats =
            Bprc_check.Config.run ~max_runs ?max_steps ?budget_s
              ~shrink:(not no_shrink) cfg
          in
          if not json then begin
            match stats.Bprc_check.Explorer.violation with
            | None ->
              Fmt.pr "check: %-16s runs=%d pruned=%d cutoff=%d %s@."
                cfg.Bprc_check.Config.name stats.Bprc_check.Explorer.runs
                stats.Bprc_check.Explorer.pruned
                stats.Bprc_check.Explorer.step_limited
                (if clean stats then "exhausted: clean"
                 else "bound hit: clean so far")
            | Some w ->
              Fmt.pr "check: %-16s FAILURE after %d runs: %s@."
                cfg.Bprc_check.Config.name stats.Bprc_check.Explorer.runs
                w.Bprc_check.Explorer.failure
          end;
          if stats.Bprc_check.Explorer.violation <> None then
            List.rev ((cfg, stats) :: acc)
          else go ((cfg, stats) :: acc) rest
      in
      go [] cfgs
    in
    let found =
      List.find_opt
        (fun (_, s) -> s.Bprc_check.Explorer.violation <> None)
        results
    in
    (match found with
    | Some (cfg, { Bprc_check.Explorer.violation = Some w; _ }) ->
      Bprc_faults.Counterexample.save ~path:out
        (Bprc_check.Config.counterexample ?max_steps cfg w);
      if not json then begin
        Fmt.pr "  schedule: %d choices, %d flips (ddmin-%s)@."
          (List.length w.Bprc_check.Explorer.choices)
          (List.length w.Bprc_check.Explorer.flips)
          (if no_shrink then "skipped" else "minimized");
        Fmt.pr "  witness : %s@." out;
        Fmt.pr "  repro   : bprc replay %s@." out
      end
    | _ -> ());
    let outcome =
      if found <> None then "violation"
      else if List.for_all (fun (_, s) -> clean s) results then "clean"
      else "bound_hit"
    in
    if json then begin
      let config_json (cfg, s) =
        Bprc_util.Json.Obj
          (("name", Bprc_util.Json.Str cfg.Bprc_check.Config.name)
           :: ("runs", Bprc_util.Json.Int s.Bprc_check.Explorer.runs)
           :: ("pruned", Bprc_util.Json.Int s.Bprc_check.Explorer.pruned)
           :: ("step_limited",
               Bprc_util.Json.Int s.Bprc_check.Explorer.step_limited)
           :: ("exhausted",
               Bprc_util.Json.Bool s.Bprc_check.Explorer.exhausted)
           ::
           (match s.Bprc_check.Explorer.violation with
           | None -> []
           | Some w ->
             [
               ("failure", Bprc_util.Json.Str w.Bprc_check.Explorer.failure);
               ("clock", Bprc_util.Json.Int w.Bprc_check.Explorer.clock);
               ( "choices",
                 Bprc_util.Json.Int
                   (List.length w.Bprc_check.Explorer.choices) );
               ( "flips",
                 Bprc_util.Json.Int
                   (List.length w.Bprc_check.Explorer.flips) );
               ("witness", Bprc_util.Json.Str out);
             ]))
      in
      print_endline
        (Bprc_util.Json.to_string
           (Bprc_util.Json.Obj
              [
                ("kind", Bprc_util.Json.Str "bprc-check-report");
                ("version", Bprc_util.Json.Int 3);
                ("outcome", Bprc_util.Json.Str outcome);
                ( "configs",
                  Bprc_util.Json.Arr (List.map config_json results) );
              ]))
    end;
    exit
      (match outcome with
      | "violation" -> exit_violation
      | "clean" -> exit_ok
      | _ -> exit_budget)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively explore the schedules of small configurations \
          (linearizability + P1-P3 + consensus spec on every completed \
          run); on violation, write a ddmin-minimized replayable witness \
          schedule.  Exploration is a sequential DFS stopped at its \
          first violation, so reports are deterministic.  \
          Exit codes: 0 every configuration exhausted clean with no run \
          cut off at the step bound, 1 violation found, 124 a run, step \
          or wall-clock bound hit first.")
    Term.(
      const action $ configs_arg $ list_arg $ max_runs_arg $ max_steps_arg
      $ budget_arg $ out_arg $ json_arg $ no_shrink_arg)

(* --- serve-bench ------------------------------------------------------- *)

(* Canonical digest of a decided stream: the pure per-instance fields
   (ticket, decisions, completion, steps, rounds, spec verdict) rendered
   to a fixed textual form and MD5-hashed.  Wall-clock fields (latency,
   shard) are excluded on purpose, so the digest is identical across
   worker counts, across deterministic/throughput modes, and across
   machines — the cram golden and the CI invariance diff both pin it. *)
let decided_digest_add buf (d : Bprc_service.Engine.decided) =
  Buffer.add_string buf (string_of_int d.Bprc_service.Engine.ticket);
  Buffer.add_char buf '|';
  Array.iter
    (fun v ->
      Buffer.add_char buf
        (match v with None -> '?' | Some true -> '1' | Some false -> '0'))
    d.Bprc_service.Engine.decisions;
  Buffer.add_string buf
    (Printf.sprintf "|%b|%d|%d|%s\n" d.Bprc_service.Engine.completed
       d.Bprc_service.Engine.steps d.Bprc_service.Engine.rounds
       (match d.Bprc_service.Engine.spec_check with
       | Ok () -> "ok"
       | Error e -> e))

let serve_bench_cmd =
  let instances_arg =
    Arg.(
      value & opt int 1000
      & info [ "instances" ] ~docv:"K"
          ~doc:"Total consensus instances to submit and decide.")
  in
  let in_flight_arg =
    Arg.(
      value & opt int 256
      & info [ "in-flight" ] ~docv:"M"
          ~doc:
            "In-flight cap: admitted-but-undelivered instances beyond \
             which submission is refused (backpressure window).")
  in
  let batch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "batch" ] ~docv:"B"
          ~doc:"Instances dispatched per pool round (default 16/worker).")
  in
  let mode_conv =
    let parse = function
      | "det" | "deterministic" -> Ok Bprc_service.Engine.Deterministic
      | "thr" | "throughput" -> Ok Bprc_service.Engine.Throughput
      | s -> Error (`Msg ("unknown mode " ^ s))
    in
    Arg.conv
      (parse, fun ppf m -> Fmt.string ppf (Bprc_service.Engine.mode_name m))
  in
  let mode_arg =
    Arg.(
      value
      & opt mode_conv Bprc_service.Engine.Throughput
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "det (reproducible decided stream, no wall-clock fields) or \
             thr (p50/p99 latency pipeline on).  Decisions are identical \
             either way.")
  in
  let registers_conv =
    let parse = function
      | "atomic" -> Ok []
      | "regular" ->
        Ok
          [
            Bprc_faults.Fault_plan.Weaken
              { index = -1; semantics = Bprc_faults.Fault_plan.Regular };
          ]
      | "safe" ->
        Ok
          [
            Bprc_faults.Fault_plan.Weaken
              { index = -1; semantics = Bprc_faults.Fault_plan.Safe };
          ]
      | s -> Error (`Msg ("unknown register strength " ^ s))
    in
    Arg.conv (parse, fun ppf (_ : Bprc_faults.Fault_plan.t) -> Fmt.string ppf "-")
  in
  let registers_arg =
    Arg.(
      value & opt registers_conv []
      & info [ "registers" ] ~docv:"STRENGTH"
          ~doc:
            "Register strength every instance runs under: atomic \
             (default), regular, safe.  Weakened strengths ablate \
             robustness; spec violations then exit 1 with a count.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit a machine-readable JSON report on stdout.")
  in
  let action n seed algo sched pattern instances cap batch mode registers
      json workers =
    if instances < 1 then begin
      Fmt.epr "--instances expects a positive integer@.";
      exit exit_usage
    end;
    if cap < 1 then begin
      Fmt.epr "--in-flight expects a positive integer@.";
      exit exit_usage
    end;
    (match batch with
    | Some b when b < 1 ->
      Fmt.epr "--batch expects a positive integer@.";
      exit exit_usage
    | _ -> ());
    let pool = pool_of_workers workers in
    let eng =
      Bprc_service.Engine.create ~mode ~seed ~in_flight_cap:cap ?batch
        ~pool ()
    in
    let spec =
      Bprc_service.Workload.spec ~algo ~pattern ~sched ~faults:registers ~n ()
    in
    let digest_buf = Buffer.create 4096 in
    let consume d = decided_digest_add digest_buf d in
    let t0 = Unix.gettimeofday () in
    (* Closed-loop driver: keep the window full, deliver when refused. *)
    let rec feed remaining =
      if remaining > 0 then
        match Bprc_service.Engine.submit eng spec with
        | `Accepted _ -> feed (remaining - 1)
        | `Overloaded -> (
          match Bprc_service.Engine.next_decided eng with
          | Some d ->
            consume d;
            feed remaining
          | None -> assert false (* window full implies work in flight *))
    in
    feed instances;
    List.iter consume (Bprc_service.Engine.drain eng);
    let wall_s = Unix.gettimeofday () -. t0 in
    Bprc_service.Engine.shutdown eng;
    let st = Bprc_service.Engine.stats eng in
    let digest = Digest.to_hex (Digest.string (Buffer.contents digest_buf)) in
    let mode_s = Bprc_service.Engine.mode_name mode in
    let throughput_mode = mode = Bprc_service.Engine.Throughput in
    let open Bprc_service.Engine in
    if json then begin
      let num v = if Float.is_nan v then Bprc_util.Json.Null else Bprc_util.Json.Float v in
      print_endline
        (Bprc_util.Json.to_string
           (Bprc_util.Json.Obj
              [
                ("kind", Bprc_util.Json.Str "bprc-serve-report");
                ("version", Bprc_util.Json.Int 1);
                ("mode", Bprc_util.Json.Str mode_s);
                ( "workers",
                  Bprc_util.Json.Int (Bprc_harness.Pool.workers pool) );
                ("n", Bprc_util.Json.Int n);
                ("algo", Bprc_util.Json.Str (Bprc_harness.Run.algo_name algo));
                ( "sched",
                  Bprc_util.Json.Str (Bprc_harness.Run.sched_name sched) );
                ("seed", Bprc_util.Json.Int seed);
                ("instances", Bprc_util.Json.Int instances);
                ("in_flight_cap", Bprc_util.Json.Int cap);
                ("submitted", Bprc_util.Json.Int st.submitted);
                ("overloaded", Bprc_util.Json.Int st.overloaded);
                ("decided", Bprc_util.Json.Int st.decided);
                ("delivered", Bprc_util.Json.Int st.delivered);
                ("violations", Bprc_util.Json.Int st.violations);
                ("incomplete", Bprc_util.Json.Int st.incomplete);
                ("max_in_flight", Bprc_util.Json.Int st.max_in_flight);
                ("wall_s", Bprc_util.Json.Float wall_s);
                ("busy_s", Bprc_util.Json.Float st.busy_s);
                ("decisions_per_sec", num st.decisions_per_sec);
                ("minor_words_per_instance", num st.minor_words_per_instance);
                ("lat_p50_s", num st.lat_p50_s);
                ("lat_p99_s", num st.lat_p99_s);
                ( "rounds_hist",
                  Bprc_util.Json.Arr
                    (List.map
                       (fun (r, c) ->
                         Bprc_util.Json.Obj
                           [
                             ("rounds", Bprc_util.Json.Int r);
                             ("count", Bprc_util.Json.Int c);
                           ])
                       st.rounds_hist) );
                ("decisions_digest", Bprc_util.Json.Str digest);
              ]))
    end
    else begin
      Fmt.pr "mode        : %s@." mode_s;
      Fmt.pr "workers     : %d@." (Bprc_harness.Pool.workers pool);
      Fmt.pr "instance    : n=%d %s, %s scheduler@." n
        (Bprc_harness.Run.algo_name algo)
        (Bprc_harness.Run.sched_name sched);
      Fmt.pr "submitted   : %d  (backpressure refusals: %d)@." st.submitted
        st.overloaded;
      Fmt.pr "decided     : %d  (violations: %d, incomplete: %d)@." st.decided
        st.violations st.incomplete;
      Fmt.pr "in-flight   : cap %d, high-water %d@." cap
        st.max_in_flight;
      (* Deterministic mode keeps timing out of the human output so the
         transcript itself is reproducible (the JSON report still
         carries wall_s/busy_s for whoever wants them). *)
      if throughput_mode then begin
        Fmt.pr "throughput  : %.0f decisions/s  (wall %.2fs, busy %.2fs)@."
          (float_of_int st.decided /. wall_s)
          wall_s st.busy_s;
        Fmt.pr "latency     : p50 %.4fs  p99 %.4fs@." st.lat_p50_s
          st.lat_p99_s
      end;
      Fmt.pr "rounds      : %s@."
        (String.concat " "
           (List.map
              (fun (r, c) -> Printf.sprintf "%dx%d" c r)
              st.rounds_hist));
      Fmt.pr "digest      : %s@." digest
    end;
    exit (if st.violations > 0 then exit_violation else exit_ok)
  in
  Cmd.v
    (Cmd.info "serve-bench"
       ~doc:
         "Drive the long-lived decision engine with a sustained stream of \
          consensus instances over a domain pool: bounded in-flight window \
          with backpressure, per-shard simulator-arena reuse, streaming \
          decisions/sec + p50/p99 latency stats.  Exit codes: 0 all decided \
          streams spec-clean, 1 spec violations observed.")
    Term.(
      const action $ n_arg $ seed_arg $ algo_arg $ sched_arg $ pattern_arg
      $ instances_arg $ in_flight_arg $ batch_arg $ mode_arg $ registers_arg
      $ json_arg $ workers_opt_arg)

let main =
  Cmd.group
    (Cmd.info "bprc" ~version:"1.0.0"
       ~doc:
         "Bounded polynomial randomized consensus (Attiya-Dolev-Shavit, PODC \
          1989): simulator, baselines, experiment suite, and fault-injection \
          hunting.")
    [ run_cmd; coin_cmd; experiment_cmd; multi_cmd; trace_cmd; hunt_cmd;
      replay_cmd; check_cmd; serve_bench_cmd; space_report_cmd ]

let () =
  exit
    (match Cmd.eval_value main with
    | Ok (`Ok () | `Version | `Help) -> exit_ok
    | Error (`Parse | `Term) -> exit_usage
    | Error `Exn -> exit_internal)
