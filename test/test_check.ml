open Bprc_registers
open Bprc_check

(* ------------------------------------------------------------------ *)
(* Wing–Gong checker unit tests                                        *)
(* ------------------------------------------------------------------ *)

module Reg_lin = Lin.Make ((val Specs.register ~init:0))
module Cons_lin = Lin.Make (Specs.Consensus)

let ev pid s f op = { Hist.pid; start_time = s; finish_time = f; op }

let reg_verdict evs =
  match Reg_lin.check evs with
  | Reg_lin.Linearizable _ -> true
  | Reg_lin.Not_linearizable -> false

let test_lin_empty () =
  Alcotest.(check bool) "empty history linearizable" true (reg_verdict [])

let test_lin_sequential () =
  let h =
    [
      ev 0 1 2 (Specs.Write 5);
      ev 1 3 4 (Specs.Read 5);
      ev 0 5 6 (Specs.Write 9);
      ev 1 7 8 (Specs.Read 9);
    ]
  in
  Alcotest.(check bool) "sequential history" true (reg_verdict h);
  match Reg_lin.check h with
  | Reg_lin.Linearizable order ->
    Alcotest.(check int) "witness covers all events" 4 (List.length order)
  | Reg_lin.Not_linearizable -> Alcotest.fail "expected witness"

let test_lin_concurrent_legal () =
  (* A read overlapping a write may return either value. *)
  let old = [ ev 0 1 10 (Specs.Write 5); ev 1 2 3 (Specs.Read 0) ] in
  let new_ = [ ev 0 1 10 (Specs.Write 5); ev 1 2 3 (Specs.Read 5) ] in
  Alcotest.(check bool) "overlapping read of old value" true (reg_verdict old);
  Alcotest.(check bool) "overlapping read of new value" true (reg_verdict new_)

let test_lin_precedence_violation () =
  (* Reading the initial value strictly after a write completed. *)
  let h = [ ev 0 1 2 (Specs.Write 5); ev 1 3 4 (Specs.Read 0) ] in
  Alcotest.(check bool) "stale read flagged" false (reg_verdict h)

let test_lin_new_old_inversion () =
  (* Both reads overlap the write, first sees new then old: each is
     individually regular-legal, together not linearizable. *)
  let h =
    [
      ev 1 1 10 (Specs.Write 7);
      ev 0 2 3 (Specs.Read 7);
      ev 0 4 5 (Specs.Read 0);
    ]
  in
  Alcotest.(check bool) "new-old inversion flagged" false (reg_verdict h)

let test_lin_event_cap () =
  let h = List.init (Lin.max_events + 1) (fun i -> ev 0 i i (Specs.Read 0)) in
  match Reg_lin.check h with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument beyond max_events"

let snap_verdict ~n evs =
  let module L = Lin.Make ((val Specs.snapshot ~n ())) in
  match L.check evs with
  | L.Linearizable _ -> true
  | L.Not_linearizable -> false

let test_lin_snapshot_spec () =
  let upd pid v = Specs.Update { pid; value = v } in
  let legal =
    [
      ev 0 1 2 (upd 0 1);
      ev 1 3 4 (Specs.Scan [| 1; 0 |]);
      ev 1 5 6 (upd 1 2);
      ev 0 7 8 (Specs.Scan [| 1; 2 |]);
    ]
  in
  Alcotest.(check bool) "legal snapshot history" true (snap_verdict ~n:2 legal);
  let stale =
    [ ev 0 1 2 (upd 0 1); ev 1 3 4 (Specs.Scan [| 0; 0 |]) ]
  in
  Alcotest.(check bool) "stale scan flagged" false (snap_verdict ~n:2 stale);
  (* Two scans ordering two concurrent updates incompatibly. *)
  let incomparable =
    [
      ev 0 1 10 (upd 0 1);
      ev 1 1 10 (upd 1 2);
      ev 0 2 3 (Specs.Scan [| 1; 0 |]);
      ev 1 4 5 (Specs.Scan [| 0; 2 |]);
    ]
  in
  Alcotest.(check bool) "incomparable scans flagged" false
    (snap_verdict ~n:2 incomparable)

let cons_verdict evs =
  match Cons_lin.check evs with
  | Cons_lin.Linearizable _ -> true
  | Cons_lin.Not_linearizable -> false

let test_lin_consensus_spec () =
  let p i o = Specs.Propose { input = i; output = o } in
  Alcotest.(check bool) "agreement on a proposed value" true
    (cons_verdict [ ev 0 1 4 (p 0 1); ev 1 2 5 (p 1 1) ]);
  Alcotest.(check bool) "disagreement flagged" false
    (cons_verdict [ ev 0 1 4 (p 0 0); ev 1 2 5 (p 1 1) ]);
  (* Validity: the decision must be somebody's input.  With these
     intervals p0 decides first and must output its own input. *)
  Alcotest.(check bool) "invalid decision flagged" false
    (cons_verdict [ ev 0 1 2 (p 0 1); ev 1 3 4 (p 1 1) ]);
  Alcotest.(check bool) "deciding the later input needs overlap" true
    (cons_verdict [ ev 0 1 4 (p 0 1); ev 1 2 3 (p 1 1) ])

(* ------------------------------------------------------------------ *)
(* Explorer: atomic configurations pass exhaustively                   *)
(* ------------------------------------------------------------------ *)

let get_config name =
  match Config.find name with
  | Some c -> c
  | None -> Alcotest.failf "config %s missing from registry" name

let test_registry_names () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (Config.find name <> None))
    [
      "reg-atomic";
      "reg-safe";
      "reg-regular";
      "snapshot-atomic";
      "snapshot-unsafe";
      "consensus-2p";
    ]

let test_atomic_register_exhaustive () =
  let cfg = get_config "reg-atomic" in
  let stats = Config.run cfg in
  Alcotest.(check bool) "exhausted" true stats.Explorer.exhausted;
  Alcotest.(check bool) "no violation" true (stats.Explorer.violation = None);
  Alcotest.(check bool) "expectation recorded" false cfg.Config.expect_violation

let test_snapshot_atomic_exhaustive () =
  let cfg = get_config "snapshot-atomic" in
  let stats = Config.run cfg in
  Alcotest.(check bool) "exhausted" true stats.Explorer.exhausted;
  Alcotest.(check bool) "no violation" true (stats.Explorer.violation = None)

let test_reduction_sound_and_effective () =
  (* The same configuration explored with and without sleep sets must
     agree on the verdict; the reduced tree must be strictly smaller. *)
  List.iter
    (fun name ->
      let cfg = get_config name in
      let reduced =
        Explorer.explore ~n:cfg.Config.n ~max_steps:cfg.Config.max_steps
          ~reduction:true ~setup:cfg.Config.setup ()
      in
      let full =
        Explorer.explore ~n:cfg.Config.n ~max_steps:cfg.Config.max_steps
          ~reduction:false ~setup:cfg.Config.setup ()
      in
      Alcotest.(check bool) (name ^ ": reduced exhausted") true
        reduced.Explorer.exhausted;
      Alcotest.(check bool) (name ^ ": full exhausted") true
        full.Explorer.exhausted;
      Alcotest.(check bool) (name ^ ": reduced clean") true
        (reduced.Explorer.violation = None);
      Alcotest.(check bool) (name ^ ": full clean") true
        (full.Explorer.violation = None);
      Alcotest.(check bool)
        (Printf.sprintf "%s: reduction shrinks tree (%d < %d)" name
           reduced.Explorer.runs full.Explorer.runs)
        true
        (reduced.Explorer.runs < full.Explorer.runs))
    [ "reg-atomic"; "snapshot-atomic" ]

(* ------------------------------------------------------------------ *)
(* Explorer: weakened configurations produce witnesses                 *)
(* ------------------------------------------------------------------ *)

let find_violation name =
  let cfg = get_config name in
  Alcotest.(check bool) (name ^ ": expectation recorded") true
    cfg.Config.expect_violation;
  let stats = Config.run cfg in
  match stats.Explorer.violation with
  | None -> Alcotest.failf "%s: no violation found" name
  | Some w -> (cfg, w)

let test_weakened_configs_fail_and_replay () =
  List.iter
    (fun name ->
      let cfg, w = find_violation name in
      (* The ddmin-minimized witness must reproduce the exact failure. *)
      match Config.replay cfg w with
      | Explorer.Fail f, clock ->
        Alcotest.(check string) (name ^ ": failure reproduced") w.Explorer.failure f;
        Alcotest.(check int) (name ^ ": clock reproduced") w.Explorer.clock clock
      | Explorer.Pass, _ -> Alcotest.failf "%s: witness replayed clean" name
      | Explorer.Cutoff, _ -> Alcotest.failf "%s: witness replay cut off" name)
    [ "reg-safe"; "reg-regular"; "snapshot-unsafe" ]

let test_witness_is_minimal () =
  (* Dropping any single schedule choice from the ddmin-ed witness must
     lose the failure (1-minimality), so the witness really is the
     explorer's minimal repro, not just a failing prefix. *)
  let cfg, w = find_violation "reg-regular" in
  let choices = Array.of_list w.Explorer.choices in
  Array.iteri
    (fun i _ ->
      let shorter =
        List.filteri (fun j _ -> j <> i) w.Explorer.choices
      in
      match
        Explorer.replay ~n:cfg.Config.n ~max_steps:cfg.Config.max_steps
          ~choices:shorter ~flips:w.Explorer.flips ~setup:cfg.Config.setup ()
      with
      | Explorer.Fail f, _ when f = w.Explorer.failure ->
        Alcotest.failf "dropping choice %d still fails identically" i
      | _ -> ())
    choices

let test_exploration_deterministic () =
  (* Two independent explorations are bit-identical: same tree size,
     same witness, same failure, regardless of environment. *)
  let cfg = get_config "reg-regular" in
  let s1 = Config.run cfg in
  let s2 = Config.run cfg in
  Alcotest.(check int) "runs equal" s1.Explorer.runs s2.Explorer.runs;
  Alcotest.(check int) "pruned equal" s1.Explorer.pruned s2.Explorer.pruned;
  match (s1.Explorer.violation, s2.Explorer.violation) with
  | Some w1, Some w2 ->
    Alcotest.(check (list int)) "choices equal" w1.Explorer.choices
      w2.Explorer.choices;
    Alcotest.(check (list bool)) "flips equal" w1.Explorer.flips
      w2.Explorer.flips;
    Alcotest.(check string) "failure equal" w1.Explorer.failure
      w2.Explorer.failure;
    Alcotest.(check int) "clock equal" w1.Explorer.clock w2.Explorer.clock
  | _ -> Alcotest.fail "violation missing from one of two identical runs"

let test_shrink_shrinks () =
  let cfg = get_config "snapshot-unsafe" in
  let raw = Config.run ~shrink:false cfg in
  let shrunk = Config.run ~shrink:true cfg in
  match (raw.Explorer.violation, shrunk.Explorer.violation) with
  | Some r, Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "ddmin does not grow the schedule (%d <= %d)"
         (List.length s.Explorer.choices)
         (List.length r.Explorer.choices))
      true
      (List.length s.Explorer.choices <= List.length r.Explorer.choices);
    Alcotest.(check bool) "ddmin does not grow the flips" true
      (List.length s.Explorer.flips <= List.length r.Explorer.flips)
  | _ -> Alcotest.fail "violation missing"

let test_witness_json_roundtrip () =
  let cfg, w = find_violation "reg-safe" in
  let module C = Bprc_faults.Counterexample in
  let saved = Config.counterexample cfg w in
  match C.of_string (C.to_string saved) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok c ->
    Alcotest.(check bool) "roundtrip preserves witness" true (saved = c);
    Alcotest.(check string) "names its registry" "check"
      (C.registry_name c.registry);
    (* The reloaded schedule still reproduces the violation. *)
    (match
       Config.replay cfg
         { w with Explorer.choices = c.choices; flips = c.flips }
     with
    | Explorer.Fail f, clock ->
      Alcotest.(check string) "same failure" w.failure f;
      Alcotest.(check int) "same clock" w.clock clock
    | _ -> Alcotest.fail "reloaded witness no longer fails")

(* [snapshot-unsafe] names both a check configuration and a hunt
   scenario: the counterexample's registry says which one replays it. *)
let test_counterexample_names_registry () =
  let cfg, w = find_violation "snapshot-unsafe" in
  let c = Config.counterexample cfg w in
  Alcotest.(check bool) "also a hunt scenario" true
    (Bprc_faults.Scenario.find c.name <> None);
  Alcotest.(check string) "written by check" "check"
    (Bprc_faults.Counterexample.registry_name c.registry);
  Alcotest.check_raises "not replayable as a hunt script"
    (Invalid_argument "Hunt.replay_script: not a hunt counterexample")
    (fun () ->
      ignore
        (Bprc_faults.Hunt.replay_script ~scenario:Bprc_faults.Scenario.snapshot_unsafe
           c))

(* State a configuration keeps per arena (functor applications, checker
   scratch) lives in the arena: once the caller drops an arena it ran
   [setup] on, a full major collection frees it. *)
let test_setup_keeps_no_arena () =
  let module Sim = Bprc_runtime.Sim in
  List.iter
    (fun name ->
      let cfg = get_config name in
      let arena = Stdlib.Weak.create 1 in
      let run () =
        let sim =
          Sim.create ~max_steps:cfg.Config.max_steps ~n:cfg.Config.n
            ~adversary:(Bprc_runtime.Adversary.round_robin ()) ()
        in
        let check = cfg.Config.setup sim in
        ignore (Sim.run sim);
        ignore (check ());
        Stdlib.Weak.set arena 0 (Some sim)
      in
      (Sys.opaque_identity run) ();
      Gc.full_major ();
      Alcotest.(check bool) (name ^ ": arena collected") false
        (Stdlib.Weak.check arena 0))
    [ "snapshot-atomic"; "consensus-2p" ]

(* ------------------------------------------------------------------ *)
(* Property: random atomic-register histories are always linearizable  *)
(* ------------------------------------------------------------------ *)

let test_random_histories_linearizable () =
  (* Random schedules over an atomic register with 3 processes; every
     recorded history must pass the checker (soundness smoke for the
     history recorder + Wing–Gong search). *)
  let module Sim = Bprc_runtime.Sim in
  let module Adversary = Bprc_runtime.Adversary in
  for seed = 1 to 50 do
    let sim = Sim.create ~seed ~n:3 ~adversary:(Adversary.random ()) () in
    let (module R) = Sim.runtime sim in
    let r = R.make_reg ~name:"x" 0 in
    let h : Specs.reg_op Hist.t = Hist.create () in
    for i = 0 to 2 do
      ignore
        (Sim.spawn sim (fun () ->
             for k = 1 to 3 do
               let v = (10 * i) + k in
               let s = Hist.stamp h in
               R.write r v;
               let f = Hist.stamp h in
               Hist.record h ~pid:i ~start_time:s ~finish_time:f
                 (Specs.Write v);
               let s = Hist.stamp h in
               let got = R.read r in
               let f = Hist.stamp h in
               Hist.record h ~pid:i ~start_time:s ~finish_time:f
                 (Specs.Read got)
             done))
    done;
    (match Sim.run sim with
    | Sim.Completed -> ()
    | Sim.Hit_step_limit -> Alcotest.failf "seed %d: step limit" seed);
    if not (reg_verdict (Hist.events h)) then
      Alcotest.failf "seed %d: atomic register history rejected" seed
  done

(* ------------------------------------------------------------------ *)
(* Bounded corner search over the full protocol stays clean            *)
(* ------------------------------------------------------------------ *)

let test_consensus_corner_search () =
  let cfg = get_config "consensus-2p" in
  let stats = Config.run ~max_runs:500 cfg in
  Alcotest.(check bool) "no violation in explored corner" true
    (stats.Explorer.violation = None);
  Alcotest.(check int) "bound respected" 500 stats.Explorer.runs;
  Alcotest.(check bool) "tree too large to exhaust" false
    stats.Explorer.exhausted

(* ------------------------------------------------------------------ *)
(* Differential: Explorer reproduces the frozen Explorer_ref           *)
(* ------------------------------------------------------------------ *)

(* A skewed two-process tree: p0 going first kills the branching
   instantly (it reads the flag's initial 0 and exits), while p1 going
   first opens ~C(12,5) interleavings of the two write loops, so nearly
   all runs sit under one deep prefix and backtracks keep landing deep
   inside it. *)
let skewed_setup sim =
  let module Sim = Bprc_runtime.Sim in
  let (module R) = Sim.runtime sim in
  let flag = R.make_reg ~name:"flag" 0 in
  let a = R.make_reg ~name:"a" 0 in
  let b = R.make_reg ~name:"b" 0 in
  ignore
    (Sim.spawn sim (fun () ->
         if R.read flag = 1 then
           for k = 1 to 12 do
             R.write a k
           done));
  ignore
    (Sim.spawn sim (fun () ->
         R.write flag 1;
         for k = 1 to 4 do
           R.write b k
         done));
  fun () -> Ok ()

(* Explorer reproduces the frozen Explorer_ref's full report — stats
   totals, the exhausted flag, and the (shrunk) witness — on every
   registry configuration and on the skewed tree.  [max_runs] keeps the
   unbounded consensus trees finite, and the smaller bounds stop the DFS
   inside most trees, exercising the bounded-stop path. *)
let test_matches_explorer_ref () =
  let check_eq ~label ~n ~max_steps ~max_runs ~reduction ~setup =
    let reference =
      Explorer_ref.explore ~n ~max_steps ~max_runs ~reduction ~setup ()
    in
    let stats = Explorer.explore ~n ~max_steps ~max_runs ~reduction ~setup () in
    Alcotest.(check int) (label ^ ": runs") reference.Explorer_ref.runs
      stats.Explorer.runs;
    Alcotest.(check int)
      (label ^ ": pruned")
      reference.Explorer_ref.pruned stats.Explorer.pruned;
    Alcotest.(check int)
      (label ^ ": step_limited")
      reference.Explorer_ref.step_limited stats.Explorer.step_limited;
    Alcotest.(check bool)
      (label ^ ": exhausted")
      reference.Explorer_ref.exhausted stats.Explorer.exhausted;
    (match (reference.Explorer_ref.violation, stats.Explorer.violation) with
    | None, None -> ()
    | Some r, Some w ->
      Alcotest.(check (list int))
        (label ^ ": witness choices")
        r.Explorer_ref.choices w.Explorer.choices;
      Alcotest.(check (list bool))
        (label ^ ": witness flips")
        r.Explorer_ref.flips w.Explorer.flips;
      Alcotest.(check string)
        (label ^ ": witness failure")
        r.Explorer_ref.failure w.Explorer.failure;
      Alcotest.(check int)
        (label ^ ": witness clock")
        r.Explorer_ref.clock w.Explorer.clock
    | Some _, None -> Alcotest.failf "%s: witness lost" label
    | None, Some _ -> Alcotest.failf "%s: spurious witness" label);
    stats
  in
  List.iter
    (fun (cfg, max_runs) ->
      ignore
        (check_eq
           ~label:(Printf.sprintf "%s max_runs=%d" cfg.Config.name max_runs)
           ~n:cfg.Config.n ~max_steps:cfg.Config.max_steps ~max_runs
           ~reduction:cfg.Config.reduction ~setup:cfg.Config.setup))
    (List.concat_map
       (fun cfg -> List.map (fun mr -> (cfg, mr)) [ 1; 7; 123; 1000; 1500 ])
       Config.all);
  let skewed =
    check_eq ~label:"skewed" ~n:2 ~max_steps:256 ~max_runs:200_000
      ~reduction:false ~setup:skewed_setup
  in
  Alcotest.(check bool) "skewed tree exhausted" true skewed.Explorer.exhausted

let suite =
  [
    Alcotest.test_case "lin: empty" `Quick test_lin_empty;
    Alcotest.test_case "lin: sequential" `Quick test_lin_sequential;
    Alcotest.test_case "lin: concurrent legal" `Quick test_lin_concurrent_legal;
    Alcotest.test_case "lin: precedence violation" `Quick
      test_lin_precedence_violation;
    Alcotest.test_case "lin: new-old inversion" `Quick
      test_lin_new_old_inversion;
    Alcotest.test_case "lin: event cap" `Quick test_lin_event_cap;
    Alcotest.test_case "lin: snapshot spec" `Quick test_lin_snapshot_spec;
    Alcotest.test_case "lin: consensus spec" `Quick test_lin_consensus_spec;
    Alcotest.test_case "registry: expected configs" `Quick test_registry_names;
    Alcotest.test_case "explore: reg-atomic exhaustive" `Quick
      test_atomic_register_exhaustive;
    Alcotest.test_case "explore: snapshot-atomic exhaustive" `Quick
      test_snapshot_atomic_exhaustive;
    Alcotest.test_case "explore: reduction sound + effective" `Quick
      test_reduction_sound_and_effective;
    Alcotest.test_case "explore: weakened configs fail + replay" `Quick
      test_weakened_configs_fail_and_replay;
    Alcotest.test_case "explore: witness 1-minimal" `Quick
      test_witness_is_minimal;
    Alcotest.test_case "explore: deterministic" `Quick
      test_exploration_deterministic;
    Alcotest.test_case "explore: ddmin shrinks" `Quick test_shrink_shrinks;
    Alcotest.test_case "witness: json roundtrip" `Quick
      test_witness_json_roundtrip;
    Alcotest.test_case "counterexample: names its registry" `Quick
      test_counterexample_names_registry;
    Alcotest.test_case "config: setup keeps no arena alive" `Quick
      test_setup_keeps_no_arena;
    Alcotest.test_case "lin: random atomic histories" `Quick
      test_random_histories_linearizable;
    Alcotest.test_case "explore: consensus corner search" `Quick
      test_consensus_corner_search;
    Alcotest.test_case "explore: matches Explorer_ref" `Quick
      test_matches_explorer_ref;
  ]
