(* The [explore] workload: the schedule explorer on two pinned registry
   configurations, with no pool.  Its inputs do not depend on the seed:
   the configurations are fixed programs and the explorer is
   deterministic, so every pass must reproduce the pinned counters. *)

module Sim = Bprc_runtime.Sim
module Config = Bprc_check.Config
module Explorer = Bprc_check.Explorer

type item = {
  name : string;
  reduction : bool;
  max_runs : int option;
  pin : string;  (** runs/pruned/step_limited/exhausted/violation *)
}

let items =
  [
    (* The unreduced tree: every interleaving of two update+scan
       programs over the handshake snapshot. *)
    {
      name = "snapshot-atomic";
      reduction = false;
      max_runs = None;
      pin = "30448/0/0/true/none";
    };
    (* A bounded corner of the real protocol's schedule space, with
       sleep-set reduction. *)
    {
      name = "consensus-2p";
      reduction = true;
      max_runs = Some 20_000;
      pin = "20000/15994/0/false/none";
    };
  ]

let find name =
  match Config.find name with
  | Some c -> c
  | None -> raise (Common.Gate ("missing registry config " ^ name))

let explore ?(setup = fun (c : Config.t) -> c.setup) ?max_runs (c : Config.t)
    ~reduction =
  Explorer.explore ~n:c.n ~max_steps:c.max_steps ~reduction ?max_runs
    ~setup:(setup c) ()

let verdict (s : Explorer.stats) =
  Printf.sprintf "%d/%d/%d/%b/%s" s.runs s.pruned s.step_limited s.exhausted
    (match s.violation with None -> "none" | Some w -> w.failure)

(* Config lookup plus a short warm-up exploration with pinned counters. *)
let setup () =
  let configs = List.map (fun it -> (it, find it.name)) items in
  let warm =
    explore ~max_runs:2000 (find "snapshot-atomic") ~reduction:false
  in
  Common.check_pin "explore-warmup" ~got:(verdict warm)
    ~default:"2000/0/0/false/none";
  (configs, ignore)

(* One pass: every configuration explored once, each checked against
   its pin.  [times.(j)] collects configuration [j]'s scaled times.
   Returns the pass's runs and pruned runs. *)
let one_pass ?setup configs ~times =
  let runs = ref 0 and pruned = ref 0 in
  List.iteri
    (fun j (it, c) ->
      let (s : Explorer.stats), dt =
        Common.time_s (fun () ->
            explore ?setup ?max_runs:it.max_runs c ~reduction:it.reduction)
      in
      Common.Samples.add times.(j) (Common.Host.scale dt);
      Common.check_pin it.name ~got:(verdict s) ~default:it.pin;
      runs := !runs + s.runs;
      pruned := !pruned + s.pruned)
    configs;
  (!runs, !pruned)

type totals = {
  passes : int;
  runs : int;  (** per pass *)
  pruned : int;  (** per pass *)
  typical : float array;  (** per configuration, median seconds *)
  minor_words : float;  (** inside the passes *)
  minor_collections : int;
  major_collections : int;
}

(* Passes until [stop passes elapsed] holds.  Every pass does the same
   work; each configuration's time is the median of its scaled times
   ([Common.Host]), so one slow pass moves nothing. *)
let passes ?setup ?(between = ignore) configs ~stop =
  let times = Array.init (List.length configs) (fun _ -> Common.Samples.create ()) in
  let count = ref 0 and runs = ref 0 and pruned = ref 0 in
  let words = ref 0.0 in
  let gc0 = Gc.quick_stat () in
  let t_start = Common.now_s () in
  while not (stop !count (Common.now_s () -. t_start)) do
    let (r, p), w =
      Common.minor_words_of (fun () -> one_pass ?setup configs ~times)
    in
    words := !words +. w;
    between ();
    runs := r;
    pruned := p;
    incr count
  done;
  let gc1 = Gc.quick_stat () in
  {
    passes = !count;
    runs = !runs;
    pruned = !pruned;
    typical =
      Array.map (fun x -> Common.median (Common.Samples.to_array x)) times;
    minor_words = !words;
    minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

let sum = Array.fold_left ( +. ) 0.0

(* The explorer's per-arena functor caches ([Config.handshake_for],
   [Config.ads89_for]) keep every arena it has made: each pass adds
   about 0.07 MB to the major heap and a few cells to the list every
   run's set-up searches.  So a run makes a fixed number of passes,
   sized to take [seconds] at the nominal host speed ([Common.Host]; a
   pass takes about [pass_s] there), not as many as the time allows:
   the heap and the pass times then cover the same work in every run,
   whatever the host's speed. *)
let pass_s = 0.41
let passes_for ~seconds = max 2 (int_of_float (Float.round (seconds /. pass_s)))

let end_to_end (a : Common.args) =
  let configs, _ = Common.timed_setup setup in
  let t =
    passes configs
      ~between:(fun () -> Common.resample_setup setup)
      ~stop:(fun count _ -> count >= passes_for ~seconds:a.seconds)
  in
  Common.info "passes=%d runs/pass=%d host=%.3f" t.passes t.runs
    (Common.Host.mean_factor ());
  let pass_s = sum t.typical in
  ( t.runs,
    0,
    [
      Common.m "setup_s" "s" (Common.setup_s ());
      Common.m "instances_per_s" "1/s" (float_of_int (List.length items) /. pass_s);
      Common.m "runs_per_s" "1/s" (float_of_int t.runs /. pass_s);
      Common.m "latency_p50_ms" "ms" (1000.0 *. Common.quantile 0.5 t.typical);
      Common.m "latency_p99_ms" "ms" (1000.0 *. Common.quantile 0.99 t.typical);
      Common.m "minor_words_per_op" "words" (t.minor_words /. float_of_int (t.passes * t.runs));
      Common.m "peak_heap_mb" "MB" (Common.peak_heap_mb ());
    ] )

(* Wrapped [Config.setup]: times the setup call and the check closure it
   returns, and reads the replayed run's clock when the check starts. *)
type wrap = {
  mutable setups : int;
  mutable setup_ns : int;
  mutable checks : int;
  mutable verify_ns : int;
  mutable clock_sum : int;
}

let w = { setups = 0; setup_ns = 0; checks = 0; verify_ns = 0; clock_sum = 0 }

let wrapped (c : Config.t) sim =
  let t0 = Common.now_ns () in
  let check = c.setup sim in
  w.setup_ns <- w.setup_ns + (Common.now_ns () - t0);
  w.setups <- w.setups + 1;
  fun () ->
    w.clock_sum <- w.clock_sum + Sim.clock sim;
    let t1 = Common.now_ns () in
    let r = check () in
    w.verify_ns <- w.verify_ns + (Common.now_ns () - t1);
    w.checks <- w.checks + 1;
    r

let traced (a : Common.args) =
  let configs, _ = Common.timed_setup setup in
  let count = max 1 (int_of_float (a.seconds *. 0.25 /. 0.6)) in
  let stop c _ = c >= count in
  let r0, _ = Explorer.ladder_counters () in
  let u = passes configs ~stop in
  let r1, _ = Explorer.ladder_counters () in
  let t = passes ~setup:wrapped configs ~stop in
  let micro = Layers.micro ~budget_s:(a.seconds *. 0.1) in
  let runs = float_of_int (u.passes * u.runs) in
  let values =
    [
      ("check.runs", float_of_int u.runs);
      ("check.pruned_frac", Common.fratio u.pruned u.runs);
      ("check.replay_steps_per_run", Common.fratio w.clock_sum w.checks);
      ("check.setup_ns_per_run", Common.fratio w.setup_ns w.setups);
      ("check.verify_ns_per_run", Common.fratio w.verify_ns w.checks);
      ("check.ladder_resumes_per_run", float_of_int (r1 - r0) /. runs);
      ("gc.minor_collections_per_op", float_of_int u.minor_collections /. runs);
      ("gc.major_collections", float_of_int u.major_collections);
      ("trace.overhead_frac", (sum t.typical /. sum u.typical) -. 1.0);
    ]
  in
  (u.runs, 0, Layers.metrics (values @ micro))
