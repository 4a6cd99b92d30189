(* One consensus instance, run either through the program's own entry
   point ([Run.consensus_once ~sim], the untraced path every end-to-end
   number comes from) or through the traced wrappers.  The traced path
   rebuilds exactly what [consensus_once] builds — the same arena reset,
   adversary, inputs, oracle seed and functor stack, with the tracing
   layers slotted in — so both paths must produce the same steps and
   decisions; the workloads check that they do. *)

module Sim = Bprc_runtime.Sim
module Adversary = Bprc_runtime.Adversary
module Run = Bprc_harness.Run
module Ads89 = Bprc_core.Ads89

type stack =
  | Handshake_walk  (** [Run.Ads Shared_walk]: the paper's configuration *)
  | Embedded_oracle  (** [Run.Ads_esnap Oracle_shared]: the large-n one *)

let algo = function
  | Handshake_walk -> Run.Ads Ads89.Shared_walk
  | Embedded_oracle -> Run.Ads_esnap Ads89.Oracle_shared

let coin_mode = function
  | Handshake_walk -> Ads89.Shared_walk
  | Embedded_oracle -> Ads89.Oracle_shared

(* Step bounds of the paper configuration, about ten times the longest
   decision seen in thousands of seeded instances at each n (n=4: 18.7k
   steps over 20,000 instances; n=8: 201k over 3,000; n=16: 1.27M over
   300).  An instance that reaches its bound has livelocked; a tight
   bound keeps one from eating seconds of a timed run. *)
let decide_bounds = [ (4, 200_000); (8, 2_000_000); (16, 12_000_000) ]

type outcome = {
  completed : bool;
  steps : int;
  decisions : bool option array;
  spec : (unit, string) result;
  rounds : int;
  walk_steps : int;
  scans : int;  (** protocol scans, from the protocol's own stats *)
}

(* Some instances never return.  [Run.Ads_esnap Oracle_shared] at n=64,
   seed 582612097 (the sixteenth instance of large-n's seed-110 list)
   ran for minutes without reaching its 1.5M-step bound: it loops
   somewhere that takes no simulator step.  So every instance runs
   against a wall-clock deadline of 1 µs per step of its bound (at
   least 1 s), several times what any returning instance needs; a
   periodic alarm raises [Hung] inside the instance once the deadline
   has passed, and the instance counts as failed.  The exception
   leaves the arena mid-run; [Sim.reset] at the next instance starts
   it afresh. *)
exception Hung

let deadline = ref infinity
let hangs = ref 0

let alarm_armed =
  lazy
    (Sys.set_signal Sys.sigalrm
       (Sys.Signal_handle
          (fun _ ->
            if Common.now_s () > !deadline then begin
              deadline := infinity;
              raise Hung
            end));
     ignore
       (Unix.setitimer Unix.ITIMER_REAL
          { Unix.it_interval = 0.25; it_value = 0.25 }))

let hung ~sim ~n =
  {
    completed = false;
    steps = Sim.clock sim;
    decisions = Array.make n None;
    spec = Error "hung: no return before the deadline";
    rounds = 0;
    walk_steps = 0;
    scans = 0;
  }

let guarded ~max_steps ~sim ~n f =
  Lazy.force alarm_armed;
  deadline := Common.now_s () +. Float.max 1.0 (float_of_int max_steps *. 1e-6);
  match f () with
  | o ->
    deadline := infinity;
    o
  | exception Hung ->
    incr hangs;
    hung ~sim ~n

let plain stack ~max_steps sim ~n ~seed =
  guarded ~max_steps ~sim ~n (fun () ->
      let r =
        Run.consensus_once ~sim ~max_steps ~algo:(algo stack)
          ~pattern:Run.Random_inputs ~n ~seed ()
      in
      {
        completed = r.Run.completed;
        steps = r.Run.steps;
        decisions = r.Run.decisions;
        spec = r.Run.spec;
        rounds = r.Run.max_round;
        walk_steps = r.Run.walk_steps;
        scans = 0;
      })

(* Wall-clock split of one traced instance, in ns. *)
type traced_times = {
  mutable setup_ns : int;  (** arena reset + create + spawn *)
  mutable run_ns : int;  (** first step to last *)
  mutable retries : int;  (** snapshot scan restarts *)
}

let times = { setup_ns = 0; run_ns = 0; retries = 0 }

let traced stack sim ~n ~seed =
  guarded ~max_steps:(Sim.max_steps sim) ~sim ~n @@ fun () ->
  let t0 = Common.now_ns () in
  Sim.reset ~seed ~adversary:(Adversary.random ()) sim;
  let module R = (val Sim.runtime sim) in
  let module TR = Tracing.Runtime (R) in
  let (module C : Bprc_core.Consensus_intf.S) =
    match stack with
    | Handshake_walk ->
      (module Ads89.Make_over_snapshot (TR)
                (Tracing.Snapshot (TR) (Bprc_snapshot.Handshake.Make (TR))))
    | Embedded_oracle ->
      (module Ads89.Make_over_snapshot (TR)
                (Tracing.Snapshot (TR) (Bprc_snapshot.Embedded.Make (TR))))
  in
  let inputs = Run.inputs_of_pattern Run.Random_inputs ~n ~seed in
  let t =
    C.create ~params:Bprc_core.Params.default ~coin_mode:(coin_mode stack)
      ~oracle_seed:seed ()
  in
  let handles =
    Array.init n (fun i ->
        Sim.spawn sim (fun () ->
            Tracing.fiber_start i;
            let v = C.run t ~input:inputs.(i) in
            Tracing.fiber_end i;
            v))
  in
  let t1 = Common.now_ns () in
  let completed = Sim.run sim = Sim.Completed in
  let t2 = Common.now_ns () in
  times.setup_ns <- times.setup_ns + (t1 - t0);
  times.run_ns <- times.run_ns + (t2 - t1);
  times.retries <- times.retries + !Tracing.retries ();
  let decisions = Array.map Sim.result handles in
  let st = C.stats t in
  {
    completed;
    steps = Sim.clock sim;
    decisions;
    spec = Bprc_core.Spec.check ~inputs ~decisions;
    rounds = st.Ads89.max_raw_round;
    walk_steps = st.Ads89.walk_steps;
    scans = st.Ads89.scans;
  }
