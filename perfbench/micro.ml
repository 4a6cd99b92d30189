(* Isolated per-function loops: the cost of one call into a layer's
   entry point, with nothing else on top.  Each loop runs in batches
   for its time budget and reports the median batch's ns per call. *)

module Sim = Bprc_runtime.Sim
module Adversary = Bprc_runtime.Adversary
module Splitmix = Bprc_rng.Splitmix
module Ec = Bprc_strip.Edge_counters
module Dg = Bprc_strip.Distance_graph

(* [batch ()] performs some calls and returns how many. *)
let ns_per_call ~budget_s batch =
  ignore (batch ());
  let samples = Common.Samples.create () in
  let t_end = Common.now_s () +. budget_s in
  while Common.now_s () < t_end || Common.Samples.length samples < 5 do
    let t0 = Common.now_ns () in
    let calls = batch () in
    let dt = Common.now_ns () - t0 in
    Common.Samples.add samples (float_of_int dt /. float_of_int calls)
  done;
  Common.median (Common.Samples.to_array samples)

(* ---- the clock the traced wrappers stamp with ------------------------- *)

let clock_ns ~budget_s =
  let acc = ref 0 in
  let ns =
    ns_per_call ~budget_s (fun () ->
        for _ = 1 to 100_000 do
          acc := !acc lxor Common.now_ns ()
        done;
        100_000)
  in
  ignore (Sys.opaque_identity !acc);
  ns

(* ---- runtime: one simulator step ---------------------------------------- *)

(* [n] processes writing and reading private registers under the random
   adversary the workloads use: a step is effect suspension, the
   adversary's draw and the resume. *)
let step_ns ~budget_s ~n =
  let iters = max 1 (100_000 / n) in
  let sim =
    Sim.create ~seed:1 ~max_steps:max_int ~n ~adversary:(Adversary.random ()) ()
  in
  ns_per_call ~budget_s (fun () ->
      Sim.reset ~seed:1 sim;
      let (module R) = Sim.runtime sim in
      for i = 0 to n - 1 do
        let r = R.make_reg i in
        ignore
          (Sim.spawn sim (fun () ->
               for k = 1 to iters do
                 R.write r k;
                 ignore (R.read r)
               done))
      done;
      ignore (Sim.run sim);
      Sim.clock sim)

(* ---- rng: one scheduler draw ------------------------------------------- *)

let draw_ns ~budget_s =
  let rng = Splitmix.create ~seed:7 in
  let acc = ref 0 in
  let ns =
    ns_per_call ~budget_s (fun () ->
        for _ = 1 to 100_000 do
          acc := !acc + Splitmix.int rng 4
        done;
        100_000)
  in
  ignore (Sys.opaque_identity !acc);
  ns

(* ---- snapshot: one uncontended scan ------------------------------------ *)

(* A runtime with no scheduler: registers are plain cells and the
   caller is process 0.  A scan over it costs the snapshot's own code
   and its register accesses, no simulator step. *)
module Direct (N : sig
  val n : int
end) : Bprc_runtime.Runtime_intf.S = struct
  type 'a reg = 'a ref

  let clock = ref 0
  let make_reg ?name:_ v = ref v

  let read r =
    incr clock;
    !r

  let write r v =
    incr clock;
    r := v

  let peek r = !r
  let poke r v = r := v
  let flip () = false
  let pid () = 0
  let n = N.n
  let now () = !clock
  let yield () = incr clock
end

let scan_ns ~budget_s ~n (module S : Bprc_snapshot.Snapshot_intf.S) =
  let mem = S.create ~init:0 () in
  S.write mem 1;
  let view = Array.make n 0 in
  let calls = 1000 in
  ns_per_call ~budget_s (fun () ->
      for _ = 1 to calls do
        S.scan_into mem view
      done;
      calls)

let handshake_scan_ns ~budget_s ~n =
  let module R = Direct (struct
    let n = n
  end) in
  scan_ns ~budget_s ~n (module Bprc_snapshot.Handshake.Make (R))

let embedded_scan_ns ~budget_s ~n =
  let module R = Direct (struct
    let n = n
  end) in
  scan_ns ~budget_s ~n (module Bprc_snapshot.Embedded.Make (R))

(* ---- strip: one decode ------------------------------------------------- *)

(* The protocol's per-scan decode: mod-3K counters to the distance
   graph, its position reconstruction and the leader set, over counter
   states reached by seeded [apply_inc] walks. *)
let decode_ns ~budget_s ~n =
  let k = Bprc_core.Params.default.Bprc_core.Params.k in
  let rng = Splitmix.create ~seed:(0xDEC + n) in
  let states =
    Array.init 16 (fun _ ->
        let e = Ec.create ~k ~n in
        for _ = 1 to 4 * n do
          Ec.apply_inc e (Splitmix.int rng n)
        done;
        e)
  in
  let g = Dg.create_scratch ~k ~n in
  let leaders = Array.make n 0 in
  let acc = ref 0 in
  (* Batches of a few milliseconds at every n: decoding is O(n^2). *)
  let rounds = max 1 (512 / n) in
  let ns =
    ns_per_call ~budget_s (fun () ->
        for r = 1 to rounds do
          Array.iter
            (fun e ->
              Ec.to_graph_into e g;
              if Dg.reconstruct_into g then incr acc;
              acc := !acc + Dg.leaders_into g leaders + r)
            states
        done;
        rounds * Array.length states)
  in
  ignore (Sys.opaque_identity !acc);
  ns

(* ---- service: engine cost per instance --------------------------------- *)

(* One-process instances decide in a handful of steps, so a closed loop
   over them measures the engine's own per-instance path: admission,
   ticketing, batch dispatch over the pool, arena reset, delivery. *)
let engine_overhead_us ~budget_s =
  let module E = Bprc_service.Engine in
  let pool = Bprc_harness.Pool.create ~workers:2 () in
  let engine = E.create ~mode:E.Throughput ~in_flight_cap:256 ~pool () in
  let spec = Bprc_service.Workload.spec ~n:1 () in
  let ns =
    ns_per_call ~budget_s (fun () ->
        let calls = 2048 in
        let submitted = ref 0 in
        while !submitted < calls do
          match E.submit engine spec with
          | `Accepted _ -> incr submitted
          | `Overloaded -> ignore (E.next_decided engine)
        done;
        ignore (E.drain engine);
        calls)
  in
  E.shutdown engine;
  Bprc_harness.Pool.shutdown pool;
  ns /. 1000.0
