(* The [serve] workload: the decision engine in Throughput mode over a
   pool of [workers] domains, fed a seeded mix of mostly n=4 and some
   n=8 instances.  It is not among BENCHMARK.json's workloads: on a
   2-vCPU host its figures did not hold still (see README.md), but it
   runs by name, traced or not, for work on the service layer.

   Saturation: a closed loop keeps the in-flight window full over a
   fixed list of instances; it gives [instances_per_s].  Open loop:
   arrivals come on a seeded Poisson schedule at a fixed offered rate,
   and each instance's latency runs from its due time to its delivery
   by [next_decided]; a refused or failed instance counts as infinitely
   late.

   Each phase is replayed on a fresh engine with the same seed, so
   every replay decides the same instances in the same order: the rate
   is the fastest replay's, and each arrival's latency is its lowest
   over the replays. *)

module E = Bprc_service.Engine
module W = Bprc_service.Workload
module Pool = Bprc_harness.Pool
module Splitmix = Bprc_rng.Splitmix

let workers = 2
let in_flight_cap = 1024
let batch = 32

(* A fixed offered rate, never derived at run time, so a faster engine
   shows up as lower latency at the same load. *)
let offered_per_s = 250.0

(* Tighter step bounds than [decide]'s (about four and two times the
   longest decision seen in thousands of seeded n=4 and n=8 instances):
   a livelocked instance holds its whole dispatch batch, so the bound
   caps how long one can stall the engine. *)
let bounds = [ (4, 50_000); (8, 300_000) ]
let spec n = W.spec ~max_steps:(List.assoc n bounds) ~n ()
let mix () = [ (3, spec 4); (1, spec 8) ]

(* Phase sizes: the saturation list is about [sat_share] of the run at
   [nominal_per_s], and each open-loop replay lasts [open_share] of it.
   Each phase is replayed [replays] times. *)
let replays = 3
let nominal_per_s = 1000.0
let sat_share = 0.08
let open_share = 0.22

(* The decided record's fields that do not depend on timing. *)
let add_pure buf (d : E.decided) =
  Buffer.add_int64_le buf (Int64.of_int d.ticket);
  Buffer.add_int64_le buf (Int64.of_int d.rounds);
  Common.add_outcome buf ~n:(Array.length d.decisions) ~seed:0 ~steps:d.steps
    d.decisions;
  Buffer.add_char buf (if d.completed then 'c' else 'i');
  match d.spec_check with
  | Ok () -> Buffer.add_char buf 'k'
  | Error e -> Buffer.add_string buf e

(* Deterministic-mode digest of [specs], run on [pool]. *)
let deterministic_digest pool ~seed specs =
  let e =
    E.create ~mode:E.Deterministic ~seed
      ~in_flight_cap:(max 1 (Array.length specs)) ~batch ~pool ()
  in
  Array.iter (fun s -> ignore (E.submit e s)) specs;
  let buf = Buffer.create 4096 in
  List.iter (add_pure buf) (E.drain e);
  E.shutdown e;
  Common.md5 (Buffer.contents buf)

(* A fixed 32-instance stream whose Deterministic-mode digest is pinned. *)
let canary_seed = 0xCA7
let canary_pin = "d2e62951611bd247d3a3a3116f52cb34"

(* Tickets of the saturation list whose Throughput-mode records must
   match Deterministic mode. *)
let reference = 256

type state = {
  pool : Pool.t;
  seed : int;  (** saturation engines' seed *)
  open_seed : int;  (** open-loop engines' seed *)
  sat_specs : W.spec array;
  open_specs : W.spec array;  (** one per arrival *)
  arrivals : float array;  (** open-loop due offsets, seconds *)
}

let engine st ~seed =
  E.create ~mode:E.Throughput ~seed ~in_flight_cap ~batch
    ~lat_capacity:(max 1 (Array.length st.open_specs)) ~pool:st.pool ()

(* Pool (helper domain started), the pinned canary, the seeded spec
   lists and the open-loop schedule. *)
let setup ~seed ~seconds () =
  let pool = Pool.create ~workers () in
  ignore (Pool.map pool workers Fun.id);
  let canary =
    Array.of_list
      (W.weighted ~rng:(Splitmix.create ~seed:canary_seed) ~count:32 (mix ()))
  in
  Common.check_pin "canary"
    ~got:(deterministic_digest pool ~seed:canary_seed canary)
    ~default:canary_pin;
  let rng = Splitmix.create ~seed in
  let stream rng count = Array.of_list (W.weighted ~rng ~count (mix ())) in
  let sat_count =
    max reference (int_of_float (nominal_per_s *. sat_share *. seconds))
  in
  let k = max 1 (int_of_float (offered_per_s *. open_share *. seconds)) in
  let gaps = Splitmix.fork rng 1 in
  let arrivals = Array.make k 0.0 in
  for i = 1 to k - 1 do
    arrivals.(i) <-
      arrivals.(i - 1) -. (log1p (-.Splitmix.float gaps) /. offered_per_s)
  done;
  let st =
    {
      pool;
      seed;
      open_seed = Common.item_seed ~seed 2;
      sat_specs = stream rng sat_count;
      open_specs = stream (Splitmix.fork rng 3) k;
      arrivals;
    }
  in
  (st, fun () -> Pool.shutdown pool)

(* ---- timed engine calls (the traced run) --------------------------------- *)

(* The engine's queues are observed from outside: a [next_decided] call
   made with no decided record waiting dispatches the oldest
   [min batch pending] admitted instances, so the caller can tell which
   instances each dispatch ran and when it started. *)
type probe = {
  submit_at : (int, float) Hashtbl.t;  (** ticket -> submit time *)
  mutable ready : int;  (** decided, undelivered *)
  mutable next_dispatch : int;  (** oldest undispatched ticket *)
  queue_wait : Common.Samples.t;
  dispatch : Common.Samples.t;
  batches : Common.Samples.t;
}

let probe () =
  {
    submit_at = Hashtbl.create 4096;
    ready = 0;
    next_dispatch = 0;
    queue_wait = Common.Samples.create ();
    dispatch = Common.Samples.create ();
    batches = Common.Samples.create ();
  }

let submit ?probe e spec =
  let r = E.submit e spec in
  (match (probe, r) with
  | Some p, `Accepted tk -> Hashtbl.replace p.submit_at tk (Common.now_s ())
  | _ -> ());
  r

let next_decided ?probe e =
  match probe with
  | None -> E.next_decided e
  | Some p ->
    let pending = E.in_flight e - p.ready in
    let t0 = Common.now_s () in
    let d = E.next_decided e in
    let t1 = Common.now_s () in
    if p.ready = 0 && pending > 0 then begin
      let k = min batch pending in
      for tk = p.next_dispatch to p.next_dispatch + k - 1 do
        Common.Samples.add p.queue_wait (t0 -. Hashtbl.find p.submit_at tk);
        Hashtbl.remove p.submit_at tk
      done;
      p.next_dispatch <- p.next_dispatch + k;
      Common.Samples.add p.dispatch (t1 -. t0);
      Common.Samples.add p.batches (float_of_int k);
      p.ready <- k - 1
    end
    else p.ready <- p.ready - 1;
    d

(* ---- phases --------------------------------------------------------------- *)

let instance_failed (d : E.decided) =
  (not d.completed) || Result.is_error d.spec_check

let report_failure (d : E.decided) =
  Common.info "failed: ticket=%d completed=%b spec=%s" d.ticket d.completed
    (match d.spec_check with Ok () -> "ok" | Error e -> e)

let words st = Gc.minor_words () +. Pool.helper_minor_words st.pool

type saturation = {
  wall_s : float;
  failed : int;
  words_per_op : float;  (** driving domain and helpers *)
  digest : string;  (** pure fields of every decided record *)
  head : string;  (** the same, first [reference] tickets only *)
  minor_collections : int;
  major_collections : int;
}

(* One closed-loop replay of the saturation list on a fresh engine:
   submit until the window is full, then take one decision per refused
   submission, then drain. *)
let saturate ?probe st =
  let e = engine st ~seed:st.seed in
  let buf = Buffer.create 65536 in
  let head = ref "" and failed = ref 0 in
  let take (d : E.decided) =
    if instance_failed d then begin
      report_failure d;
      incr failed
    end;
    add_pure buf d;
    if d.ticket = reference - 1 then head := Buffer.contents buf
  in
  let gc0 = Gc.quick_stat () and w0 = words st in
  let t0 = Common.now_s () in
  Array.iter
    (fun spec ->
      let rec offer () =
        match submit ?probe e spec with
        | `Accepted _ -> ()
        | `Overloaded -> (
          match next_decided ?probe e with
          | Some d ->
            take d;
            offer ()
          | None -> assert false)
      in
      offer ())
    st.sat_specs;
  let rec finish () =
    match next_decided ?probe e with
    | Some d ->
      take d;
      finish ()
    | None -> ()
  in
  finish ();
  let wall_s = Common.now_s () -. t0 in
  let w1 = words st and gc1 = Gc.quick_stat () in
  E.shutdown e;
  {
    wall_s;
    failed = !failed;
    words_per_op = (w1 -. w0) /. float_of_int (Array.length st.sat_specs);
    digest = Common.md5 (Buffer.contents buf);
    head = Common.md5 !head;
    minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

type open_loop = {
  failed : int;  (** refused or failed instances *)
  lag : float array;  (** submit time minus due time *)
  wall_s : float;
  busy_s : float;
  overloaded : int;
}

(* One open-loop replay on a fresh engine.  [best.(i)] keeps arrival
   [i]'s lowest latency so far; a refused or failed instance is
   infinitely late. *)
let open_loop ?probe st ~best =
  let e = engine st ~seed:st.open_seed in
  let k = Array.length st.arrivals in
  let arrival_of = Array.make k 0 in
  let lag = Common.Samples.create ~capacity:k () in
  let failed = ref 0 in
  let settle i latency = best.(i) <- Float.min best.(i) latency in
  let t0 = Common.now_s () in
  let i = ref 0 in
  while !i < k || E.in_flight e > 0 do
    let now = Common.now_s () in
    while !i < k && t0 +. st.arrivals.(!i) <= now do
      (match submit ?probe e st.open_specs.(!i) with
      | `Accepted tk -> arrival_of.(tk) <- !i
      | `Overloaded ->
        incr failed;
        settle !i infinity);
      Common.Samples.add lag (Common.now_s () -. (t0 +. st.arrivals.(!i)));
      incr i
    done;
    if E.in_flight e > 0 then
      match next_decided ?probe e with
      | Some d ->
        let a = arrival_of.(d.ticket) in
        if instance_failed d then begin
          report_failure d;
          incr failed;
          settle a infinity
        end
        else settle a (Common.now_s () -. (t0 +. st.arrivals.(a)))
      | None -> assert false
    else
      (* Idle until the next arrival: spin, since a sleep can overshoot
         by more than the latencies measured. *)
      Domain.cpu_relax ()
  done;
  let wall_s = Common.now_s () -. t0 in
  let s = E.stats e in
  E.shutdown e;
  {
    failed = !failed;
    lag = Common.Samples.to_array lag;
    wall_s;
    busy_s = s.E.busy_s;
    overloaded = s.E.overloaded;
  }

(* Throughput mode must decide the first tickets exactly as
   Deterministic mode does. *)
let check_reference st (s : saturation) =
  let want =
    deterministic_digest st.pool ~seed:st.seed
      (Array.sub st.sat_specs 0 reference)
  in
  Common.info "reference digest=%s" want;
  Common.gate (s.head = want)
    "throughput stream differs from the deterministic one"

(* [replays] saturation replays, then [replays] open-loop replays; every
   saturation replay must reproduce the first one's decided stream. *)
let end_to_end (a : Common.args) =
  let setup = setup ~seed:a.seed ~seconds:a.seconds in
  let st, _ = Common.timed_setup setup in
  let first = saturate st in
  Common.resample_setup setup;
  check_reference st first;
  let best_s = ref first.wall_s in
  for r = 2 to replays do
    let s = saturate st in
    Common.resample_setup setup;
    Common.gate (s.digest = first.digest) "saturation replay %d diverged" r;
    best_s := Float.min !best_s s.wall_s
  done;
  let k = Array.length st.arrivals in
  let best = Array.make k infinity in
  let ol = open_loop st ~best in
  Common.resample_setup setup;
  for _ = 2 to replays do
    ignore (open_loop st ~best);
    Common.resample_setup setup
  done;
  let sat_n = Array.length st.sat_specs in
  let attempted = sat_n + k and failed = first.failed + ol.failed in
  Common.info "instances=%d failed=%d samples=%d overloaded=%d" attempted
    failed k ol.overloaded;
  let ms q = 1000.0 *. Common.quantile q best in
  let per_s = float_of_int sat_n /. !best_s in
  let metrics =
    [
      Common.m "setup_s" "s" (Common.setup_s ());
      Common.m "instances_per_s" "1/s" per_s;
      Common.m "runs_per_s" "1/s" per_s;
      Common.m "latency_p50_ms" "ms" (ms 0.5);
      Common.m "latency_p99_ms" "ms" (ms 0.99);
      Common.m "minor_words_per_op" "words" first.words_per_op;
      Common.m "peak_heap_mb" "MB" (Common.peak_heap_mb ());
    ]
  in
  Pool.shutdown st.pool;
  (attempted, failed, metrics)

(* One untraced and one traced saturation replay, one traced open-loop
   replay, then the isolated loops. *)
let traced (a : Common.args) =
  let st, _ = Common.timed_setup (setup ~seed:a.seed ~seconds:a.seconds) in
  let u = saturate st in
  check_reference st u;
  let p = probe () in
  let t = saturate ~probe:p st in
  Common.gate (t.digest = u.digest) "traced saturation diverged";
  let p = probe () in
  let k = Array.length st.arrivals in
  let ol = open_loop ~probe:p st ~best:(Array.make k infinity) in
  let micro = Layers.micro ~budget_s:(a.seconds *. 0.2) in
  let ms xs q = 1000.0 *. Common.quantile q (Common.Samples.to_array xs) in
  let sat_n = Array.length st.sat_specs in
  let attempted = sat_n + k and failed = u.failed + ol.failed in
  let values =
    [
      ("service.queue_wait_ms_p50", ms p.queue_wait 0.5);
      ("service.dispatch_ms_p50", ms p.dispatch 0.5);
      ("service.batch_size_mean", Common.mean (Common.Samples.to_array p.batches));
      ("service.busy_frac", ol.busy_s /. ol.wall_s);
      ("service.overloaded", float_of_int ol.overloaded);
      ("gc.minor_collections_per_op", Common.fratio u.minor_collections sat_n);
      ("gc.major_collections", float_of_int u.major_collections);
      ("loadgen.lag_ms_p99", 1000.0 *. Common.quantile 0.99 ol.lag);
      ("loadgen.samples", float_of_int k);
      ("trace.overhead_frac", (t.wall_s /. u.wall_s) -. 1.0);
      ("bench.failed_frac", Common.fratio failed attempted);
    ]
  in
  Pool.shutdown st.pool;
  (attempted, failed, Layers.metrics (values @ micro))
