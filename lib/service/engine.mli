(** Long-lived multi-shard consensus decision engine.

    The engine multiplexes many concurrent consensus instances over a
    {!Bprc_harness.Pool} of domains.  Callers {!submit} instance
    {!Workload.spec}s against a bounded in-flight window (admission is
    refused with [`Overloaded] once the window is full — explicit
    backpressure, never an unbounded queue) and consume decisions with
    {!next_decided} or {!drain}.  Dispatch is batched: a full batch of
    admitted instances is fanned over the pool per round, so per-instance
    overhead is one queue node and one ticket.

    {b Shards and arenas.}  Each pool domain is a shard.  A shard keeps
    one reusable simulator arena per instance shape ([n], step bound),
    adopted via [Sim.reset]'s ownership machinery, so a sustained run
    decides thousands of instances with a handful of arena allocations
    — the same trick the explorer plays with the one arena it rewinds
    for every run.

    {b Determinism.}  Instance randomness is forked from the engine
    seed by ticket ([Splitmix.fork base ticket] — the harness's
    per-trial seeding discipline), and the decided stream is delivered
    in ticket order, so in {!Deterministic} mode the full stream of
    {!decided} records is bit-identical at any worker count and any
    interleaving of submits and drains.  {!Throughput} mode computes
    the same decisions but additionally stamps each record with
    wall-clock latency and the shard that ran it, feeding the
    p50/p99 pipeline — those fields are inherently timing-dependent,
    which is exactly why the deterministic mode zeroes them. *)

type mode =
  | Deterministic
      (** records carry no wall-clock fields; the decided stream is a
          pure function of (engine seed, submitted specs) *)
  | Throughput
      (** per-instance latency measured and ring-buffered for p50/p99;
          records carry the executing shard's domain id *)

val mode_name : mode -> string
(** ["deterministic"] / ["throughput"]. *)

type decided = {
  ticket : int;  (** as returned by {!submit} *)
  shard : int;  (** executing domain id; [-1] in {!Deterministic} mode *)
  decisions : bool option array;  (** per-process decided values *)
  completed : bool;  (** every process decided within the step bound *)
  steps : int;  (** shared-memory steps the instance consumed *)
  rounds : int;  (** protocol rounds to decide *)
  spec_check : (unit, string) result;
      (** agreement + validity verdict over the decisions *)
  latency_s : float;  (** submit-to-decide; [0.] in {!Deterministic} *)
}

type stats = {
  submitted : int;  (** instances admitted *)
  overloaded : int;  (** submissions refused by backpressure *)
  decided : int;  (** instances run to a decision *)
  delivered : int;  (** decided records handed to the consumer *)
  violations : int;  (** decided instances whose spec check failed *)
  incomplete : int;  (** instances that hit their step bound *)
  in_flight : int;  (** admitted, not yet delivered *)
  max_in_flight : int;  (** high-water mark of [in_flight] *)
  busy_s : float;  (** wall time inside batch dispatch *)
  decisions_per_sec : float;  (** [decided /. busy_s]; [nan] before any *)
  minor_words_per_instance : float;
      (** minor heap words allocated per decided instance, banked over
          every dispatch round across the driving domain and all pool
          helpers — the service-level allocation-regression gauge
          ([nan] before any instance decided) *)
  lat_p50_s : float;  (** [nan] in {!Deterministic} mode / before data *)
  lat_p99_s : float;  (** likewise *)
  rounds_hist : (int * int) list;
      (** (rounds-to-decide, count) for non-empty buckets, ascending;
          the last bucket aggregates every deeper run *)
}

type t

val create :
  ?mode:mode ->
  ?seed:int ->
  ?in_flight_cap:int ->
  ?batch:int ->
  ?lat_capacity:int ->
  pool:Bprc_harness.Pool.t ->
  unit ->
  t
(** An engine over [pool] (not owned: shut the engine down first, the
    pool after).  [mode] defaults to {!Deterministic}; [seed] (default
    1) roots every instance's forked randomness; [in_flight_cap]
    (default 1024) bounds admitted-but-undelivered instances; [batch]
    (default [max 32 (16 * workers)]) is the dispatch fan-out per pool
    round; [lat_capacity] (default 4096) sizes the latency sample ring.
    @raise Invalid_argument on non-positive cap, batch or capacity. *)

val mode : t -> mode
val in_flight_cap : t -> int

val in_flight : t -> int
(** Admitted instances not yet delivered (queued + decided-undrained). *)

val arenas_live : t -> int
(** Simulator arenas currently pooled across all shards — the number
    of distinct (shard, shape) keys touched so far, {e not} the number
    of instances run.  Reuse keeps this bounded by
    [workers * distinct shapes]. *)

val submit : t -> Workload.spec -> [ `Accepted of int | `Overloaded ]
(** Admit one instance; [`Accepted ticket] orders the decided stream.
    [`Overloaded] (counted in {!stats}) means the in-flight window is
    full: the caller must consume decisions before re-submitting.
    @raise Invalid_argument after {!shutdown}. *)

val submit_batch :
  t -> Workload.spec list -> [ `Accepted of int | `Overloaded ] list
(** {!submit} each spec in order, one verdict per spec.  Admission is
    prefix-greedy: once the window fills, the remaining specs are all
    refused (and counted), so a caller can re-offer exactly the
    rejected suffix later. *)

val next_decided : t -> decided option
(** The next decided record in ticket order.  Dispatches batches over
    the pool as needed; [None] when nothing is in flight. *)

val drain : t -> decided list
(** Run everything in flight to decision and deliver it, in ticket
    order.  [[]] when nothing is in flight. *)

val stats : t -> stats
(** Snapshot of the streaming counters.  Cheap; safe between any two
    calls (not concurrently with a running dispatch). *)

val shutdown : t -> unit
(** Finish every admitted instance (so accounting is complete), then
    refuse further submissions and release the pooled arenas.  Decided
    records still waiting are kept: {!drain} / {!next_decided} remain
    valid on a shut-down engine.  Idempotent.  Call before shutting
    the underlying pool down — draining needs it. *)
