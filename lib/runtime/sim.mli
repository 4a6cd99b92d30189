(** Deterministic cooperative simulator of asynchronous shared memory.

    Processes run as effect-handler fibers.  Every register access (and
    every local coin flip) suspends the fiber; an {!Adversary.t} then
    chooses which process takes the next atomic step.  One step = one
    register access = one unit of measured cost, matching the cost model
    of the paper's lemmas.

    Typical use:
    {[
      let sim = Sim.create ~seed:42 ~n:4 ~adversary:(Adversary.random ()) () in
      let (module R) = Sim.runtime sim in
      let module C = Some_algorithm.Make (R) in
      let state = C.create () in
      let handles = Array.init 4 (fun i -> Sim.spawn sim (fun () -> C.run state i)) in
      match Sim.run sim with
      | Completed -> Array.map Sim.result handles
      | Hit_step_limit -> ...
    ]} *)

type t

type 'a handle
(** A spawned process and its eventual result. *)

type outcome =
  | Completed  (** every non-crashed process finished *)
  | Hit_step_limit  (** [max_steps] reached first *)

val create :
  ?seed:int ->
  ?max_steps:int ->
  ?record_trace:bool ->
  ?trace_capacity:int ->
  n:int ->
  adversary:Adversary.t ->
  unit ->
  t
(** [max_steps] defaults to 10_000_000; [record_trace] defaults to
    [false] (recording costs memory proportional to the run length).
    [trace_capacity] bounds the recorded trace to a ring of that many
    newest events (see {!Trace.create}); ignored unless [record_trace]
    is set. *)

val reset : ?seed:int -> ?adversary:Adversary.t -> t -> unit
(** Rewind the simulator to the state a fresh {!create} with the same
    [n], [max_steps] and trace configuration would produce, reusing the
    arena (process slots, scheduling scratch buffers, trace storage)
    instead of reallocating it.  All process slots empty ([spawn] must
    be called [n] times again), the register-id counter restarts at 0,
    flip source/observer are cleared, per-process RNG streams are
    rewound, and the recorded trace (if any) is cleared.  [seed]
    replaces the seed for this and subsequent resets (default: keep);
    [adversary] replaces the adversary (default: keep).  A reset run is
    bit-identical to one on a freshly created simulator — the schedule
    explorer relies on this to avoid a [create] per replayed run.
    Handles and registers from before the reset are orphaned: reading a
    stale handle yields the old run's result, and using a stale
    register raises no error but is meaningless.

    [reset] also {e adopts ownership}: the calling domain becomes the
    arena's owner (see {!step}), so an arena moves between domains only
    through a reset, never mid-run. *)

val runtime : t -> (module Runtime_intf.S)
(** The shared-memory interface bound to this simulator instance.
    Registers made from it belong to this instance only.  The module
    stays valid across {!reset}; registers must be re-made.  The same
    physical module is returned on every call (it is kept in a
    {!slot}). *)

type 'a slot
(** A typed key for per-arena state.  One key, made once, names a value
    of type ['a] in every arena.  Layers above the simulator keep state
    that must live exactly as long as an arena in a slot — the
    explorer's functor applications and checker scratch, for instance —
    so it is freed with the arena rather than pinned by a global
    table. *)

val new_slot : unit -> 'a slot

val slot : t -> 'a slot -> (t -> 'a) -> 'a
(** [slot t s make] is [t]'s value under [s], made by [make t] on first
    use.  It survives {!reset}: a value that holds per-run state must
    be rewound by its user. *)

val spawn : t -> (unit -> 'a) -> 'a handle
(** Register process number [spawned-so-far] (pids are assigned 0,1,...).
    Must be called exactly [n] times before {!run}.
    @raise Invalid_argument when more than [n] processes are spawned. *)

val run : t -> outcome
(** Drive steps until every process finished/crashed or the step limit
    is hit.  @raise Invalid_argument if fewer than [n] processes were
    spawned, or when called from a domain other than the arena's owner
    (see {!step}). *)

val step : t -> bool
(** Execute a single adversary-chosen step.  Returns [false] when no
    process is runnable (all finished or crashed).

    An arena is owned by the domain that {!create}d or last {!reset}
    it: its scratch buffers, adversary context and suspended effect
    continuations are single-domain state, so driving it from another
    domain would race silently.  [step] and {!run} raise a clear
    [Invalid_argument] instead; call {!reset} from the new domain
    first to adopt ownership. *)

val result : 'a handle -> 'a option
(** The value returned by the process, if it finished. *)

val crash : t -> int -> unit
(** Permanently stop a process (models a faulty process; it is simply
    never scheduled again).  Idempotent; legal at any time. *)

val stall : t -> int -> steps:int -> unit
(** [stall t pid ~steps] removes [pid] from the runnable set reported
    to the adversary until the global clock has advanced by [steps] —
    a bounded delay fault, weaker than {!crash}.  Exception: when every
    runnable process is stalled, stalls are ignored for that step (the
    adversary must schedule someone; stalls alone cannot deadlock an
    asynchronous system).  Overlapping stalls keep the later deadline.
    @raise Invalid_argument on negative [steps]. *)

val crashed : t -> int -> bool
val finished : t -> int -> bool

val clock : t -> int
(** Global steps executed so far. *)

val n : t -> int
(** The process count this arena was created for ({!reset} keeps it).
    Arena-pooling layers key reusable simulators on it. *)

val max_steps : t -> int
(** The step bound this arena was created with ({!reset} keeps it). *)

val registers_created : t -> int
(** Shared registers allocated through {!module-type-Runtime_intf.S.make_reg} since
    creation (or the last {!reset}) — the measured side of the space
    accounting: a protocol whose space report is honest creates exactly
    this many registers and never more mid-run. *)

val steps_of : t -> int -> int
(** Steps taken by one process. *)

val flips_of : t -> int -> int
(** Local coin flips performed by one process. *)

val trace : t -> Trace.t option
(** The recorded trace, when [record_trace] was set. *)

val last_access : t -> (int * Trace.kind) option
(** The shared-memory access performed by the most recent step:
    [(reg_id, kind)] for register reads/writes, [reg_id = -1] for coin
    flips and explicit yields.  [None] when the step performed no access
    at all (a process's initial segment before its first suspension).
    Available whether or not trace recording is on.  Allocates its
    result; per-step consumers should use {!last_access_code}. *)

val last_access_code : t -> int
(** Allocation-free variant of {!last_access}, packed into one
    immediate int: [-1] when the step performed no access, otherwise
    [((reg_id + 1) lsl 2) lor k] with [k] = 0 read, 1 write, 2 coin
    flip, 3 explicit yield (flips and yields carry [reg_id = -1]).  The
    schedule explorer in [lib/check] consumes this to compute step
    independence for partial-order reduction without allocating on
    every step. *)

val note : t -> pid:int -> string -> unit
(** Append an algorithm-level annotation to the trace (no-op when
    recording is off).  Not a step. *)

val set_flip_source : t -> (pid:int -> bool) -> unit
(** Override the source of local coin flips (used by the exhaustive
    explorer and by bias-injection tests).  Default draws from the
    per-process seeded stream. *)

val set_flip_observer : t -> (pid:int -> bool -> unit) -> unit
(** Install a callback invoked after every coin flip with the flipping
    pid and the drawn value, whatever the source.  Used by the fault
    subsystem's recorder to capture the flip sequence of a run. *)

val set_validate : t -> bool -> unit
(** Enable (or disable) the O(n)-per-step check that every adversary
    choice is a member of the runnable set it was shown, raising
    [Invalid_argument] on violation.  Off by default for throughput
    (BPRC_SIM_DEBUG=1 flips the default on); witness-replay paths — the
    explorer's [Explorer.replay] and the fault subsystem's scripted
    replays — turn it on so a corrupted or divergent witness fails fast
    instead of silently stepping a wrong process.  Sticky across
    {!reset}. *)
