(** Bounded exhaustive schedule explorer (stateless model checking).

    Enumerates every schedule (and every coin-flip outcome) of a small
    simulated configuration by repeatedly re-running it: each run
    replays a prefix of scheduling/flip decisions recorded in a
    persistent DFS tree, extends it greedily, and backtracks the deepest
    decision with an unexplored alternative.  The simulator is
    deterministic, so identical prefixes reach identical states and the
    tree enumerates exactly the reachable interleavings up to the step
    bound.  Runs share a small pool of reusable simulator arenas,
    rewound with {!Bprc_runtime.Sim.reset} — which guarantees
    bit-identical behaviour to a fresh simulator — so exploring
    thousands of schedules does not allocate thousands of process
    tables.

    {b Amortized replay: the checkpoint ladder.}  Effect continuations
    are one-shot, so a mid-run simulator state cannot be copied; a
    checkpoint is therefore a whole extra arena driven to a branch
    point on the current DFS spine with {!Bprc_runtime.Sim.run_until}
    and parked there.  On backtrack to depth [d], the next run resumes
    (and consumes) the deepest parked arena at or below the divergence
    instead of replaying from the root; backtracking eagerly drops
    rungs parked beyond the new divergence, and consumed rungs are
    regenerated lazily — at most one partial drive per run, sourced
    from the rung below (or the root when the ladder ran dry), keeping
    a near-divergence top rung over a geometric tail of shallower ones
    (exponential spacing).  The [?ladder] knob bounds the parked-arena
    count (0 disables).  Resumed arenas are bit-identical to replayed
    ones, so the ladder never affects results — only where simulator
    steps are spent.

    {b Allocation discipline.}  DFS bookkeeping (candidate orders,
    branch indices, sleep sets, captured access codes) lives in
    depth-indexed int-array pools reused across runs, in the style of
    [Sim]'s scratch ladder, so steady-state exploration allocates O(1)
    words per run; the pending sleep set entering a fresh node is
    recomputed from the node below it rather than threaded through
    every step.

    Redundant interleavings are pruned with sleep sets (Godefroid-style
    partial-order reduction) keyed on each step's shared-memory access,
    as exposed by {!Bprc_runtime.Sim.last_access_code}: two steps commute
    unless they touch the same register and at least one writes.  The
    reduction is sound only when all cross-process communication goes
    through register reads/writes; configurations whose processes share
    hidden mutable state (e.g. registers weakened by
    {!Bprc_faults.Inject.weaken_runtime}, whose wrapper records
    overlapping writes in a shared table) must run with
    [reduction:false].  Explicit [yield] steps are conservatively
    treated as dependent with everything for the same reason.

    A violation is returned as a {!witness}: the schedule (runnable
    indices, in {!Bprc_runtime.Adversary.scripted} form) and flip
    sequence of the failing run, by default minimized with
    {!Bprc_faults.Shrink.ddmin} under replay validation. *)

type setup = Bprc_runtime.Sim.t -> unit -> (unit, string) result
(** A configuration: given a fresh simulator, allocate the shared
    objects, spawn exactly [n] processes, and return the property check
    to run after the simulation completes ([Error] = violation).
    Called once per run; it must behave identically on every call. *)

type witness = {
  choices : int list;  (** runnable-array indices, one per step *)
  flips : bool list;  (** one per coin flip, in draw order *)
  failure : string;
  clock : int;  (** steps executed by the failing run *)
}

type stats = {
  runs : int;  (** runs started, pruned and cut-off ones included *)
  pruned : int;  (** runs abandoned by sleep-set pruning *)
  step_limited : int;  (** runs that hit [max_steps] before completing *)
  exhausted : bool;
      (** the DFS tree was fully enumerated within [max_runs]/[budget_s] *)
  violation : witness option;
}

val default_ladder : int
(** Default checkpoint budget (parked arenas). *)

val explore :
  n:int ->
  ?max_steps:int ->
  ?max_runs:int ->
  ?budget_s:float ->
  ?reduction:bool ->
  ?shrink:bool ->
  ?ladder:int ->
  setup:setup ->
  unit ->
  stats
(** Explore all schedules of [setup] with [n] processes, stopping at the
    first violation (in schedule order).  [max_steps] (default 2000)
    bounds each run; [max_runs] (default 200_000) bounds the whole
    exploration exactly: the DFS stops after precisely [max_runs] runs.
    [budget_s] (wall-clock, default none) is the one non-deterministic
    bound.  [reduction] (default [true]) enables sleep sets; [shrink]
    (default [true]) ddmin-minimizes the witness.  [ladder] (default
    {!default_ladder}) bounds the checkpoint ladder — the parked arenas
    that amortize prefix replay; [0] disables parking entirely.  It
    never affects results, only how much simulator work a run costs.
    Everything runs on the calling domain. *)

val ladder_counters : unit -> int * int
(** [(resumes, regens)]: process-wide monotonic counts of runs resumed
    from a parked arena and of rungs (re)generated by a partial drive.
    Test instrumentation — read deltas around an exploration to assert
    the ladder engaged (e.g. that a skewed tree exercises rung
    regeneration on backtrack). *)

type replay_outcome =
  | Pass
  | Fail of string
  | Cutoff  (** hit the step bound before every process finished *)

val replay :
  n:int ->
  ?max_steps:int ->
  choices:int list ->
  flips:bool list ->
  setup:setup ->
  unit ->
  replay_outcome * int
(** Re-run one schedule ([choices] then first-runnable, [flips] then
    [false]) and return the check outcome and the run's step count. *)
