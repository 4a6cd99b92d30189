(** Applying a {!Fault_plan} to the two simulators.

    Three independent mechanisms:

    - {!weaken_runtime} wraps a {!Bprc_runtime.Runtime_intf.S} so that
      plan-targeted registers behave as regular or safe registers
      instead of atomic ones (registers are identified by allocation
      order, which is deterministic for a given algorithm and [n]);
    - {!drive} runs a simulator while firing [Crash] and [Stall]
      faults when the targeted process reaches its trigger step count
      (and global-clock crash points);
    - {!net_hook} compiles the plan's link faults into a
      {!Bprc_netsim.Netsim.Make.set_fault_hook} callback. *)

open Bprc_runtime

val weaken_runtime :
  (module Runtime_intf.S) -> plan:Fault_plan.t -> (module Runtime_intf.S)
(** Returns the runtime unchanged when the plan has no [Weaken] fault.
    Otherwise every register allocation consults the plan: weakened
    registers get two-step reads and writes (so operations genuinely
    overlap) whose overlapped outcomes follow the chosen semantics,
    resolved through the base runtime's [flip] (so replay and the
    explorer stay deterministic).  [Safe] approximates "arbitrary
    domain value" by "any value ever written, or the initial value" —
    the domain of a polymorphic register cannot be enumerated.
    [peek]/[poke] bypass weakening (checker-only). *)

val drive :
  ?crash_at:(int * int) list ->
  Sim.t ->
  plan:Fault_plan.t ->
  max_steps:int ->
  bool
(** Run the spawned simulator to completion, firing process faults
    between steps: each [(clock, pid)] of [crash_at] crashes [pid] once
    the global clock reaches [clock], and a [Crash {pid; at_step}] or
    [Stall {pid; at_step; _}] of [plan] fires once
    [Sim.steps_of sim pid >= at_step].  Every fault that is due fires
    before the next step, so two [crash_at] entries at one clock stop
    both processes before either steps again.  Plan faults naming
    pids outside [0, n), and every link or [Weaken] fault, are
    ignored.  The run is bit-identical to stepping the simulator one
    step at a time and firing due faults before each step, but goes
    through {!Sim.run} in chunks that end only where a fault could be
    due.  [max_steps] is clamped to the arena's {!Sim.max_steps}.
    Returns [false] if the clock reached [max_steps] first. *)

val net_hook :
  Fault_plan.t -> nth:int -> src:int -> dst:int -> Bprc_netsim.Netsim.fault_action
(** Link-fault lookup keyed on the global send ordinal. *)
