(** Registry of explorable configurations: small fixed programs over
    the scannable-memory stack, each paired with the property check the
    explorer runs on every completed schedule.

    Configurations deliberately mirror the acceptance gate of the
    checker subsystem: the atomic register and handshake-snapshot
    configurations must pass exhaustively at their bounds, while the
    [Weaken]-injected ones ([reg-safe], [reg-regular],
    [snapshot-unsafe]) must yield a non-linearizable history.  Weakened
    configurations run without partial-order reduction — the weakening
    wrapper shares a hidden write table across processes, which register
    level independence cannot see (see {!Explorer}). *)

type t = {
  name : string;
  summary : string;
  n : int;
  max_steps : int;  (** per-run step bound the configuration was sized for *)
  reduction : bool;  (** sleep-set reduction soundness for this program *)
  expect_violation : bool;  (** documentation + test oracle *)
  setup : Explorer.setup;
}

val all : t list
(** In registry order. *)

val names : unit -> string list
val find : string -> t option

val run :
  ?max_steps:int ->
  ?max_runs:int ->
  ?budget_s:float ->
  ?shrink:bool ->
  t ->
  Explorer.stats
(** {!Explorer.explore} with the configuration's program, bound and
    reduction setting ([max_steps] overrides the default). *)

val replay : ?max_steps:int -> t -> Explorer.witness -> Explorer.replay_outcome * int

val counterexample :
  ?max_steps:int -> t -> Explorer.witness -> Bprc_faults.Counterexample.t
(** The witness as a saved counterexample of the check registry,
    explored under [max_steps] (default: the configuration's own). *)
