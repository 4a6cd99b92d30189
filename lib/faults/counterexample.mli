(** Counterexamples: one failing run, saved as JSON and re-executed
    bit-identically by [bprc replay].

    Both searches write this one format.  The fuzzing hunt ({!Hunt})
    draws runs of a {!Scenario}; the exhaustive explorer
    ([Bprc_check.Explorer]) enumerates the runs of a
    [Bprc_check.Config] entry.  [registry] says which of the two
    registries [name] belongs to — [snapshot-unsafe] is both a hunt
    scenario and a check configuration — and carries what re-running
    the schedule needs besides the schedule itself.  The JSON schema is
    documented in EXPERIMENTS.md ("Counterexample files"). *)

type registry =
  | Hunt of {
      seed : int;  (** simulator seed of the failing trial *)
      trial : int;  (** hunt trial index that produced it *)
      plan : Fault_plan.t;
    }
  | Check of { max_steps : int  (** per-run step bound of the exploration *) }

type t = {
  registry : registry;
  name : string;  (** scenario or configuration name in [registry] *)
  n : int;
  choices : int list;  (** adversary choices (runnable indices) *)
  flips : bool list;  (** coin flips, in draw order *)
  failure : string;  (** the observed property violation *)
  clock : int;  (** final simulator clock of the failing run *)
}

val kind : string
(** The JSON "kind" discriminator, ["bprc-counterexample"]. *)

val version : int

val registry_name : registry -> string
(** ["hunt"] or ["check"], as written to the JSON "registry" field. *)

val plan : t -> Fault_plan.t
(** The hunt's fault plan; [[]] for a check counterexample, whose
    configuration builds in any weakening. *)

val to_json : t -> Bprc_util.Json.t
val of_json : Bprc_util.Json.t -> (t, string) result
val to_string : t -> string
val of_string : string -> (t, string) result
val save : path:string -> t -> unit
val load : path:string -> (t, string) result
