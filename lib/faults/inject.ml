open Bprc_runtime

(* ------------------------------------------------------------------ *)
(* Register weakening                                                  *)
(* ------------------------------------------------------------------ *)

let weaken_runtime (rt : (module Runtime_intf.S)) ~(plan : Fault_plan.t) :
    (module Runtime_intf.S) =
  if not (List.exists (function Fault_plan.Weaken _ -> true | _ -> false) plan)
  then rt
  else
    let (module B : Runtime_intf.S) = rt in
    let counter = ref 0 in
    (module struct
      type 'a wrec = { w_start : int; mutable w_finish : int; w_value : 'a }

      type 'a weak = {
        base : 'a B.reg;
        sem : Fault_plan.semantics;
        writes : 'a wrec Bprc_util.Vec.t;
        init : 'a;
      }

      type 'a reg = Plain of 'a B.reg | Weak of 'a weak

      let make_reg ?(name = "r") v =
        let index = !counter in
        incr counter;
        let base = B.make_reg ~name v in
        match Fault_plan.weaken_target plan ~index with
        | None -> Plain base
        | Some sem ->
          Weak { base; sem; writes = Bprc_util.Vec.create (); init = v }

      (* A choice in [0, k) driven by base-runtime flips, as in
         Bprc_registers.Weak: deterministic under replay, enumerable by
         the explorer, harmlessly biased toward low indices. *)
      let flip_choice k =
        if k <= 1 then 0
        else begin
          let bits = ref 0 in
          let width = ref 1 in
          while !width < k do
            width := !width * 2;
            bits := (2 * !bits) + if B.flip () then 1 else 0
          done;
          !bits mod k
        end

      let committed_before w time =
        let best = ref None in
        Bprc_util.Vec.iter
          (fun r ->
            if r.w_finish <= time then
              match !best with
              | Some b when b.w_finish >= r.w_finish -> ()
              | _ -> best := Some r)
          w.writes;
        match !best with Some r -> r.w_value | None -> w.init

      let read = function
        | Plain r -> B.read r
        | Weak w ->
          (* Two steps: widen the read into an interval so writes can
             overlap it — the precondition for weak behavior. *)
          let rd_start = B.now () in
          let v = B.read w.base in
          B.yield ();
          let rd_end = B.now () in
          (* Strict comparisons: a write that commits exactly when the
             read starts (or starts exactly when it ends) is adjacent,
             not overlapping — otherwise even sequential same-process
             code would trigger weak behavior. *)
          let overlapping =
            Bprc_util.Vec.fold
              (fun acc r ->
                if r.w_start < rd_end && r.w_finish > rd_start then
                  r.w_value :: acc
                else acc)
              [] w.writes
          in
          if overlapping = [] then v
          else begin
            match w.sem with
            | Fault_plan.Safe ->
              (* A safe register returns an arbitrary domain value when
                 overlapped.  The domain is polymorphic and cannot be
                 enumerated, so we approximate "arbitrary" by any value
                 ever written (or the initial one) — already enough to
                 return values from the distant past. *)
              let candidates =
                w.init
                :: Bprc_util.Vec.fold (fun acc r -> r.w_value :: acc) [] w.writes
              in
              let arr = Array.of_list candidates in
              arr.(flip_choice (Array.length arr))
            | Fault_plan.Regular ->
              let arr =
                Array.of_list (committed_before w rd_start :: overlapping)
              in
              arr.(flip_choice (Array.length arr))
          end

      let write r v =
        match r with
        | Plain r -> B.write r v
        | Weak w ->
          (* Two steps: the write is pending (overlappable) after the
             first and committed after the second. *)
          let rec_ = { w_start = B.now (); w_finish = max_int; w_value = v } in
          Bprc_util.Vec.push w.writes rec_;
          B.yield ();
          B.write w.base v;
          rec_.w_finish <- B.now ()

      let peek = function Plain r -> B.peek r | Weak w -> B.peek w.base

      let poke r v =
        match r with Plain r -> B.poke r v | Weak w -> B.poke w.base v

      let flip = B.flip
      let pid = B.pid
      let n = B.n
      let now = B.now
      let yield = B.yield
    end : Runtime_intf.S)

(* ------------------------------------------------------------------ *)
(* Process faults (crash / stall)                                      *)
(* ------------------------------------------------------------------ *)

(* A fault is due once its trigger holds: a [crash_at] entry at its
   global clock, a [Crash]/[Stall] once its process has taken [at_step]
   steps.  Everything due fires before the next step.  Between firings
   the simulator runs in one [Sim.run] chunk up to the earliest clock
   at which a pending fault could next be due: its own clock for a
   [crash_at] entry, and [clock + at_step - steps_of pid] for a
   per-process fault, since a process takes at most one step per clock
   tick.  With nothing pending an instance is a single [Sim.run].  The
   helpers are top-level functions so that a run allocates no
   closures. *)

let rec fire_crash_at sim clock = function
  | (step, pid) :: rest when clock >= step ->
    Sim.crash sim pid;
    fire_crash_at sim clock rest
  | pending -> pending

(* Fire the due plan faults and keep the rest, lowering [until] to the
   earliest clock at which a kept one could be due.  A fault that can
   never fire is dropped, so it does not cut the run into short chunks:
   a link or weakening fault, a pid outside the arena, or a process
   that crashed or finished before its trigger. *)
let rec fire_faults sim clock until = function
  | [] -> []
  | (Fault_plan.Crash { pid; at_step } | Fault_plan.Stall { pid; at_step; _ })
    as f
    :: rest
    when pid >= 0 && pid < Sim.n sim ->
    let left = at_step - Sim.steps_of sim pid in
    if left <= 0 then begin
      (match f with
      | Fault_plan.Stall { steps; _ } -> Sim.stall sim pid ~steps
      | _ -> Sim.crash sim pid);
      fire_faults sim clock until rest
    end
    else if Sim.crashed sim pid || Sim.finished sim pid then
      fire_faults sim clock until rest
    else begin
      if clock + left < !until then until := clock + left;
      f :: fire_faults sim clock until rest
    end
  | _ :: rest -> fire_faults sim clock until rest

let rec run_faulted sim ~max_steps crash_at faults =
  let clock = Sim.clock sim in
  let crash_at = fire_crash_at sim clock crash_at in
  let until =
    ref (match crash_at with (step, _) :: _ -> step | [] -> max_steps)
  in
  let faults = fire_faults sim clock until faults in
  if clock >= max_steps then false
  else
    match Sim.run ~until:!until sim with
    | Sim.Completed -> true
    | Sim.Hit_step_limit -> run_faulted sim ~max_steps crash_at faults

let drive ?(crash_at = []) sim ~plan ~max_steps =
  run_faulted sim
    ~max_steps:(min max_steps (Sim.max_steps sim))
    (List.sort compare crash_at) plan

(* ------------------------------------------------------------------ *)
(* Link faults                                                         *)
(* ------------------------------------------------------------------ *)

let net_hook (plan : Fault_plan.t) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (function
      | Fault_plan.Drop { nth } -> Hashtbl.replace tbl nth Bprc_netsim.Netsim.Drop
      | Fault_plan.Duplicate { nth } ->
        Hashtbl.replace tbl nth Bprc_netsim.Netsim.Duplicate
      | Fault_plan.Delay { nth; by } ->
        Hashtbl.replace tbl nth (Bprc_netsim.Netsim.Delay by)
      | _ -> ())
    plan;
  fun ~nth ~src:_ ~dst:_ ->
    match Hashtbl.find_opt tbl nth with
    | Some a -> a
    | None -> Bprc_netsim.Netsim.Pass
