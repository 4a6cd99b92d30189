module Sim = Bprc_runtime.Sim
module Inject = Bprc_faults.Inject
module Fault_plan = Bprc_faults.Fault_plan
module Snap_checker = Bprc_snapshot.Snap_checker
module Hist = Bprc_registers.Hist
module Lin = Bprc_registers.Lin
module Specs = Bprc_registers.Specs

type t = {
  name : string;
  summary : string;
  n : int;
  max_steps : int;
  reduction : bool;
  expect_violation : bool;
  setup : Explorer.setup;
}

module Reg_lin = Lin.Make ((val Specs.register ~init:0))
module Cons_lin = Lin.Make (Specs.Consensus)

(* ---- per-arena functor applications ----------------------------------- *)

(* [Handshake.Make]/[Ads89.Make] are pure (all state lives under their
   [create]) but not free: each application allocates a module block
   and a closure per operation.  The explorer calls [setup] once per
   run — hundreds of thousands of times — so each arena keeps its
   applications in a {!Sim.slot} and drops them when it is collected.
   Only the arena's owning domain runs its setup, so a slot is never
   shared between domains.  Weakened runtimes ({!Inject.weaken_runtime}
   with a non-empty plan) are never kept — the wrapper carries per-run
   mutable state and is a fresh module each run. *)

let handshake_slot : (module Bprc_snapshot.Snapshot_intf.S) Sim.slot =
  Sim.new_slot ()

let handshake_for sim =
  Sim.slot sim handshake_slot (fun sim ->
      (module Bprc_snapshot.Handshake.Make ((val Sim.runtime sim))
      : Bprc_snapshot.Snapshot_intf.S))

let ads89_slot : (module Bprc_core.Consensus_intf.S) Sim.slot = Sim.new_slot ()

let ads89_for sim =
  Sim.slot sim ads89_slot (fun sim ->
      (module Bprc_core.Ads89.Make ((val Sim.runtime sim))
      : Bprc_core.Consensus_intf.S))

(* [linearizable] takes the events as an array ({!Lin.check_events}):
   one run-verdict costs no intermediate list, and the message — built
   on violation only — renders from the same array. *)
let lin_verdict ~name pp_op linearizable h =
  let events = Hist.events_array h in
  if linearizable events then Ok ()
  else
    Error
      (Fmt.str "@[<h>non-linearizable %s history: %a@]" name
         Fmt.(list ~sep:sp (Hist.pp_event pp_op))
         (Array.to_list events))

let reg_check h () =
  lin_verdict ~name:"register" Specs.pp_reg_op Reg_lin.linearizable h

(* Every process writes a distinct value then reads the register back. *)
let reg_write_read ~plan sim =
  let (module Base) = Sim.runtime sim in
  let (module R) = Inject.weaken_runtime (module Base) ~plan in
  let r = R.make_reg ~name:"x" 0 in
  let h : Specs.reg_op Hist.t = Hist.create () in
  for i = 0 to 1 do
    ignore
      (Sim.spawn sim (fun () ->
           let v = 10 * (i + 1) in
           let s = Hist.stamp h in
           R.write r v;
           let f = Hist.stamp h in
           Hist.record h ~pid:i ~start_time:s ~finish_time:f (Specs.Write v);
           let s = Hist.stamp h in
           let got = R.read r in
           let f = Hist.stamp h in
           Hist.record h ~pid:i ~start_time:s ~finish_time:f (Specs.Read got)))
  done;
  reg_check h

(* New-old inversion probe: p0 reads twice while p1 writes once.  A
   regular register may serve the overlapping new value then the old
   one; an atomic register may not. *)
let reg_read_read ~plan sim =
  let (module Base) = Sim.runtime sim in
  let (module R) = Inject.weaken_runtime (module Base) ~plan in
  let r = R.make_reg ~name:"x" 0 in
  let h : Specs.reg_op Hist.t = Hist.create () in
  ignore
    (Sim.spawn sim (fun () ->
         for _ = 1 to 2 do
           let s = Hist.stamp h in
           let got = R.read r in
           let f = Hist.stamp h in
           Hist.record h ~pid:0 ~start_time:s ~finish_time:f (Specs.Read got)
         done));
  ignore
    (Sim.spawn sim (fun () ->
         let s = Hist.stamp h in
         R.write r 7;
         let f = Hist.stamp h in
         Hist.record h ~pid:1 ~start_time:s ~finish_time:f (Specs.Write 7)));
  reg_check h

(* A fixed per-process program of updates and scans over the §2
   handshake snapshot.  Checked against P1–P3 (Snap_checker) and
   against full snapshot linearizability; the checkers share one stamp
   counter so the two views of the history agree.  Update values must
   strictly increase per process (Snap_checker requirement). *)
let snapshot_prog ~plan ~prog =
  let n = Array.length prog in
  (* Hoisted out of the per-run closure: the snapshot spec and its
     linearizability checker depend only on [n], fixed per registry
     entry, so the functor is applied once at registry-build time
     instead of once per explored run. *)
  let module Snap_lin = Lin.Make ((val Specs.snapshot ~n ())) in
  let weakened = plan <> [] in
  (* Per-arena checker/history scratch.  A registry setup is shared by
     every caller on every domain, so the pair lives in the arena (a
     [Sim.slot]) rather than in this closure: it is reused across the
     runs of one exploration, dies with its arena, and is rewound with
     [reset]/[clear] at the start of each run. *)
  let scratch : (Snap_checker.t * Specs.snap_op Hist.t) Sim.slot =
    Sim.new_slot ()
  in
  let make_scratch _ = (Snap_checker.create ~n ~init:0, Hist.create ()) in
  fun sim ->
    let (module S) =
      if weakened then begin
        let (module R) = Inject.weaken_runtime (Sim.runtime sim) ~plan in
        (module Bprc_snapshot.Handshake.Make (R)
        : Bprc_snapshot.Snapshot_intf.S)
      end
      else handshake_for sim
    in
    let snap = S.create ~init:0 () in
    let ck, h = Sim.slot sim scratch make_scratch in
    Snap_checker.reset ck;
    Hist.clear h;
    for i = 0 to n - 1 do
      ignore
        (Sim.spawn sim (fun () ->
             List.iter
               (function
                 | `Update v ->
                   let s = Snap_checker.stamp ck in
                   S.write snap v;
                   let f = Snap_checker.stamp ck in
                   Snap_checker.record_write ck ~pid:i ~start_time:s
                     ~finish_time:f ~value:v;
                   Hist.record h ~pid:i ~start_time:s ~finish_time:f
                     (Specs.Update { pid = i; value = v })
                 | `Scan ->
                   let s = Snap_checker.stamp ck in
                   let view = S.scan snap in
                   let f = Snap_checker.stamp ck in
                   Snap_checker.record_scan ck ~pid:i ~start_time:s
                     ~finish_time:f ~view;
                   Hist.record h ~pid:i ~start_time:s ~finish_time:f
                     (Specs.Scan view))
               prog.(i)))
    done;
    fun () ->
      let ( let* ) = Result.bind in
      let* () = Snap_checker.check_regularity ck in
      let* () = Snap_checker.check_snapshot ck in
      let* () = Snap_checker.check_serializability ck in
      lin_verdict ~name:"snapshot" Specs.pp_snap_op Snap_lin.linearizable h

(* Two-process §5 consensus with split inputs; checked against the
   consensus spec (agreement + validity) both directly and as a
   linearizable object.  Tiny coin parameters keep runs short; the
   schedule tree is far too large to exhaust — this configuration is a
   bounded corner search, not a proof. *)
let consensus_split sim =
  let n = 2 in
  let (module C) = ads89_for sim in
  let params = { Bprc_core.Params.k = 2; delta = 1; m = Some 3 } in
  let st = C.create ~params () in
  let h : Specs.cons_op Hist.t = Hist.create () in
  let inputs = [| true; false |] in
  let decisions = Array.make n None in
  for i = 0 to n - 1 do
    ignore
      (Sim.spawn sim (fun () ->
           let s = Hist.stamp h in
           let d = C.run st ~input:inputs.(i) in
           let f = Hist.stamp h in
           decisions.(i) <- Some d;
           Hist.record h ~pid:i ~start_time:s ~finish_time:f
             (Specs.Propose
                { input = Bool.to_int inputs.(i); output = Bool.to_int d })))
  done;
  fun () ->
    let ( let* ) = Result.bind in
    let* () = Bprc_core.Spec.check ~inputs ~decisions in
    lin_verdict ~name:"consensus" Specs.Consensus.pp_op Cons_lin.linearizable h

let weaken semantics = [ Fault_plan.Weaken { index = -1; semantics } ]

let all =
  [
    {
      name = "reg-atomic";
      summary = "2 procs, write-then-read one atomic register";
      n = 2;
      max_steps = 64;
      reduction = true;
      expect_violation = false;
      setup = reg_write_read ~plan:[];
    };
    {
      name = "reg-safe";
      summary = "write-then-read over a safe-weakened register";
      n = 2;
      max_steps = 64;
      reduction = false;
      expect_violation = true;
      setup = reg_write_read ~plan:(weaken Fault_plan.Safe);
    };
    {
      name = "reg-regular";
      summary = "new-old inversion probe over a regular-weakened register";
      n = 2;
      max_steps = 64;
      reduction = false;
      expect_violation = true;
      setup = reg_read_read ~plan:(weaken Fault_plan.Regular);
    };
    {
      name = "snapshot-atomic";
      summary = "update-then-scan over the handshake snapshot (P1-P3 + lin)";
      n = 2;
      max_steps = 256;
      reduction = true;
      expect_violation = false;
      setup =
        snapshot_prog ~plan:[]
          ~prog:[| [ `Update 1; `Scan ]; [ `Update 11; `Scan ] |];
    };
    {
      (* Two updates by p0 so a safe read can serve a stale value
         (init, or the first write) after the first write committed —
         with a single write per writer, every value a safe register
         can return still potentially coexists with the scan and P1 is
         unviolable. *)
      name = "snapshot-unsafe";
      summary = "handshake snapshot over safe-weakened registers";
      n = 2;
      max_steps = 256;
      reduction = false;
      expect_violation = true;
      setup =
        snapshot_prog
          ~plan:(weaken Fault_plan.Safe)
          ~prog:[| [ `Update 1; `Update 2 ]; [ `Scan ] |];
    };
    {
      name = "consensus-2p";
      summary = "2-proc split-input consensus, bounded corner search";
      n = 2;
      max_steps = 2000;
      reduction = true;
      expect_violation = false;
      setup = consensus_split;
    };
  ]

let names () = List.map (fun c -> c.name) all
let find name = List.find_opt (fun c -> c.name = name) all

let run ?max_steps ?max_runs ?budget_s ?shrink cfg =
  Explorer.explore ~n:cfg.n
    ~max_steps:(Option.value max_steps ~default:cfg.max_steps)
    ?max_runs ?budget_s ~reduction:cfg.reduction ?shrink ~setup:cfg.setup ()

let counterexample ?max_steps cfg (w : Explorer.witness) =
  {
    Bprc_faults.Counterexample.registry =
      Check { max_steps = Option.value max_steps ~default:cfg.max_steps };
    name = cfg.name;
    n = cfg.n;
    choices = w.choices;
    flips = w.flips;
    failure = w.failure;
    clock = w.clock;
  }

let replay ?max_steps cfg (w : Explorer.witness) =
  Explorer.replay ~n:cfg.n
    ~max_steps:(Option.value max_steps ~default:cfg.max_steps)
    ~choices:w.choices ~flips:w.flips ~setup:cfg.setup ()
