(* The traced run's wrappers.  They sit between the protocol and the
   layers below it and change nothing the protocol observes: every call
   is forwarded unchanged, and the wrappers only count and stamp.

   Attribution.  Within one simulated process (a fiber), the wall time
   from one register operation's return to its next operation's call is
   that process's local compute.  It is charged to the span the process
   has open: [Snap] while it is inside a snapshot [write]/[scan], [Core]
   otherwise (the protocol's own work: strip decode, coin, bookkeeping).
   Everything else in a simulated run — effect suspension and resume,
   the adversary's choice, the stamps themselves — is the runtime's self
   time: run wall time minus every fiber's local compute. *)

(* Calibration.  Each stamp is one clock read, and about one read's
   cost lands in every segment a stamp closes (half from the stamp that
   opens it, half from the one that closes it).  [calibrated] removes
   that instrumentation cost from a segment total. *)
let calibrated ~clock_ns ~segments total =
  float_of_int total -. (clock_ns *. float_of_int segments)

let max_n = 256
let core = 0
let snap = 1

(* Per-process state: the open span and the stamp of the last
   operation return (or span switch). *)
let span = Array.make max_n core
let last = Array.make max_n 0

type counters = {
  mutable reads : int;
  mutable writes : int;
  mutable flips : int;
  mutable yields : int;
  mutable snap_ops : int;  (* register operations inside snapshot spans *)
  mutable scans : int;
  mutable core_ns : int;
  mutable snap_ns : int;
  mutable core_segs : int;  (* local-compute segments closed in [Core] *)
  mutable snap_segs : int;
}

let c =
  {
    reads = 0;
    writes = 0;
    flips = 0;
    yields = 0;
    snap_ops = 0;
    scans = 0;
    core_ns = 0;
    snap_ns = 0;
    core_segs = 0;
    snap_segs = 0;
  }

let reset () =
  c.reads <- 0;
  c.writes <- 0;
  c.flips <- 0;
  c.yields <- 0;
  c.snap_ops <- 0;
  c.scans <- 0;
  c.core_ns <- 0;
  c.snap_ns <- 0;
  c.core_segs <- 0;
  c.snap_segs <- 0

(* Charge the time since [p]'s last stamp to its open span. *)
let[@inline] charge p t =
  let d = t - Array.unsafe_get last p in
  if Array.unsafe_get span p = core then begin
    c.core_ns <- c.core_ns + d;
    c.core_segs <- c.core_segs + 1
  end
  else begin
    c.snap_ns <- c.snap_ns + d;
    c.snap_segs <- c.snap_segs + 1
  end;
  Array.unsafe_set last p t

let fiber_start p =
  span.(p) <- core;
  last.(p) <- Common.now_ns ()

let fiber_end p = charge p (Common.now_ns ())

module Runtime (R : Bprc_runtime.Runtime_intf.S) :
  Bprc_runtime.Runtime_intf.S with type 'a reg = 'a R.reg = struct
  include R

  let[@inline] before () =
    let p = R.pid () in
    charge p (Common.now_ns ());
    if Array.unsafe_get span p = snap then c.snap_ops <- c.snap_ops + 1;
    p

  let[@inline] after p = Array.unsafe_set last p (Common.now_ns ())

  let read r =
    let p = before () in
    c.reads <- c.reads + 1;
    let v = R.read r in
    after p;
    v

  let write r v =
    let p = before () in
    c.writes <- c.writes + 1;
    R.write r v;
    after p

  let flip () =
    let p = before () in
    c.flips <- c.flips + 1;
    let b = R.flip () in
    after p;
    b

  let yield () =
    let p = before () in
    c.yields <- c.yields + 1;
    R.yield ();
    after p
end

(* Scan restarts of the snapshot object the current instance created. *)
let retries = ref (fun () -> 0)

module Snapshot
    (R : Bprc_runtime.Runtime_intf.S)
    (S : Bprc_snapshot.Snapshot_intf.S) : Bprc_snapshot.Snapshot_intf.S =
struct
  type 'a t = 'a S.t

  let create ?name ~init () =
    let t = S.create ?name ~init () in
    (retries := fun () -> S.scan_retries t);
    t

  let[@inline] enter () =
    let p = R.pid () in
    charge p (Common.now_ns ());
    span.(p) <- snap;
    p

  let[@inline] leave p =
    charge p (Common.now_ns ());
    span.(p) <- core

  let write t v =
    let p = enter () in
    S.write t v;
    leave p

  let scan t =
    let p = enter () in
    c.scans <- c.scans + 1;
    let v = S.scan t in
    leave p;
    v

  let scan_into t out =
    let p = enter () in
    c.scans <- c.scans + 1;
    S.scan_into t out;
    leave p

  let scan_retries = S.scan_retries
  let space = S.space
end
