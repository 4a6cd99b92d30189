open Effect
open Effect.Deep

type _ Effect.t += Yield_step : unit Effect.t
type _ Effect.t += Flip_coin : bool Effect.t

(* Process status as an immediate int tag with the payload (start body
   or pending continuation) in a separate [kont] slot.  A boxed
   [Suspended of continuation] constructor would allocate two words on
   every step; the split representation stores an unboxed tag plus one
   pointer instead.  Tags 0..2 are exactly the schedulable statuses, so
   the runnable scan is a single comparison. *)
let st_not_started = 0 (* kont : unit -> unit, the unstarted body *)
let st_suspended = 1 (* kont : (unit, unit) continuation *)
let st_pending_flip = 2 (* kont : (bool, unit) continuation *)
let st_running = 3
let st_finished = 4
let st_crashed = 5
let kont_none = Obj.repr 0

type proc = {
  ppid : int;
  mutable status : int;  (* one of the [st_*] tags *)
  mutable kont : Obj.t;  (* payload for tags 0..2, [kont_none] otherwise *)
  mutable steps : int;
  mutable flips : int;
  mutable stall_until : int;  (* clock value before which pid is stalled *)
  prng : Bprc_rng.Splitmix.t;
}

(* The last shared access of the current step, packed into one
   immediate int so the hot path never allocates:
     -1                           no access yet
     ((reg_id + 1) lsl 2) lor k   access to [reg_id] of kind [k]
   with k = 0 read, 1 write, 2 coin flip, 3 explicit yield.  Flips and
   yields carry reg_id = -1, encoding to bare k.  The flip's drawn value
   lives in [last_flip]. *)
let access_none = -1
let access_read = 0
let access_write = 1
let access_flip = 2
let access_yield = 3
let[@inline always] access_code ~reg_id k = ((reg_id + 1) lsl 2) lor k

(* BPRC_SIM_DEBUG=1 turns on the per-step internal checks: the O(n)
   adversary-choice validation (also switchable per simulator with
   [set_validate] — replay paths force it on) and the status/kont shape
   assertion guarding the [Obj.obj] casts in [step_pid]. *)
let debug =
  match Sys.getenv_opt "BPRC_SIM_DEBUG" with
  | None | Some ("" | "0" | "false") -> false
  | Some _ -> true

(* Assert that the [kont] payload physically matches its status tag
   before the unchecked casts: an unstarted body is a closure, a pending
   continuation is a continuation block, every other status carries
   [kont_none].  Any future drift between a tag and its payload type
   then raises here instead of turning into undefined behavior. *)
let check_kont_shape st (payload : Obj.t) =
  let ok =
    if st = st_not_started then
      Obj.is_block payload && Obj.tag payload = Obj.closure_tag
    else if st = st_suspended || st = st_pending_flip then
      Obj.is_block payload && Obj.tag payload = Obj.cont_tag
    else payload == kont_none
  in
  if not ok then
    invalid_arg
      (Printf.sprintf
         "Sim.step_pid: kont payload shape does not match status tag %d" st)

(* Per-arena typed slots.  Each [new_slot] adds its own constructor to
   this extensible variant, so a slot's value comes back out by pattern
   matching on that constructor instead of through a cast. *)
type binding = ..

type 'a slot = { id : int; inj : 'a -> binding; prj : binding -> 'a }

let slot_ids = Atomic.make 0

let new_slot (type a) () : a slot =
  let module M = struct
    type binding += B of a
  end in
  {
    id = Atomic.fetch_and_add slot_ids 1;
    inj = (fun v -> M.B v);
    (* [prj] only ever sees the binding stored under this slot's id. *)
    prj = (function M.B v -> v | _ -> assert false);
  }

type t = {
  n : int;
  procs : proc array;
  mutable clock : int;
  mutable spawned : int;
  rng : Bprc_rng.Splitmix.t;  (* adversary stream *)
  tr : Trace.t option;
  max_steps : int;
  mutable current : int;
  mutable adversary : Adversary.t;
  mutable next_reg_id : int;
  mutable flip_source : (pid:int -> bool) option;
  mutable flip_observer : (pid:int -> bool -> unit) option;
  mutable last_access : int;  (* packed access code, see above *)
  mutable last_flip : bool;  (* value drawn by the last Flip access *)
  mutable seed : int;
  ctx : Adversary.ctx;  (* one context record, mutated in place *)
  scratch : int array array;
      (* scratch.(k) has length k; runnable_pids fills the right one in
         place, so the per-step runnable set never allocates *)
  mutable runnable_cache : int array;
      (* last result of [runnable_pids] (one of [scratch]); valid while
         [runnable_dirty] is unset and no stall is pending *)
  mutable runnable_dirty : bool;
  mutable max_stall : int;
      (* the runnable set last changes because of stalls at
         [clock = max_stall] (a pid with [stall_until = max_stall] joins
         exactly then); the cache is rebuilt every step up to and
         including that clock, and trusted afterwards *)
  mutable validate : bool;
      (* check every adversary choice against the runnable set it was
         shown; O(n) per step, so off by default — see [set_validate] *)
  mutable owner : int;
      (* id of the domain that created or last [reset] this arena; the
         scratch buffers, ctx record and effect continuations are
         single-domain state, so [step]/[run] refuse to drive the arena
         from anywhere else *)
  mutable slots : (int * binding) list;
      (* [slot] values by slot id; they live as long as the arena and
         survive [reset] *)
}

type 'a handle = { cell : 'a option ref }

type outcome = Completed | Hit_step_limit

let self_id () = (Domain.self () :> int)

let check_owner t what =
  let d = self_id () in
  if t.owner <> d then
    invalid_arg
      (Printf.sprintf
         "Sim.%s: arena owned by domain %d driven from domain %d (Sim.reset \
          adopts ownership)"
         what t.owner d)

(* Rewind every process slot and its RNG stream in place.  The per-pid
   streams are [fork master (pid + 1)] of a master seeded from [seed];
   [reseed_fork] composes the two without allocating generator records,
   so a reset costs field writes only. *)
let reset_procs ~seed procs =
  Array.iter
    (fun p ->
      p.status <- st_crashed (* replaced at spawn *);
      p.kont <- kont_none;
      p.steps <- 0;
      p.flips <- 0;
      p.stall_until <- 0;
      Bprc_rng.Splitmix.reseed_fork p.prng ~seed (p.ppid + 1))
    procs

let create ?(seed = 0) ?(max_steps = 10_000_000) ?(record_trace = false)
    ?trace_capacity ~n ~adversary () =
  if n <= 0 then invalid_arg "Sim.create: n must be positive";
  let procs =
    Array.init n (fun i ->
        {
          ppid = i;
          status = st_crashed;
          kont = kont_none;
          steps = 0;
          flips = 0;
          stall_until = 0;
          prng = Bprc_rng.Splitmix.create ~seed:0;
        })
  in
  reset_procs ~seed procs;
  let rng = Bprc_rng.Splitmix.create ~seed:0 in
  Bprc_rng.Splitmix.reseed_fork rng ~seed 0;
  let tr =
    if record_trace then Some (Trace.create ?capacity:trace_capacity ())
    else None
  in
  {
    n;
    procs;
    clock = 0;
    spawned = 0;
    rng;
    tr;
    max_steps;
    current = -1;
    adversary;
    next_reg_id = 0;
    flip_source = None;
    flip_observer = None;
    last_access = access_none;
    last_flip = false;
    seed;
    ctx = { Adversary.clock = 0; runnable = [||]; rng; trace = tr };
    scratch = Array.init (n + 1) (fun k -> Array.make k 0);
    runnable_cache = [||];
    runnable_dirty = true;
    max_stall = 0;
    validate = debug;
    owner = self_id ();
    slots = [];
  }

let reset ?seed ?adversary t =
  (match seed with Some s -> t.seed <- s | None -> ());
  (match adversary with Some a -> t.adversary <- a | None -> ());
  reset_procs ~seed:t.seed t.procs;
  Bprc_rng.Splitmix.reseed_fork t.rng ~seed:t.seed 0;
  t.clock <- 0;
  t.spawned <- 0;
  t.current <- -1;
  t.next_reg_id <- 0;
  t.flip_source <- None;
  t.flip_observer <- None;
  t.last_access <- access_none;
  t.last_flip <- false;
  t.ctx.Adversary.clock <- 0;
  t.ctx.Adversary.runnable <- t.scratch.(0);
  t.runnable_cache <- t.scratch.(0);
  t.runnable_dirty <- true;
  t.max_stall <- 0;
  t.owner <- self_id ();
  match t.tr with None -> () | Some tr -> Trace.clear tr

(* Trace-event construction is confined to the [Some tr] branch: with
   recording off (the experiment and explorer default) an access is two
   field writes and no allocation. *)
let[@inline always] record_access t pid reg_id reg_name k kind =
  t.last_access <- access_code ~reg_id k;
  match t.tr with
  | None -> ()
  | Some tr -> Trace.record tr { Trace.time = t.clock; pid; reg_id; reg_name; kind }

let note t ~pid s =
  (* Notes are annotations, not accesses: [last_access] keeps the value
     of the step's real access. *)
  match t.tr with
  | None -> ()
  | Some tr ->
    Trace.record tr
      { Trace.time = t.clock; pid; reg_id = -1; reg_name = ""; kind = Trace.Note s }

(* Run or resume a fiber of process [p] until it suspends or finishes.
   Deep handlers keep the handler installed across resumptions, so this
   wrapper is only entered for the initial start.  The two suspension
   closures (and their [Some] wrappers) are hoisted out of [effc]: they
   are allocated once per fiber, not on every perform — [effc] itself
   runs on every suspension and is part of the per-step hot path. *)
let start_fiber (p : proc) (body : unit -> unit) =
  let on_yield =
    Some
      (fun (k : (unit, unit) continuation) ->
        p.status <- st_suspended;
        p.kont <- Obj.repr k)
  in
  let on_flip =
    Some
      (fun (k : (bool, unit) continuation) ->
        p.status <- st_pending_flip;
        p.kont <- Obj.repr k)
  in
  match_with
    (fun () ->
      body ();
      p.status <- st_finished;
      p.kont <- kont_none)
    ()
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield_step -> (on_yield : ((a, unit) continuation -> unit) option)
          | Flip_coin -> (on_flip : ((a, unit) continuation -> unit) option)
          | _ -> None);
    }

let draw_flip t (p : proc) =
  let b =
    match t.flip_source with
    | Some f -> f ~pid:p.ppid
    | None -> Bprc_rng.Splitmix.bool p.prng
  in
  p.flips <- p.flips + 1;
  t.last_access <- access_flip;
  t.last_flip <- b;
  (match t.tr with
  | None -> ()
  | Some tr ->
    Trace.record tr
      {
        Trace.time = t.clock;
        pid = p.ppid;
        reg_id = -1;
        reg_name = "";
        kind = Trace.Flip b;
      });
  (match t.flip_observer with Some f -> f ~pid:p.ppid b | None -> ());
  b

(* Execute one atomic step of process [pid]. *)
let[@inline always] step_pid t pid =
  let p = t.procs.(pid) in
  t.last_access <- access_none;
  t.clock <- t.clock + 1;
  p.steps <- p.steps + 1;
  t.current <- pid;
  let st = p.status in
  let payload = p.kont in
  if debug then check_kont_shape st payload;
  p.status <- st_running;
  (if st = st_suspended then continue (Obj.obj payload : (unit, unit) continuation) ()
   else if st = st_pending_flip then begin
     (* [draw_flip] runs observer callbacks in scheduler context, where
        no effect handler is installed; clear [current] so a register
        helper called from an observer takes its outside-a-fiber no-op
        path instead of performing an unhandled effect. *)
     t.current <- -1;
     let b = draw_flip t p in
     t.current <- pid;
     continue (Obj.obj payload : (bool, unit) continuation) b
   end
   else if st = st_not_started then start_fiber p (Obj.obj payload : unit -> unit)
   else begin
     p.status <- st;
     invalid_arg "Sim.step_pid: process not runnable"
   end);
  t.current <- -1;
  if p.status > st_running then t.runnable_dirty <- true

(* Fill the right-sized scratch buffer with the schedulable pids,
   ascending.  Two cheap counting passes instead of list building: the
   result is one of [t.scratch], so steady-state scheduling allocates
   nothing. *)
let rebuild_runnable t =
  let live = ref 0 and all = ref 0 in
  for i = 0 to t.n - 1 do
    let p = Array.unsafe_get t.procs i in
    if p.status <= st_pending_flip then begin
      incr all;
      if p.stall_until <= t.clock then incr live
    end
  done;
  (* If every runnable process is stalled, ignore the stalls: the
     adversary must still schedule someone, and an asynchronous system
     cannot deadlock on stalls alone. *)
  let use_live = !live > 0 in
  let out = t.scratch.(if use_live then !live else !all) in
  let j = ref 0 in
  for i = 0 to t.n - 1 do
    let p = Array.unsafe_get t.procs i in
    if p.status <= st_pending_flip then
      if (not use_live) || p.stall_until <= t.clock then begin
        Array.unsafe_set out !j i;
        incr j
      end
  done;
  t.runnable_cache <- out;
  t.runnable_dirty <- false;
  out

(* Membership in the runnable set depends only on process statuses and
   pending stalls, and a step leaves its process runnable unless it
   finished — so the scan is skipped entirely on the common path and
   redone only when a status changed or a stall may still expire.  The
   stall condition is inclusive: a pid with [stall_until = max_stall]
   joins the set exactly at [clock = max_stall], so the rebuild at that
   clock must still happen or the cache goes stale with the pid starved
   until an unrelated status change. *)
let[@inline always] runnable_pids t =
  if t.runnable_dirty || t.clock <= t.max_stall then rebuild_runnable t
  else t.runnable_cache

let[@inline always] step_inline t =
  let runnable = runnable_pids t in
  if Array.length runnable = 0 then false
  else begin
    let ctx = t.ctx in
    ctx.Adversary.clock <- t.clock;
    (* The scratch buffer is stable across steps; skipping the no-op
       pointer store also skips its write barrier. *)
    if ctx.Adversary.runnable != runnable then
      ctx.Adversary.runnable <- runnable;
    let pid = t.adversary.choose ctx in
    if t.validate && not (Array.exists (fun p -> p = pid) runnable) then
      invalid_arg
        (Printf.sprintf "Sim.step: adversary %s chose non-runnable pid %d"
           t.adversary.name pid);
    step_pid t pid;
    true
  end

let step t =
  check_owner t "step";
  step_inline t

let run t =
  check_owner t "run";
  if t.spawned < t.n then
    invalid_arg "Sim.run: fewer processes spawned than n";
  let rec go () =
    if t.clock >= t.max_steps then Hit_step_limit
    else if step_inline t then go ()
    else Completed
  in
  go ()

let spawn t f =
  if t.spawned >= t.n then invalid_arg "Sim.spawn: already spawned n processes";
  let pid = t.spawned in
  t.spawned <- t.spawned + 1;
  let cell = ref None in
  let body () = cell := Some (f ()) in
  let p = t.procs.(pid) in
  p.status <- st_not_started;
  p.kont <- Obj.repr (body : unit -> unit);
  t.runnable_dirty <- true;
  { cell }

let result h = !(h.cell)

let crash t pid =
  let p = t.procs.(pid) in
  if p.status <> st_finished then begin
    p.status <- st_crashed;
    p.kont <- kont_none;
    t.runnable_dirty <- true
  end

let stall t pid ~steps =
  if steps < 0 then invalid_arg "Sim.stall: negative duration";
  let p = t.procs.(pid) in
  p.stall_until <- max p.stall_until (t.clock + steps);
  t.max_stall <- max t.max_stall p.stall_until

let crashed t pid = t.procs.(pid).status = st_crashed
let finished t pid = t.procs.(pid).status = st_finished
let clock t = t.clock
let n t = t.n
let registers_created t = t.next_reg_id
let max_steps t = t.max_steps
let steps_of t pid = t.procs.(pid).steps
let flips_of t pid = t.procs.(pid).flips
let trace t = t.tr
let last_access_code t = t.last_access

let last_access t =
  let c = t.last_access in
  if c = access_none then None
  else
    let reg_id = (c lsr 2) - 1 in
    let kind =
      match c land 3 with
      | 0 -> Trace.Read
      | 1 -> Trace.Write
      | 2 -> Trace.Flip t.last_flip
      | _ -> Trace.Step
    in
    Some (reg_id, kind)

let set_flip_source t f = t.flip_source <- Some f
let set_flip_observer t f = t.flip_observer <- Some f
let set_validate t on = t.validate <- on

(* A yield performed outside any fiber (setup or checker code) must be
   a no-op rather than an error, so register helpers can be reused for
   initialization.  [t.current >= 0] holds exactly while a fiber of
   this simulator is being stepped (the scheduler clears it around
   observer callbacks), so the guard replaces a per-access [try]/[with]
   on [Effect.Unhandled] — an exception frame saved on every step. *)
let make_runtime (t : t) : (module Runtime_intf.S) =
  (module struct
    type 'a reg = { mutable v : 'a; id : int; name : string }

    let make_reg ?(name = "r") v =
      let id = t.next_reg_id in
      t.next_reg_id <- id + 1;
      { v; id; name }

    let read r =
      if t.current >= 0 then perform Yield_step;
      let v = r.v in
      record_access t t.current r.id r.name access_read Trace.Read;
      v

    let write r v =
      if t.current >= 0 then perform Yield_step;
      r.v <- v;
      record_access t t.current r.id r.name access_write Trace.Write

    let peek r = r.v
    let poke r v = r.v <- v

    let flip () =
      if t.current >= 0 then perform Flip_coin
      else Bprc_rng.Splitmix.bool t.rng

    let pid () = t.current
    let n = t.n
    let now () = t.clock

    let yield () =
      if t.current >= 0 then perform Yield_step;
      record_access t t.current (-1) "" access_yield Trace.Step
  end : Runtime_intf.S)

(* Top-level rather than a local closure: a lookup that hits allocates
   nothing. *)
let rec find_slot t s make = function
  | (id, b) :: rest -> if id = s.id then s.prj b else find_slot t s make rest
  | [] ->
    let v = make t in
    t.slots <- (s.id, s.inj v) :: t.slots;
    v

let slot t s make = find_slot t s make t.slots

(* The module is pure closure state over [t] and the mli promises it
   stays valid across [reset], so it is built once per arena: per-run
   callers (the explorer's setup closures) get the same physical module
   instead of twelve fresh closures per run. *)
let runtime_slot : (module Runtime_intf.S) slot = new_slot ()
let runtime t = slot t runtime_slot make_runtime
