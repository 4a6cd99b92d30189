(* Frozen reference implementation of the sequential explorer, kept
   verbatim from before the flat-bookkeeping rewrite of {!Explorer}.
   It allocates fresh node records per scheduling point and replays
   every run from the root on one arena — the O(runs x depth)
   stateless baseline.  Used only by the differential
   equivalence tests and the [explorer-ref] bench row; never touch it
   when optimising {!Explorer}. *)

module Sim = Bprc_runtime.Sim
module Adversary = Bprc_runtime.Adversary
module Vec = Bprc_util.Vec

type setup = Sim.t -> unit -> (unit, string) result

type witness = {
  choices : int list;
  flips : bool list;
  failure : string;
  clock : int;
}

type stats = {
  runs : int;
  pruned : int;
  step_limited : int;
  exhausted : bool;
  violation : witness option;
}

type replay_outcome = Pass | Fail of string | Cutoff

let acc_local = -1
let acc_opaque = 3

let independent a b =
  if a = acc_local || b = acc_local then true
  else if a land 3 = 3 || b land 3 = 3 then false
  else a lsr 2 <> b lsr 2 || (a land 3 = 0 && b land 3 = 0)

let access_of_step sim =
  let c = Sim.last_access_code sim in
  if c < 0 then acc_local
  else if c land 3 = 2 then acc_local (* coin flips have no shared effect *)
  else c

type sched = {
  order : int array;
  mutable idx : int;
  sleep_in : (int * int) list;  (* (pid, packed access code) *)
  mutable slept : (int * int) list;
  mutable access : int;  (* packed access code of the chosen branch *)
}

type fnode = { mutable value : bool }

type node = Sched of sched | Flip of fnode

exception Prune

let index_of arr pid =
  let n = Array.length arr in
  let rec go i =
    if i >= n then failwith "Explorer_ref: replay divergence (pid not runnable)"
    else if arr.(i) = pid then i
    else go (i + 1)
  in
  go 0

let placeholder_adversary =
  Adversary.make ~name:"explore-init" (fun ctx -> ctx.runnable.(0))

let replay_on sim ~choices ~flips ~setup =
  let fallback = Adversary.make ~name:"first" (fun ctx -> ctx.runnable.(0)) in
  let adversary = Adversary.scripted ~choices ~fallback () in
  Sim.reset ~adversary sim;
  Sim.set_validate sim true;
  let remaining = ref flips in
  Sim.set_flip_source sim (fun ~pid:_ ->
      match !remaining with
      | [] -> false
      | b :: tl ->
        remaining := tl;
        b);
  let check = setup sim in
  match Sim.run sim with
  | Sim.Hit_step_limit -> (Cutoff, Sim.clock sim)
  | Sim.Completed -> (
    match check () with
    | Ok () -> (Pass, Sim.clock sim)
    | Error e -> (Fail e, Sim.clock sim))

let replay ~n ?(max_steps = 2000) ~choices ~flips ~setup () =
  let sim =
    Sim.create ~seed:0 ~max_steps ~n ~adversary:placeholder_adversary ()
  in
  replay_on sim ~choices ~flips ~setup

let explore ~n ?(max_steps = 2000) ?(max_runs = 200_000) ?budget_s
    ?(reduction = true) ?(shrink = true) ~setup () =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) budget_s in
  let over_deadline () =
    match deadline with None -> false | Some d -> Unix.gettimeofday () > d
  in
  let sim =
    Sim.create ~seed:0 ~max_steps ~n ~adversary:placeholder_adversary ()
  in
  let path : node Vec.t = Vec.create () in
  let runs = ref 0 in
  let pruned = ref 0 in
  let cutoff = ref 0 in
  let exhausted = ref false in
  let violation = ref None in
  let run_once () =
    let pos = ref 0 in
    let run_choices = Vec.create () in
    let run_flips = Vec.create () in
    let current = ref None in
    let pending_sleep = ref [] in
    let choose (ctx : Adversary.ctx) =
      let p = !pos in
      incr pos;
      if p < Vec.length path then (
        match Vec.get path p with
        | Sched nd ->
          let pid = nd.order.(nd.idx) in
          Vec.push run_choices (index_of ctx.runnable pid);
          current := Some nd;
          pid
        | Flip _ -> failwith "Explorer_ref: schedule/flip divergence")
      else begin
        let sleep_in = if reduction then !pending_sleep else [] in
        let sleeping = List.map fst sleep_in in
        let order =
          ctx.runnable |> Array.to_list
          |> List.filter (fun pid -> not (List.mem pid sleeping))
          |> Array.of_list
        in
        if Array.length order = 0 then raise Prune;
        let nd =
          { order; idx = 0; sleep_in; slept = []; access = acc_opaque }
        in
        Vec.push path (Sched nd);
        let pid = nd.order.(0) in
        Vec.push run_choices (index_of ctx.runnable pid);
        current := Some nd;
        pid
      end
    in
    let flip ~pid:_ =
      let p = !pos in
      incr pos;
      if p < Vec.length path then (
        match Vec.get path p with
        | Flip f ->
          Vec.push run_flips f.value;
          f.value
        | Sched _ -> failwith "Explorer_ref: schedule/flip divergence")
      else begin
        Vec.push path (Flip { value = false });
        Vec.push run_flips false;
        false
      end
    in
    Sim.reset ~adversary:(Adversary.make ~name:"explore" choose) sim;
    Sim.set_flip_source sim flip;
    let check = setup sim in
    let outcome =
      let rec drive () =
        if Sim.clock sim >= max_steps then `Cutoff
        else if Sim.step sim then begin
          (match !current with
          | Some nd ->
            let a = access_of_step sim in
            nd.access <- a;
            pending_sleep :=
              List.filter
                (fun (_, aq) -> independent aq a)
                (nd.sleep_in @ nd.slept);
            current := None
          | None -> ());
          drive ()
        end
        else `Done
      in
      try drive () with Prune -> `Pruned
    in
    match outcome with
    | `Pruned -> `Pruned
    | `Cutoff -> `Cutoff
    | `Done -> (
      match check () with
      | Ok () -> `Pass
      | Error failure ->
        `Violation
          {
            choices = Vec.to_list run_choices;
            flips = Vec.to_list run_flips;
            failure;
            clock = Sim.clock sim;
          })
  in
  let rec backtrack () =
    match Vec.last path with
    | None -> exhausted := true
    | Some (Flip f) ->
      if f.value then begin
        ignore (Vec.pop path);
        backtrack ()
      end
      else f.value <- true
    | Some (Sched nd) ->
      nd.slept <- (nd.order.(nd.idx), nd.access) :: nd.slept;
      if nd.idx + 1 < Array.length nd.order then nd.idx <- nd.idx + 1
      else begin
        ignore (Vec.pop path);
        backtrack ()
      end
  in
  while
    (not !exhausted)
    && !violation = None
    && !runs < max_runs
    && not (over_deadline ())
  do
    (match run_once () with
    | `Pass -> incr runs
    | `Pruned ->
      incr runs;
      incr pruned
    | `Cutoff ->
      incr runs;
      incr cutoff
    | `Violation w ->
      incr runs;
      violation := Some w);
    if !violation = None then backtrack ()
  done;
  let violation =
    match !violation with
    | None -> None
    | Some w when not shrink -> Some w
    | Some w ->
      let still_fails choices flips =
        match replay_on sim ~choices ~flips ~setup with
        | Fail _, _ -> true
        | (Pass | Cutoff), _ -> false
      in
      let choices =
        Bprc_faults.Shrink.ddmin
          ~test:(fun cs -> still_fails cs w.flips)
          w.choices
      in
      let flips =
        Bprc_faults.Shrink.ddmin ~test:(fun fs -> still_fails choices fs) w.flips
      in
      (match replay_on sim ~choices ~flips ~setup with
      | Fail failure, clock -> Some { choices; flips; failure; clock }
      | (Pass | Cutoff), _ -> Some w)
  in
  {
    runs = !runs;
    pruned = !pruned;
    step_limited = !cutoff;
    exhausted = !exhausted && violation = None;
    violation;
  }
