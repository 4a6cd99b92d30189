type found = {
  script : Counterexample.t;
  shrunk : Counterexample.t;
  trial : int;
  replay_verified : bool;
}

type outcome =
  | No_failure of { trials_run : int }
  | Found of found
  | Budget_exhausted of { trials_run : int }

let sequential_map f idxs = List.map f idxs

(* Trial [i] is a pure function of (hunt seed, i): plan and simulator
   seed come from the forked stream [Splitmix.fork root i], never from
   scheduling — so outcomes are identical at any worker count. *)
let trial_inputs ~(scenario : Scenario.t) ~seed ~n i =
  let rng = Bprc_rng.Splitmix.fork (Bprc_rng.Splitmix.create ~seed) i in
  let plan = scenario.Scenario.gen_plan ~n ~rng in
  let sim_seed = Bprc_rng.Splitmix.bits30 rng in
  (plan, sim_seed)

let replay_script ~(scenario : Scenario.t) (c : Counterexample.t) =
  match c.registry with
  | Counterexample.Hunt { seed; plan; _ } ->
    scenario.Scenario.exec ~n:c.n ~seed ~plan
      ~mode:(Scenario.Replay { choices = c.choices; flips = c.flips })
  | Counterexample.Check _ ->
    invalid_arg "Hunt.replay_script: not a hunt counterexample"

let run ?budget_s ?(batch = 64) ?(map = sequential_map) ~(scenario : Scenario.t)
    ~trials ~seed ~n () =
  if trials < 0 then invalid_arg "Hunt.run: negative trial count";
  if batch <= 0 then invalid_arg "Hunt.run: batch must be positive";
  let t0 = Unix.gettimeofday () in
  let out_of_budget () =
    match budget_s with
    | Some b -> Unix.gettimeofday () -. t0 >= b
    | None -> false
  in
  let probe i =
    let plan, sim_seed = trial_inputs ~scenario ~seed ~n i in
    (scenario.Scenario.exec ~n ~seed:sim_seed ~plan ~mode:Scenario.Record)
      .Scenario.failure
  in
  let rec go start =
    if start >= trials then No_failure { trials_run = trials }
    else if out_of_budget () then Budget_exhausted { trials_run = start }
    else begin
      let stop = min trials (start + batch) in
      let idxs = List.init (stop - start) (fun j -> start + j) in
      let results = map probe idxs in
      (* [map] preserves order, so the first hit is the lowest failing
         trial index — the same winner at any worker count. *)
      match
        List.find_opt (fun (_, r) -> r <> None) (List.combine idxs results)
      with
      | None -> go stop
      | Some (i, _) ->
        let plan, sim_seed = trial_inputs ~scenario ~seed ~n i in
        let r = scenario.Scenario.exec ~n ~seed:sim_seed ~plan ~mode:Scenario.Record in
        let failure =
          match r.Scenario.failure with
          | Some f -> f
          | None -> assert false (* exec is pure; the probe failed *)
        in
        let script =
          {
            Counterexample.registry =
              Counterexample.Hunt { seed = sim_seed; trial = i; plan };
            name = scenario.Scenario.name;
            n;
            choices = r.Scenario.choices;
            flips = r.Scenario.flips;
            failure;
            clock = r.Scenario.clock;
          }
        in
        let rv = replay_script ~scenario script in
        let replay_verified =
          rv.Scenario.failure = Some failure && rv.Scenario.clock = r.Scenario.clock
        in
        let shrunk = Shrink.script ~scenario script in
        Found { script; shrunk; trial = i; replay_verified }
    end
  in
  go 0
