(* Chunk [l] into [n] nearly-equal contiguous pieces (fewer when
   [length l < n]). *)
let chunks l n =
  let len = List.length l in
  let n = min n len in
  if n <= 0 then []
  else begin
    let size = (len + n - 1) / n in
    let rec go acc rest =
      match rest with
      | [] -> List.rev acc
      | _ ->
        let rec take k xs acc =
          if k = 0 then (List.rev acc, xs)
          else
            match xs with
            | [] -> (List.rev acc, [])
            | x :: xs -> take (k - 1) xs (x :: acc)
        in
        let chunk, rest = take size rest [] in
        go (chunk :: acc) rest
    in
    go [] l
  end

let ddmin ~test l =
  if l = [] then []
  else if test [] then []
  else begin
    let rec go l n =
      let len = List.length l in
      if len <= 1 then l
      else begin
        let cs = chunks l n in
        match List.find_opt test cs with
        | Some c -> go c 2 (* reduce to a failing subset *)
        | None -> (
          let complements =
            List.mapi
              (fun i _ ->
                List.concat (List.filteri (fun j _ -> j <> i) cs))
              cs
          in
          match List.find_opt test complements with
          | Some c -> go c (max (n - 1) 2) (* a chunk was irrelevant *)
          | None -> if n >= len then l else go l (min len (2 * n)))
      end
    in
    go l 2
  end

(* Schedule choice/flip lists can run to tens of thousands of entries;
   full ddmin re-executes the system per candidate and would be far too
   slow there.  Halving the kept prefix first costs O(log len) replays
   (dropping a suffix = handing the tail back to the deterministic
   fallback), after which ddmin runs only if what remains is small. *)
let ddmin_cap = 2_048

let shrink_prefix ~test l =
  let arr = Array.of_list l in
  let prefix k = Array.to_list (Array.sub arr 0 k) in
  let best = ref (Array.length arr) in
  let continue_ = ref true in
  while !continue_ && !best > 0 do
    let cand = !best / 2 in
    if test (prefix cand) then best := cand else continue_ := false
  done;
  prefix !best

let shrink_sequence ~test l =
  let l = shrink_prefix ~test l in
  if List.length l <= ddmin_cap then ddmin ~test l else l

let script ~(scenario : Scenario.t) (c : Counterexample.t) =
  match c.registry with
  | Counterexample.Check _ ->
    invalid_arg "Shrink.script: not a hunt counterexample"
  | Counterexample.Hunt h ->
    let exec plan choices flips =
      scenario.Scenario.exec ~n:c.n ~seed:h.seed ~plan
        ~mode:(Scenario.Replay { choices; flips })
    in
    let fails plan choices flips =
      (exec plan choices flips).Scenario.failure <> None
    in
    let plan = ddmin ~test:(fun p -> fails p c.choices c.flips) h.plan in
    let choices =
      shrink_sequence ~test:(fun ch -> fails plan ch c.flips) c.choices
    in
    let flips =
      shrink_sequence ~test:(fun f -> fails plan choices f) c.flips
    in
    let r = exec plan choices flips in
    {
      c with
      registry = Counterexample.Hunt { h with plan };
      choices;
      flips;
      failure = Option.value r.Scenario.failure ~default:c.failure;
      clock = r.Scenario.clock;
    }
