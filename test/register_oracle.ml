(* Test oracles for single-register histories, over the library's
   [Hist] events and [Specs.reg_op] payloads: atomicity through the
   Wing–Gong checker [Lin], and single-writer regularity, which only the
   register tests ask for. *)

open Bprc_registers

type event = Specs.reg_op Hist.event

(* One checker per initial value: [Lin.Make] is applied once per [init],
   not once per history (the exhaustive tests check hundreds of
   thousands of histories). *)
let checkers : (int, event array -> bool) Hashtbl.t = Hashtbl.create 4

let atomic ~init (events : event list) =
  let linearizable =
    match Hashtbl.find_opt checkers init with
    | Some f -> f
    | None ->
      let module L = Lin.Make ((val Specs.register ~init)) in
      Hashtbl.add checkers init L.linearizable;
      L.linearizable
  in
  linearizable (Array.of_list events)

let value (e : event) = match e.op with Specs.Read v | Specs.Write v -> v
let is_write (e : event) = match e.op with Specs.Write _ -> true | _ -> false

(* Every read returns the value of a write it overlaps, or of the last
   write that precedes it ([init] when there is none).  Assumes a single
   writer: raises [Invalid_argument] if two writes overlap. *)
let regular ~init (events : event list) =
  let writes =
    List.filter is_write events
    |> List.sort (fun (a : event) b -> compare a.start_time b.start_time)
  in
  let rec check_disjoint = function
    | a :: (b :: _ as rest) ->
      if not (Hist.precedes a b) then
        invalid_arg "Register_oracle.regular: overlapping writes";
      check_disjoint rest
    | _ -> ()
  in
  check_disjoint writes;
  let read_ok r =
    let prior =
      List.fold_left
        (fun acc w -> if Hist.precedes w r then value w else acc)
        init writes
    in
    let overlapping w = not (Hist.precedes w r || Hist.precedes r w) in
    value r = prior
    || List.exists (fun w -> overlapping w && value w = value r) writes
  in
  List.for_all (fun e -> is_write e || read_ok e) events

(* Run [f] as one operation of [pid], recording it in [hist] with the
   payload [op result]. *)
let timed hist pid op f =
  let s = Hist.stamp hist in
  let r = f () in
  Hist.record hist ~pid ~start_time:s ~finish_time:(Hist.stamp hist) (op r);
  r
