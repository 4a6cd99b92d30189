(* Entry point:
     bench.exe --workload W --seed N --seconds S --trace 0|1 [--pin K=V]...
   prints progress lines, then one JSON result object as the last line
   of standard output.  A failed correctness gate prints the result with
   "correct": false and exits 1; bad arguments exit 2. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload decide|serve|explore|large-n --seed N \
     --seconds S --trace 0|1 [--pin KEY=VALUE]...";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: tl ->
      workload := Some w;
      go tl
    | "--seed" :: s :: tl ->
      seed := int_of_string_opt s;
      go tl
    | "--seconds" :: s :: tl ->
      seconds := Option.bind (float_of_string_opt s) (fun v ->
          if v > 0.0 then Some v else None);
      go tl
    | "--trace" :: ("0" | "1" as t) :: tl ->
      trace := Some (t = "1");
      go tl
    | "--pin" :: kv :: tl -> (
      match String.index_opt kv '=' with
      | Some i ->
        Common.pin_overrides :=
          ( String.sub kv 0 i,
            String.sub kv (i + 1) (String.length kv - i - 1) )
          :: !Common.pin_overrides;
        go tl
      | None -> usage ())
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
    { Common.workload; seed; seconds; trace }
  | _ -> usage ()

let () =
  let a = parse Sys.argv in
  let run =
    match (a.workload, a.trace) with
    | "decide", false -> Protocol.end_to_end Protocol.decide
    | "decide", true -> Protocol.traced Protocol.decide
    | "large-n", false -> Protocol.end_to_end Protocol.large_n
    | "large-n", true -> Protocol.traced Protocol.large_n
    | "serve", false -> Serve.end_to_end
    | "serve", true -> Serve.traced
    | "explore", false -> Explore.end_to_end
    | "explore", true -> Explore.traced
    | _ -> usage ()
  in
  Common.info "workload=%s seed=%d seconds=%g trace=%b" a.workload a.seed
    a.seconds a.trace;
  match run a with
  | attempted, failed, metrics ->
    Common.print_result ~correct:true ~attempted ~failed metrics
  | exception Common.Gate msg ->
    Common.info "correctness gate failed: %s" msg;
    Common.print_result ~correct:false ~attempted:1 ~failed:1 [];
    exit 1
