module Json = Bprc_util.Json

let kind = "bprc-counterexample"
let version = 1

type registry =
  | Hunt of { seed : int; trial : int; plan : Fault_plan.t }
  | Check of { max_steps : int }

type t = {
  registry : registry;
  name : string;
  n : int;
  choices : int list;
  flips : bool list;
  failure : string;
  clock : int;
}

let registry_name = function Hunt _ -> "hunt" | Check _ -> "check"
let plan c = match c.registry with Hunt { plan; _ } -> plan | Check _ -> []

let to_json c =
  let registry_fields =
    match c.registry with
    | Hunt { seed; trial; plan } ->
      [
        ("seed", Json.Int seed);
        ("trial", Json.Int trial);
        ("plan", Fault_plan.to_json plan);
      ]
    | Check { max_steps } -> [ ("max_steps", Json.Int max_steps) ]
  in
  Json.Obj
    ([
       ("kind", Json.Str kind);
       ("version", Json.Int version);
       ("registry", Json.Str (registry_name c.registry));
       ("name", Json.Str c.name);
       ("n", Json.Int c.n);
     ]
    @ registry_fields
    @ [
        ("choices", Json.Arr (List.map (fun i -> Json.Int i) c.choices));
        ("flips", Json.Arr (List.map (fun b -> Json.Bool b) c.flips));
        ("failure", Json.Str c.failure);
        ("clock", Json.Int c.clock);
      ])

let ( let* ) = Result.bind
let error fmt = Printf.ksprintf (fun s -> Error ("counterexample: " ^ s)) fmt

let field j k to_v =
  match Option.bind (Json.member k j) to_v with
  | Some v -> Ok v
  | None -> error "missing or ill-typed field %S" k

let list_field j k to_v =
  let* l = field j k Json.to_list_opt in
  let vs = List.filter_map to_v l in
  if List.length vs = List.length l then Ok vs
  else error "ill-typed element in %S" k

let of_json j =
  let* k = field j "kind" Json.to_string_opt in
  let* () =
    if k = kind then Ok () else error "not a counterexample (kind %S)" k
  in
  let* v = field j "version" Json.to_int_opt in
  let* () = if v = version then Ok () else error "unsupported version %d" v in
  let* registry =
    let* r = field j "registry" Json.to_string_opt in
    match r with
    | "hunt" ->
      let* seed = field j "seed" Json.to_int_opt in
      let* trial = field j "trial" Json.to_int_opt in
      let* plan =
        match Json.member "plan" j with
        | Some p -> Fault_plan.of_json p
        | None -> error "missing field \"plan\""
      in
      Ok (Hunt { seed; trial; plan })
    | "check" ->
      let* max_steps = field j "max_steps" Json.to_int_opt in
      Ok (Check { max_steps })
    | r -> error "unknown registry %S" r
  in
  let* name = field j "name" Json.to_string_opt in
  let* n = field j "n" Json.to_int_opt in
  let* choices = list_field j "choices" Json.to_int_opt in
  let* flips = list_field j "flips" Json.to_bool_opt in
  let* failure = field j "failure" Json.to_string_opt in
  let* clock = field j "clock" Json.to_int_opt in
  Ok { registry; name; n; choices; flips; failure; clock }

let to_string c = Json.to_string (to_json c)

let of_string str =
  let* j = Json.of_string str in
  of_json j

let save ~path c =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string c);
      output_char oc '\n')

let load ~path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | contents -> of_string contents
