(* Shared plumbing of the benchmark: the clock, order statistics, the
   seeded input stream, digests, pinned values and the result line. *)

module Splitmix = Bprc_rng.Splitmix

(* ---- clock ------------------------------------------------------------ *)

(* CLOCK_MONOTONIC in nanoseconds; unboxed and allocation-free, so the
   traced wrappers can stamp every register operation. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

let time_s f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* ---- host speed ------------------------------------------------------- *)

(* On a shared 2-vCPU x86-64 VM a busy core ran anywhere from full to
   less than half speed, drifting over seconds to tens of seconds as
   its neighbours came and went: a fixed loop timed back to back read
   64 to 150 ms, and its CPU time read the same, so a CPU clock would
   not hide it.  So timings are scaled by the host's current speed: a
   fixed piece of the benchmark's own work (hash-table updates and list
   allocation, no library code) is timed every [interval_s], and a time
   just measured is multiplied by [nominal_ns] over the latest reading.
   The figures read as seconds on a host that runs the probe in
   [nominal_ns]: a change to the program moves them, the neighbours
   mostly do not.  [mean_factor] is printed with each result. *)
module Host = struct
  let nominal_ns = 200_000.0
  let interval_s = 0.05
  let table : (int, int list) Hashtbl.t = Hashtbl.create 1024

  let work () =
    let acc = ref 0 in
    for i = 0 to 2_499 do
      let k = i * 7919 land 1023 in
      match Hashtbl.find_opt table k with
      | Some l ->
        acc := !acc + List.length l;
        Hashtbl.replace table k (if List.length l > 4 then [ i ] else i :: l)
      | None -> Hashtbl.replace table k [ i ]
    done;
    !acc

  (* Best of three back-to-back probes, in ns. *)
  let probe_ns () =
    let best = ref max_int in
    for _ = 1 to 3 do
      let t0 = now_ns () in
      ignore (Sys.opaque_identity (work ()));
      best := min !best (now_ns () - t0)
    done;
    float_of_int !best

  let factor = ref 1.0
  let last = ref neg_infinity
  let words = ref 0.0  (* minor words the probes allocated *)
  let probes = ref 0
  let sum_factor = ref 0.0

  let refresh () =
    let t = now_s () in
    if t -. !last >= interval_s then begin
      let w0 = Gc.minor_words () in
      factor := nominal_ns /. probe_ns ();
      words := !words +. (Gc.minor_words () -. w0);
      last := now_s ();
      incr probes;
      sum_factor := !sum_factor +. !factor
    end

  (* [dt] seconds just measured, in nominal seconds.  A span longer
     than [interval_s] had no probe inside it: it takes the mean of the
     readings just before and just after. *)
  let scale dt =
    let before = !factor in
    refresh ();
    if dt > interval_s then dt *. 0.5 *. (before +. !factor)
    else dt *. !factor

  let mean_factor () = if !probes = 0 then 1.0 else !sum_factor /. float_of_int !probes
end

(* ---- order statistics ------------------------------------------------- *)

(* Linear-interpolation quantile, [q] in [0, 1]. *)
let quantile q xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let len = Array.length a in
  if len = 0 then nan
  else
    let r = q *. float_of_int (len - 1) in
    let lo = int_of_float (floor r) in
    let hi = min (len - 1) (lo + 1) in
    if a.(hi) = infinity then infinity
    else a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* A growable float sample buffer, for latencies gathered in a loop. *)
module Samples = struct
  type t = { mutable a : float array; mutable len : int }

  let create ?(capacity = 1024) () = { a = Array.make (max 1 capacity) 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.a then begin
      let b = Array.make (2 * t.len) 0.0 in
      Array.blit t.a 0 b 0 t.len;
      t.a <- b
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.a 0 t.len
  let length t = t.len
end

(* ---- seeded inputs ---------------------------------------------------- *)

(* Item [i] of the stream rooted at [seed]: independent of every other
   index and of how many items a run gets through. *)
let item_seed ~seed i = Splitmix.bits30 (Splitmix.fork (Splitmix.create ~seed) i)

(* ---- digests ---------------------------------------------------------- *)

(* One instance's pure outcome, appended to a running record buffer;
   the MD5 of the buffer is the instance stream's digest.  Appending
   allocates nothing once the buffer has grown. *)
let add_outcome buf ~n ~seed ~steps (decisions : bool option array) =
  Buffer.add_int64_le buf (Int64.of_int n);
  Buffer.add_int64_le buf (Int64.of_int seed);
  Buffer.add_int64_le buf (Int64.of_int steps);
  Array.iter
    (function
      | None -> Buffer.add_char buf '-'
      | Some false -> Buffer.add_char buf '0'
      | Some true -> Buffer.add_char buf '1')
    decisions

let md5 s = Digest.to_hex (Digest.string s)

(* ---- gates ------------------------------------------------------------ *)

exception Gate of string

let gate cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Gate msg)) fmt

(* Pinned values are compiled in; [--pin KEY=VALUE] replaces one, which
   the benchmark's own tests use to prove the gate is live. *)
let pin_overrides : (string * string) list ref = ref []

let pinned key default =
  match List.assoc_opt key !pin_overrides with Some v -> v | None -> default

let check_pin key ~got ~default =
  let want = pinned key default in
  gate (got = want) "pinned %s: got %s, want %s" key got want

(* ---- arguments and the result line ------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* All digits; an infinite latency (a refused instance) prints as a
   JSON number that overflows to infinity. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if v = infinity then "1e999"
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_float x.value) x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let info fmt = Printf.printf (fmt ^^ "\n%!")

(* ---- shared measurement helpers --------------------------------------- *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Set-up time.  A run sets up once for the state it measures, then
   again after every pass (each copy released at once), so the set-ups
   sample the whole run and [setup_s], their median, does not hang on
   the host's speed at one moment. *)
let setup_times = Samples.create ()

let timed_setup setup =
  Gc.compact ();
  Host.last := neg_infinity;
  Host.refresh ();
  let st, dt = time_s setup in
  Samples.add setup_times (Host.scale dt);
  st

let resample_setup setup =
  let _, release = timed_setup setup in
  release ()

(* At least [k] set-ups in all: a run that had time for few passes
   makes up the rest at its end. *)
let top_up_setups ?(k = 5) setup =
  while Samples.length setup_times < k do
    resample_setup setup
  done

let setup_s () = median (Samples.to_array setup_times)

(* Minor words allocated by [f], the host probes excepted. *)
let minor_words_of f =
  let m0 = Gc.minor_words () and p0 = !Host.words in
  let v = f () in
  (v, Gc.minor_words () -. m0 -. (!Host.words -. p0))
