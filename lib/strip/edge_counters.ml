(* Flat representation: the n x n mod-3K counter matrix lives in one
   [int array] indexed [i*n + j] (row-major, so a process's own row —
   the only part it writes — is one contiguous slice).  The observable
   behavior is pinned against the pre-rewrite [Edge_counters_ref] by
   the differential property tests.

   On top of the matrix sits the decode cache's bookkeeping: whether
   any counter changed since the last [to_graph_into], and which graph
   that fill wrote, at which {!Distance_graph.generation}. *)

type t = {
  kk : int;
  nn : int;
  e : int array;
  mutable changed : bool;  (** a counter changed since the last fill *)
  mutable last : Distance_graph.t;  (** the graph of the last fill *)
  mutable last_gen : int;  (** its generation right after that fill *)
}

(* Stands in for "no fill yet"; never handed out, so never filled. *)
let no_graph = Distance_graph.create_scratch ~k:1 ~n:1

let make ~k ~n e =
  { kk = k; nn = n; e; changed = true; last = no_graph; last_gen = 0 }

let create ~k ~n =
  if k <= 0 || n <= 0 then invalid_arg "Edge_counters.create";
  make ~k ~n (Array.make (n * n) 0)

let of_rows ~k rows =
  let n = Array.length rows in
  Array.iter
    (fun r ->
      if Array.length r <> n then invalid_arg "Edge_counters.of_rows: not square";
      Array.iter
        (fun x ->
          if x < 0 || x >= 3 * k then
            invalid_arg "Edge_counters.of_rows: counter out of range")
        r)
    rows;
  let e = Array.make (n * n) 0 in
  Array.iteri (fun i r -> Array.blit r 0 e (i * n) n) rows;
  make ~k ~n e

(* In-place adoption of scanned rows: the validation and the stored
   matrix are exactly [of_rows]'s (same error messages on bad input),
   minus the fresh allocation — one scratch [t] per protocol instance
   absorbs a view per scan.  Contents decide whether a row changed,
   because this module cannot know whether a caller's arrays are ever
   mutated; an unchanged prefix needs no validation because the stored
   entries are already in range.  A caller that never mutates a row it
   handed over may skip the call for a row it passed last time (ADS89's
   [graph_into] does, by physical equality). *)
let set_row t i (r : int array) =
  if i < 0 || i >= t.nn then invalid_arg "Edge_counters.set_row: no such row";
  let n = t.nn in
  if Array.length r <> n then invalid_arg "Edge_counters.of_rows: not square";
  let base = i * n in
  let j = ref 0 in
  while !j < n && Array.unsafe_get r !j = Array.unsafe_get t.e (base + !j) do
    incr j
  done;
  if !j < n then begin
    for j = !j to n - 1 do
      let x = Array.unsafe_get r j in
      if x < 0 || x >= 3 * t.kk then
        invalid_arg "Edge_counters.of_rows: counter out of range"
    done;
    Array.blit r 0 t.e base n;
    t.changed <- true
  end

let set_rows t rows =
  if Array.length rows <> t.nn then
    invalid_arg "Edge_counters.of_rows: not square";
  for i = 0 to t.nn - 1 do
    set_row t i rows.(i)
  done

let k t = t.kk
let n t = t.nn
let row t i = Array.sub t.e (i * t.nn) t.nn
let rows t = Array.init t.nn (fun i -> row t i)
let get t i j =
  if i < 0 || i >= t.nn || j < 0 || j >= t.nn then
    invalid_arg "Edge_counters.get: index out of range";
  Array.unsafe_get t.e ((i * t.nn) + j)

let iter_rows t f =
  for i = 0 to t.nn - 1 do
    for j = 0 to t.nn - 1 do
      f i j (Array.unsafe_get t.e ((i * t.nn) + j))
    done
  done

(* Every counter lies in [0, 3K), so the difference lies in (-3K, 3K)
   and one conditional add reduces it mod 3K. *)
let[@inline] cyclic t a = if a < 0 then a + (3 * t.kk) else a

let decode_pair t i j = cyclic t (t.e.((i * t.nn) + j) - t.e.((j * t.nn) + i))

let[@inline] forbidden t a = a > t.kk && a < 2 * t.kk

let valid t =
  let ok = ref true in
  for i = 0 to t.nn - 1 do
    for j = i + 1 to t.nn - 1 do
      if forbidden t (decode_pair t i j) then ok := false
    done
  done;
  !ok

let undecodable () = invalid_arg "Edge_counters.to_graph: undecodable state"

(* Both directed entries of the unordered pair {i,j} from one cyclic
   difference [a] of (i,j): [a = 0] is the level pair (both edges,
   weight 0), [a <= K] is edge (i,j) with weight [a], [a >= 2K] is edge
   (j,i) with weight [3K - a]. *)
let[@inline] decode_into t g i j =
  let a =
    cyclic t
      (Array.unsafe_get t.e ((i * t.nn) + j)
      - Array.unsafe_get t.e ((j * t.nn) + i))
  in
  if forbidden t a then undecodable ();
  if a = 0 then begin
    Distance_graph.set_edge g i j 0;
    Distance_graph.set_edge g j i 0
  end
  else if a <= t.kk then begin
    Distance_graph.set_edge g i j a;
    Distance_graph.clear_edge g j i
  end
  else begin
    Distance_graph.clear_edge g i j;
    Distance_graph.set_edge g j i ((3 * t.kk) - a)
  end

let to_graph t =
  if not (valid t) then undecodable ();
  let present i j =
    let a = decode_pair t i j in
    a <= t.kk
  in
  let weight i j =
    let a = decode_pair t i j in
    if a <= t.kk then a else 3 * t.kk - a
  in
  Distance_graph.of_weights ~k:t.kk ~present ~weight ~n:t.nn

(* [to_graph] decoded into a caller-owned scratch graph.  When no
   counter changed and [g] is still exactly what this object's last
   fill left (same graph, no mutation since), the graph and its cached
   positions already answer for [t]; otherwise every pair is decoded.
   A raise part-way through has already moved [g]'s generation, so the
   next fill is a full one. *)
let to_graph_into t g =
  if Distance_graph.n g <> t.nn || Distance_graph.k g <> t.kk then
    invalid_arg "Edge_counters.to_graph_into: scratch graph shape mismatch";
  if t.changed || t.last != g || Distance_graph.generation g <> t.last_gen
  then begin
    Distance_graph.invalidate g;
    for i = 0 to t.nn - 1 do
      for j = i + 1 to t.nn - 1 do
        decode_into t g i j
      done
    done;
    t.changed <- false;
    t.last <- g;
    t.last_gen <- Distance_graph.generation g
  end

let inc_row_with t ~graph i =
  if Distance_graph.n graph <> t.nn || Distance_graph.k graph <> t.kk then
    invalid_arg "Edge_counters.inc_row_with: graph shape mismatch";
  let g = graph in
  let fresh = row t i in
  for j = 0 to t.nn - 1 do
    if j <> i then begin
      let advance =
        (Distance_graph.edge g j i && Distance_graph.on_max_path g j i)
        || (Distance_graph.edge g i j && Distance_graph.weight g i j < t.kk)
      in
      if advance then fresh.(j) <- (fresh.(j) + 1) mod (3 * t.kk)
    end
  done;
  fresh

let inc_row t i = inc_row_with t ~graph:(to_graph t) i

let apply_inc t i =
  Array.blit (inc_row t i) 0 t.e (i * t.nn) t.nn;
  t.changed <- true
