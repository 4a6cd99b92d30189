(** The concurrent bounded encoding of the distance graph (§4.3).

    Each pair of processes shares two counters on a cycle of size
    [3K]: [e.(i).(j)] is process [i]'s pointer for the pair [(i,j)]
    (only process [i] ever changes row [i]).  Decoding a pair with
    [a = (e.(i).(j) - e.(j).(i)) mod 3K]:

    - [a = 0]: both edges, weight 0 (tokens level);
    - [1 ≤ a ≤ K]: edge [(i,j)] with weight [a] ([i] leads [j] by [a]);
    - [2K ≤ a < 3K]: edge [(j,i)] with weight [3K - a];
    - [K < a < 2K]: undecodable — never reached, because a process only
      advances its pointer when it trails or leads by less than [K].

    [inc_row] is the paper's [inc_graph]: given a (possibly stale,
    snapshot-read) view of all rows, compute process [i]'s next row by
    advancing the pointers toward processes it tightly trails (along a
    max path) or leads by less than [K]. *)

type t

val create : k:int -> n:int -> t
(** All counters 0 (all tokens level). *)

val of_rows : k:int -> int array array -> t
(** Adopt existing rows (e.g. scanned from shared memory).
    @raise Invalid_argument if the matrix is not square or an entry is
    outside [[0, 3K)]. *)

val set_rows : t -> int array array -> unit
(** [of_rows] in place: adopt the rows into an existing (scratch) [t],
    with the identical validation and error messages, allocating
    nothing.  One scratch counter object per protocol instance absorbs
    a scanned view per round. *)

val set_row : t -> int -> int array -> unit
(** Adopt a single row (validated like {!set_rows}) — lets a caller
    holding per-process row arrays fill the scratch without assembling
    a row matrix first.  The row's contents are compared with the
    stored row; only a row that differs is validated and copied, and
    makes the next {!to_graph_into} decode.  The row is copied, never
    kept: a caller that never mutates an array after passing it may
    skip passing the same physical array again, since the stored row
    still equals it.
    @raise Invalid_argument on a bad row index, length or entry. *)

val k : t -> int
val n : t -> int

val row : t -> int -> int array
(** Copy of row [i].  Allocates; tests/debug only — hot callers use
    {!get}/{!iter_rows}. *)

val rows : t -> int array array
(** Copy of the whole matrix.  Allocates a fresh matrix per call;
    kept for tests and debugging only — hot callers use
    {!get}/{!iter_rows}. *)

val get : t -> int -> int -> int
(** [get t i j]: the counter at [(i,j)], allocation-free.
    @raise Invalid_argument when an index is outside [[0, n)]. *)

val iter_rows : t -> (int -> int -> int -> unit) -> unit
(** [iter_rows t f] calls [f i j (get t i j)] for every entry in
    row-major order — the allocation-free traversal backing what
    {!rows} is for in tests. *)

val decode_pair : t -> int -> int -> int
(** The raw cyclic difference [a] for the ordered pair (see above). *)

val valid : t -> bool
(** No pair decodes into the forbidden band [(K, 2K)]. *)

val to_graph : t -> Distance_graph.t
(** @raise Invalid_argument when {!valid} is false. *)

val to_graph_into : t -> Distance_graph.t -> unit
(** [to_graph] decoded into a caller-owned scratch graph (built with
    {!Distance_graph.create_scratch} at the same [k]/[n]), after which
    the scratch answers every query exactly as a fresh [to_graph t]
    would — allocating nothing.  When no counter changed
    ({!set_row}, {!apply_inc}) since [t] last filled this same graph,
    and nothing else mutated the graph since (its
    {!Distance_graph.generation}), the graph and its cached position
    reconstruction are left as they are; otherwise every pair is
    decoded.
    @raise Invalid_argument when {!valid} is false (same message as
    {!to_graph}; the graph's contents are then unspecified until the
    next fill, which decodes every pair) or on a scratch-shape
    mismatch. *)

val inc_row_with : t -> graph:Distance_graph.t -> int -> int array
(** {!inc_row} against a caller-supplied decode of [t] — the scratch
    graph just refilled by {!to_graph_into} — so the hot path decodes
    once per scan instead of once more per increment.  The returned row
    is fresh (it is published to shared memory and must not alias the
    scratch).
    @raise Invalid_argument on a graph shape mismatch. *)

val inc_row : t -> int -> int array
(** The new row for process [i] per [inc_graph]; pure. *)

val apply_inc : t -> int -> unit
(** [inc_row] stored in place (sequential/test convenience); the next
    {!to_graph_into} decodes. *)
