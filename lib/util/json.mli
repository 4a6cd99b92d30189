(** Minimal JSON document type, emitter and parser (no external
    dependency).

    Used by {!Bprc_harness.Table}/[Report] for the bench-report files
    and by [Bprc_faults.Counterexample] for counterexample files, which
    must round-trip through disk bit-identically. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values serialize as [null] *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering with full string escaping. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed).  Numbers
    without ['.']/['e'] parse as [Int], others as [Float]. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the value bound to [k], if any; [None] on
    non-objects. *)

val to_int_opt : t -> int option
(** [Int], or [Float] with integral value. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
