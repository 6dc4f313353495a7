(** The transaction representation shared by every executor (Block-STM,
    Sequential, BOHM, LiTM): deterministic code over a read/write/delta
    effects handle — the paper's VM black box. *)

(** What a commutative delta application reported back to the transaction —
    the only observation the transaction gets (DESIGN.md §12). *)
type delta_outcome =
  | Applied  (** The delta was applied within its bounds. *)
  | Bounds_violation
      (** The base was outside the delta's admissible range (overflow /
          underflow): nothing was written. *)
  | Not_a_counter
      (** The location holds a non-integer value: nothing was written. *)

type ('loc, 'value) effects = {
  read : 'loc -> 'value option;
      (** [None]: the location exists neither in the visible write history
          nor in pre-block storage. An executor may unwind a read (or a
          [delta]) by raising, to abort the execution; catching that
          exception does not hide the abort. *)
  write : 'loc -> 'value -> unit;
  delta : 'loc -> Delta.t -> delta_outcome;
      (** Apply a bounded commutative delta to an integer-typed location
          without observing its value (absent = [0]). Executors without
          delta support implement this with {!rmw_delta}. *)
}

(** Transaction code producing an output of type ['o]. Must be a pure
    function of the values its reads return; executors may run it any number
    of times. *)
type ('loc, 'value, 'o) t = ('loc, 'value) effects -> 'o

(** Outcome of a committed transaction. [Failed] captures an exception
    raised by the transaction's code (e.g. a smart-contract abort): the
    transaction commits with an empty write-set (paper §4). *)
type 'o output = Success of 'o | Failed of string

val equal_output : ('o -> 'o -> bool) -> 'o output -> 'o output -> bool
val pp_output : 'o Fmt.t -> Format.formatter -> 'o output -> unit

val rmw_delta :
  read:('loc -> 'value option) ->
  write:('loc -> 'value -> unit) ->
  as_counter:('value -> int option) ->
  of_counter:(int -> 'value) ->
  'loc ->
  Delta.t ->
  delta_outcome
(** Reference implementation of {!effects.delta} as a plain read-modify-write
    over a [read]/[write] pair: materialize the value (absent = [0]), check
    the bounds via {!Delta.apply}, write back the sum. All executors without
    native delta entries build their [delta] field from this, so delta
    semantics agree across executors by construction. *)
