(** The transaction representation shared by every executor in the repo
    (Block-STM, Sequential, BOHM, LiTM).

    A transaction is deterministic code over an {!type:effects} handle — the
    paper's VM black box. Executors differ only in how they implement [read],
    [write] and [delta] (speculative multi-version reads, direct state
    access, ...). Because these are polymorphic record types rather than
    functor members, the same transaction value can be run through all
    executors, which is how the test suite checks output equivalence. *)

(** What a commutative delta application reported back to the transaction.
    The outcome is the {e only} observation the transaction gets — the
    location's value stays hidden, which is what lets executors treat
    concurrent deltas on one location as conflict-free (DESIGN.md §12). *)
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
          without observing its value. An absent location counts as holding
          [0]. Executors without delta support implement this as a plain
          read-modify-write over [read]/[write] ({!rmw_delta}) — the
          semantics are identical; only the conflict behavior differs. *)
}

(** Transaction code producing an output of type ['o]. Must be a pure
    function of the values its reads return. *)
type ('loc, 'value, 'o) t = ('loc, 'value) effects -> 'o

(** Outcome of a committed transaction. [Failed] captures an exception raised
    by the transaction's code (e.g. a smart-contract abort): the transaction
    commits with an empty write-set, mirroring how the Diem VM captures all
    execution errors (paper §4). *)
type 'o output = Success of 'o | Failed of string

let equal_output eq_o a b =
  match (a, b) with
  | Success x, Success y -> eq_o x y
  | Failed x, Failed y -> String.equal x y
  | _ -> false

let pp_output pp_o ppf = function
  | Success o -> Fmt.pf ppf "Success (%a)" pp_o o
  | Failed m -> Fmt.pf ppf "Failed %S" m

(** Reference implementation of {!effects.delta} as a plain read-modify-write
    over a [read]/[write] pair: materialize the value (absent = [0]), check
    the bounds, write back the sum. Every executor without native delta
    entries (Sequential, BOHM, LiTM, the profiler, and Block-STM with
    [delta_ops] off) builds its [delta] field from this, so all executors
    agree on delta semantics by construction. *)
let rmw_delta ~(read : 'loc -> 'value option) ~(write : 'loc -> 'value -> unit)
    ~(as_counter : 'value -> int option) ~(of_counter : int -> 'value)
    (loc : 'loc) (d : Delta.t) : delta_outcome =
  let base =
    match read loc with
    | None -> Some 0
    | Some v -> as_counter v
  in
  match base with
  | None -> Not_a_counter
  | Some b -> (
      match Delta.apply d b with
      | Some r ->
          write loc (of_counter r);
          Applied
      | None -> Bounds_violation)
