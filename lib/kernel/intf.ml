(** Interfaces shared by every executor in the repository.

    The whole engine is polymorphic in the type of memory locations (the
    paper's {e access paths}) and the type of stored values. The benchmark
    ledger's locations are immediates ([Ledger.Loc.t], a [private int]
    packing account and field); the MiniMove virtual machine's are
    [{addr; resource}] records. *)

(** Memory locations / access paths. Must be hashable (MVMemory shards by
    hash) and totally ordered (deterministic snapshots). An immediate [t]
    keeps the key arrays of MVMemory and the base tier free of pointers,
    and lets [equal] and [compare] run without touching memory; a boxed
    [t] costs a dereference in every table probe. *)
module type LOCATION = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

(** Values stored at memory locations.

    [as_counter] / [of_counter] expose the integer view that commutative
    delta operations act on (DESIGN.md §12): a value a delta can apply to
    must round-trip ([as_counter (of_counter n) = Some n]); values with no
    integer view answer [None] and delta ops on them report
    [Not_a_counter]. *)
module type VALUE = sig
  type t

  val equal : t -> t -> bool

  val hash : t -> int
  (** Structural hash, consistent with [equal] and stable across processes:
      the chain's delta digests and the Merkle substrate (DESIGN.md §13)
      fold it into roots that replicas compare byte-for-byte, so it must
      depend only on the value's contents — never on physical identity, and
      never through the depth/width-limited generic [Hashtbl.hash] for
      values with unbounded payloads (hash every byte of a string, every
      field of a record). *)

  val pp : Format.formatter -> t -> unit

  val as_counter : t -> int option
  (** Integer view for commutative delta ops; [None] if the value is not
      counter-typed. *)

  val of_counter : int -> t
  (** Build the value holding integer [n]; must satisfy
      [as_counter (of_counter n) = Some n]. *)
end

(** Read-only snapshot of the state as of the beginning of the block: the
    paper's [Storage] module. [None] means the location does not exist. *)
type ('loc, 'value) storage = 'loc -> 'value option
