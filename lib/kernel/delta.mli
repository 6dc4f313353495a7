(** Bounded commutative deltas (DESIGN.md §12): the argument of an
    aggregator-style read-modify-write that never observes the value.

    A delta adds a signed amount to an integer-typed location under
    inclusive [lo, hi] bounds (underflow / overflow limits). Addition
    commutes, so two deltas on the same location conflict only through
    their bounds: {!apply} succeeds iff the base lies in the delta's
    {!admissible} range, and a delta-applying read validates on range
    membership instead of value equality. *)

type t = private {
  net : int;  (** Signed sum of the folded amounts. *)
  min_p : int;  (** Minimum prefix sum over the folded amounts. *)
  max_p : int;  (** Maximum prefix sum over the folded amounts. *)
  lo : int;  (** Inclusive lower bound on every intermediate result. *)
  hi : int;  (** Inclusive upper bound on every intermediate result. *)
}

val add : ?lo:int -> ?hi:int -> int -> t
(** [add amount] increments by [amount >= 0]. Bounds default to
    [\[0, max_int\]], i.e. unsigned-with-overflow-check semantics.
    @raise Invalid_argument on a negative amount. *)

val sub : ?lo:int -> ?hi:int -> int -> t
(** [sub amount] decrements by [amount >= 0]; with the default bounds a
    result below [0] is a bounds violation (underflow).
    @raise Invalid_argument on a negative amount. *)

val compose : t -> t -> t
(** [compose d1 d2]: the delta equivalent to applying [d1] then [d2].
    Its {!admissible} range is contained in [d1]'s — composition only
    shrinks the set of acceptable bases, which makes per-operation range
    descriptors sound. *)

val admissible : t -> int * int
(** Inclusive range of bases the delta applies to without violating its
    bounds: [(lo - min_p, hi - max_p)], saturating. Empty (first component
    greater than second) iff the delta can never apply. *)

val apply : t -> int -> int option
(** [apply d b] is [Some (b + d.net)] when [b] is {!admissible}, [None]
    (bounds violation) otherwise. *)

val pp : Format.formatter -> t -> unit
