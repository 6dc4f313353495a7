(** Bounded commutative deltas (DESIGN.md §12): the argument of an
    aggregator-style read-modify-write that never observes the value.

    A delta is a signed amount to add to an integer-typed location, together
    with the running prefix extremes of the additions folded into it and the
    inclusive [lo, hi] bounds every intermediate result must respect
    (overflow / underflow limits). Because addition commutes, two deltas on
    the same location conflict only through their {e bounds}: applying a
    delta to base [b] succeeds iff [b] lies in the delta's {!admissible}
    range, and validation of a delta-applying read checks range membership
    instead of value equality — so hot-location writers that only apply
    deltas do not invalidate each other. *)

type t = {
  net : int;  (** Signed sum of the folded amounts. *)
  min_p : int;  (** Minimum prefix sum over the folded amounts ([<= 0] or the
                    first amount). *)
  max_p : int;  (** Maximum prefix sum over the folded amounts. *)
  lo : int;  (** Inclusive lower bound on every intermediate result. *)
  hi : int;  (** Inclusive upper bound on every intermediate result. *)
}

(* Saturating arithmetic: the default bounds are [0, max_int], so the
   admissible-range arithmetic must not wrap around. *)
let sat_add a b =
  let r = a + b in
  if b > 0 && r < a then max_int else if b < 0 && r > a then min_int else r

let sat_sub a b =
  let r = a - b in
  if b > 0 && r > a then min_int else if b < 0 && r < a then max_int else r

let default_lo = 0
let default_hi = max_int

let add ?(lo = default_lo) ?(hi = default_hi) amount =
  if amount < 0 then invalid_arg "Delta.add: negative amount";
  { net = amount; min_p = amount; max_p = amount; lo; hi }

let sub ?(lo = default_lo) ?(hi = default_hi) amount =
  if amount < 0 then invalid_arg "Delta.sub: negative amount";
  { net = -amount; min_p = -amount; max_p = -amount; lo; hi }

(** [compose d1 d2] is the delta equivalent to applying [d1] then [d2]:
    prefix extremes of the concatenated amount sequence, intersected
    bounds. The admissible range of the composition is contained in the
    admissible range of [d1] — composing only ever {e shrinks} the set of
    bases a delta accepts, which is what makes per-operation range
    descriptors sound (each recorded range contains every later one). *)
let compose d1 d2 =
  {
    net = sat_add d1.net d2.net;
    min_p = min d1.min_p (sat_add d1.net d2.min_p);
    max_p = max d1.max_p (sat_add d1.net d2.max_p);
    lo = max d1.lo d2.lo;
    hi = min d1.hi d2.hi;
  }

(** Inclusive range of bases to which the delta applies without violating
    its bounds: [b + p] must stay in [lo, hi] for every prefix sum [p], so
    [b] must lie in [lo - min_p, hi - max_p]. The range is empty (first
    component greater than second) iff the delta can never apply. *)
let admissible d = (sat_sub d.lo d.min_p, sat_sub d.hi d.max_p)

(** [apply d b] is [Some (b + net)] if [b] is in the {!admissible} range,
    [None] (bounds violation) otherwise. *)
let apply d b =
  let rlo, rhi = admissible d in
  if b >= rlo && b <= rhi then Some (sat_add b d.net) else None

let pp ppf d =
  let rlo, rhi = admissible d in
  Fmt.pf ppf "delta(%+d in [%d,%d])" d.net rlo rhi
