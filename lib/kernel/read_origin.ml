(** Provenance of a speculative read, stored in read-sets for validation.

    The paper's read descriptors: a read either came from [Storage] (the
    pre-block state; the paper writes version [⊥]) or from MVMemory, in which
    case the version of the writing incarnation is recorded. Validation
    succeeds iff re-reading yields a descriptor equal to the recorded one.

    The delta extension (DESIGN.md §12) adds three descriptor kinds whose
    validity is a predicate on the {e materialized} integer base — the value
    obtained by folding pending delta entries onto the highest plain write
    below the reader — rather than on a version:
    {ul
    {- [Range]: a delta-only access; valid while the base stays inside the
       bounds the delta was applied under (value equality not required);}
    {- [Counter]: a value-observing read over a delta-carrying location (or
       a bounds-violation probe); valid iff the base materializes to exactly
       the recorded integer;}
    {- [Not_counter]: a delta op that found a non-integer value; valid while
       the location keeps materializing to a non-integer.}} *)

type t =
  | Storage  (** Value was read from pre-block storage (no lower writer). *)
  | Mv of Version.t  (** Value was written by this (txn, incarnation). *)
  | Range of { rlo : int; rhi : int }
      (** Delta-applying access: valid iff the materialized base is an
          integer in [\[rlo, rhi\]] (the delta's admissible range at apply
          time). *)
  | Counter of int
      (** Exact materialized integer observed (value read over deltas, or
          the base a bounds violation was decided against): valid iff the
          location still materializes to this integer. *)
  | Not_counter
      (** Delta op hit a non-integer value: valid iff the location still
          materializes to a present non-integer. *)

let equal a b =
  match (a, b) with
  | Storage, Storage -> true
  | Mv va, Mv vb -> Version.equal va vb
  | Range a, Range b -> a.rlo = b.rlo && a.rhi = b.rhi
  | Counter x, Counter y -> Int.equal x y
  | Not_counter, Not_counter -> true
  | _ -> false

let pp ppf = function
  | Storage -> Fmt.string ppf "storage"
  | Mv v -> Fmt.pf ppf "mv%a" Version.pp v
  | Range { rlo; rhi } -> Fmt.pf ppf "range[%d,%d]" rlo rhi
  | Counter c -> Fmt.pf ppf "counter=%d" c
  | Not_counter -> Fmt.string ppf "not-counter"
