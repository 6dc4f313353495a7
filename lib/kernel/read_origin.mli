(** Provenance of a speculative read, stored in read-sets for validation:
    either pre-block [Storage] (the paper's version [⊥]), an MVMemory entry
    tagged with the writing incarnation's version, or — with commutative
    deltas (DESIGN.md §12) — a predicate on the materialized integer base
    of a delta-carrying location. *)

type t =
  | Storage
  | Mv of Version.t
  | Range of { rlo : int; rhi : int }
      (** Delta-applying access: valid iff the materialized base is an
          integer in [\[rlo, rhi\]] (the applied delta's admissible range). *)
  | Counter of int
      (** Exact materialized integer observed: valid iff the location still
          materializes to this integer. *)
  | Not_counter
      (** Delta op hit a non-integer value: valid iff the location still
          materializes to a present non-integer. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
