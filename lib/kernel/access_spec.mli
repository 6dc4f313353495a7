(** Static access specifications: a per-transaction over-approximation of
    the locations it may read and write, produced before execution.

    A spec is {e sound} when every dynamically-read location matches some
    [reads] entry and every dynamically-written (or delta'd) location
    matches some [writes] entry, for every possible execution of the
    transaction. The Block-STM engine consumes no specs (DESIGN.md §15):
    their one consumer is the lane coordinator, which plans lanes from
    sound specs (DESIGN.md §16). Imprecise ([Wildcard] / [Unknown]) entries
    degrade it soundly toward the paper's optimistic behavior: such a
    transaction runs as a cross-lane transaction. *)

type 'loc entry =
  | Exact of 'loc  (** Exactly this location. *)
  | Wildcard of string
      (** Any location in the named namespace (MiniMove: resource name). *)
  | Unknown  (** Any location at all. *)

type 'loc t = { reads : 'loc entry list; writes : 'loc entry list }

val all_exact : 'loc t -> bool
(** Every read and write entry is [Exact]. *)

val exact_locs : 'loc entry list -> 'loc list
(** The locations of the [Exact] entries, in order. *)

val precision : 'loc t -> int * int * int
(** [(exact, wildcard, unknown)] entry counts over reads and writes. *)

val lists_overlap :
  equal:('loc -> 'loc -> bool) ->
  ?namespace:('loc -> string) ->
  'loc entry list ->
  'loc entry list ->
  bool
(** Some entry of the first list may denote a location some entry of the
    second also denotes — the building block for custom edge rules (e.g.
    RAW-only dependency derivation). *)

val conflict :
  equal:('loc -> 'loc -> bool) ->
  ?namespace:('loc -> string) ->
  'loc t ->
  'loc t ->
  bool
(** One spec's possible writes overlap the other's possible reads or writes
    (RAW/WAR/WAW; read-read sharing is not a conflict). [namespace] maps a
    location to its namespace so [Wildcard] entries compare against [Exact]
    ones; when absent, wildcards conservatively overlap everything. *)

val covers :
  equal:('loc -> 'loc -> bool) ->
  ?namespace:('loc -> string) ->
  'loc entry list ->
  'loc ->
  bool
(** Does the location match some entry? The soundness predicate checked by
    the differential test suite. *)

val pp_entry :
  (Format.formatter -> 'loc -> unit) -> Format.formatter -> 'loc entry -> unit

val pp :
  (Format.formatter -> 'loc -> unit) -> Format.formatter -> 'loc t -> unit
