(** Multi-version shared memory (the paper's MVMemory, Algorithms 2–3).

    For each memory location, the structure stores the latest value written
    per transaction index together with the incarnation that wrote it, or an
    [ESTIMATE] marker left behind by an aborted incarnation. A read by
    transaction [j] returns the entry written by the highest transaction
    [i < j] (speculative best guess under the preset serialization order);
    hitting an [ESTIMATE] signals a dependency on the blocking transaction.

    Concurrency (DESIGN.md §9): the read fast path is {e lock-free} — as in
    the paper's implementation (Section 4), reads over the multi-version
    structure take no locks. Locations are found through per-shard
    open-addressing tables of immutable slots, published with release stores
    under an atomically published table pointer (the shard mutex is taken
    only to insert a missing location or to resize), and each location's
    version chain is a list, sorted by descending transaction index, held in
    one [Atomic.t]: readers do one [Atomic.get] and skip down the list by
    jump pointers to the first entry below them, in O(log a) steps for a
    entries above it. A write above every other writer of its location, the
    common case in the preset order, adds one node; a write that replaces
    an entry stores into its node and republishes the chain with a copy of
    the head node; only inserting or removing a node under the top CASes a
    chain that rebuilds the nodes above it. Chain entries carry the
    writer's version. A read that misses allocates nothing and a hit
    allocates only its {!Ok} block; validating [Storage] / [Mv] descriptors
    allocates nothing. Per-transaction bookkeeping (last written locations,
    last read-set) uses RCU-style atomic swaps of immutable values. All
    operations are thread-safe. *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) : sig
  type t

  type read_result =
    | Ok of Version.t * V.t
        (** Value written by the highest lower transaction, with its version. *)
    | Merged of { value : int }
        (** The chain below the reader is topped by commutative delta
            entries (DESIGN.md §12): the materialized integer — the highest
            plain write below the deltas (or pre-block storage, or 0 if
            absent) plus the folded delta nets. The result
            is version-free; callers record a [Counter] descriptor, which
            validates by re-materializing. *)
    | Not_found  (** No lower transaction wrote here: read from storage. *)
    | Read_error of { blocking_txn_idx : int }
        (** Hit an [ESTIMATE]: dependency on [blocking_txn_idx]. *)

  type read_set = { locs : L.t array; origins : Read_origin.t array }
  (** One read descriptor per (dynamic) read performed by an incarnation, in
      read order: read [i] is of [locs.(i)], with provenance
      [origins.(i)]. The two arrays always have the same length. *)

  val empty_read_set : read_set
  (** The read set of an incarnation that read nothing. *)

  type write_set = (L.t * V.t) array

  type delta_set = (L.t * Delta.t) array
  (** Composed commutative delta per location — at most one entry per
      location per incarnation (the engine composes repeated delta ops on a
      location before recording). *)

  val create :
    ?nshards:int ->
    ?writes_per_txn:int ->
    ?storage:(L.t -> V.t option) ->
    block_size:int ->
    unit ->
    t
  (** [nshards] (default 64, rounded up to a power of two) is the number of
      hash shards (each with its own insert lock and atomically published
      table). [writes_per_txn] (default 4) is the estimated number of
      distinct locations each transaction writes; shard tables are
      pre-sized from [block_size * writes_per_txn] so the common case never
      pays an insert-path resize.

      [storage] (default [fun _ -> None]) is the pre-block state, consulted
      only when materializing a delta-carrying location whose chain has no
      plain write below the reader. It must be supplied (and constant for
      the block) by any caller that records delta sets; instances that never
      publish delta entries can omit it.
      @raise Invalid_argument on negative [block_size] or [writes_per_txn],
      or non-positive [nshards]. *)

  val block_size : t -> int

  val nshards : t -> int
  (** Number of hash shards: [create]'s [nshards] rounded up to a power of
      two. *)

  val read : t -> L.t -> txn_idx:int -> read_result
  (** Algorithm 3, [read]: the entry written by the highest transaction
      index below [txn_idx]. A chain topped by delta entries folds their
      nets onto the anchoring plain write and answers {!Merged}; an
      [ESTIMATE] anywhere in the folded span is a {!Read_error} dependency. *)

  val record : ?deltas:delta_set -> t -> Version.t -> read_set -> write_set -> bool
  (** Algorithm 2, [record]: publish the incarnation's writes, drop entries
      the previous incarnation wrote but this one did not, and store the
      read-set for later validation. [deltas] (default empty) publishes
      commutative delta entries alongside the plain writes; delta locations
      join the recorded written set, so every written-location transition
      below — as well as abort conversion ({!convert_writes_to_estimates}),
      stale-entry removal and the commit flush — treats a delta exactly like
      a write.

      Returns [wrote_new_location]: [true] iff this incarnation wrote (or
      applied a delta to) at least one location that the {e previous}
      incarnation of the same transaction did not — i.e. a location absent
      from the last recorded written-locations array. Exhaustively, per
      location:
      {ul
      {- {b first write ever} by this transaction → [true] (no previous
         incarnation, so every location is new);}
      {- {b rewrite} of a location the previous incarnation also wrote →
         [false], {e regardless of the entry's current state} — in
         particular rewriting over this transaction's own ESTIMATE marker
         (ESTIMATE→value after an abort) is {e not} a new location, because
         lower-indexed validations already knew about the write;}
      {- {b delete-then-rewrite across one record}: if incarnation [i]
         stopped writing a location (its entry was removed by [record]) and
         incarnation [i+1] writes it again, that location {e is} new again →
         [true] — the removal erased it from the recorded written set, so
         readers between the two records may have observed the gap;}
      {- {b removal only} (previous incarnation wrote it, this one does not)
         → does not set the flag by itself;}
      {- {b write↔delta flips} on one location across incarnations → [false]
         (the location stays in the written set; affected readers are caught
         by validation, not by the flag).}}
      The scheduler uses the flag as the trigger for suffix revalidation
      (Algorithm 9). *)

  val convert_writes_to_estimates : t -> int -> unit
  (** Algorithm 2, called on abort: the aborted incarnation's entries become
      [ESTIMATE] markers so readers wait for the dependency. *)

  val remove_written_entries : t -> int -> unit
  (** Ablation variant of abort handling (§3.2.1: "removing the entries can
      also accomplish this"): drop the aborted incarnation's entries so no
      dependency information survives. *)

  val validate_read_set : t -> int -> bool
  (** Algorithm 3, [validate_read_set]: re-read every location in the last
      recorded read-set and compare descriptors ({!validate_origin} per
      entry). *)

  val validate_origin : t -> L.t -> txn_idx:int -> Read_origin.t -> bool
  (** Validate one recorded read descriptor against the current state of the
      structure, as seen by [txn_idx] (DESIGN.md §12):
      {ul
      {- [Storage] / [Mv v]: re-{!read} and require the same outcome — in
         particular a chain that now materializes ({!Merged}) where a plain
         value was observed fails;}
      {- [Range (rlo, rhi)] (recorded by a delta-applying access):
         re-materialize the integer at the location and require
         [rlo <= b <= rhi] — the {e range} check that makes concurrent delta
         publications mutually non-invalidating;}
      {- [Counter c] (an exact materialized integer was observed):
         re-materialize and require equality with [c];}
      {- [Not_counter] (a delta op observed a non-integer anchor): require
         the location still to materialize to a non-integer.}} *)

  val last_read_set : t -> int -> read_set
  (** Last recorded read-set of a transaction (RCU load). Used by the §4
      re-execution optimization: check prior reads for ESTIMATEs before
      paying for a full VM re-execution. *)

  val written_locations : t -> int -> L.t array
  (** Locations written by the last finished incarnation of a transaction. *)

  val iter_shard : t -> int -> (L.t -> V.t -> unit) -> unit
  (** [iter_shard t s f] is the per-shard read-out: [f l v] for the final
      value [v] of every location [l] of shard [s] (those with
      [L.hash l land (nshards t - 1) = s]) that has one, in table order. [v]
      is what {!read} answers at [txn_idx = block_size] ([Merged] through
      [V.of_counter]; [Not_found] locations skipped); after a full
      {!flush_committed} every chain holds only its kept node, and after a
      partial one the kept node is the top of every chain no unflushed
      transaction wrote. Only call after the block commits (all estimates
      resolved). It takes no lock and writes nothing, so several domains
      may read out shards at once; it allocates nothing of its own but a
      delta-topped location's [V.of_counter]. *)

  val snapshot : t -> (L.t * V.t) list
  (** Algorithm 3, [snapshot]: final value for every affected location, in
      no particular order — a fold of {!iter_shard} over every shard. Only
      call after the block commits (all estimates resolved).

      It allocates the list it returns, a tuple and a cons cell per binding
      (6 words), and one closure for the read-out. *)

  (** {2 Rolling-commit flush} *)

  val flush_committed : t -> upto:int -> unit
  (** Flush the committed prefix [0, upto): per location, keep the entry of
      the highest committed writer as the location's kept node and retire
      the committed entries below it, which no read above the prefix
      reaches and no read at or below it finds, shrinking {!entry_count} as
      the prefix advances. Retired entries are cut off the chain once they
      outnumber the entries above the kept node, so a chain holds at most
      about twice its unflushed entries. The kept node keeps its exact version, so reads and
      validation above the prefix are unchanged. Committed delta entries are
      folded in ascending transaction order: a kept delta is rewritten as a
      plain write of its net added to the kept node below it (or to the
      storage value, or 0 if the location has none) — a committed delta's
      final [Range] validation guarantees the fold stays in bounds. Only
      call with [upto] at most the scheduler's committed prefix. Thread-safe
      and idempotent.
      @raise Invalid_argument if [upto] is negative or exceeds the block
      size. *)

  val flushed_upto : t -> int
  (** Prefix length already flushed. *)

  val entry_count : t -> int
  (** Diagnostic: number of version entries currently stored, less each
      chain's kept node and the entries it retired. After a flush, that is
      the entries of unflushed transactions; a committed entry the flush
      failed to retire below a kept node still counts. *)
end
