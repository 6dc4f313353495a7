(** Bucketed incremental Merkle store: the authenticated state substrate
    (DESIGN.md §13).

    A flat {!Memstore} base tier (what executors read) plus an authenticated
    digest maintained incrementally on the side: entries hash into one of
    [buckets] commutative per-bucket accumulators, and bucket digests fold up
    a complete binary tree. Updating a binding dirties one bucket; {!root}
    refreshes only dirty leaf-to-root paths, so a block's root update costs
    O(|delta| · log buckets) instead of an O(n) fold over the whole
    state. The accumulator is commutative, so the root is a pure function of
    the final map — sequential and Block-STM executions agree byte-for-byte.

    A block's delta applies in one part ({!apply_delta}) or by hash parts
    on several domains ({!apply_part}, {!finish_parts}); either way its
    delta root is the sum of the entry hashes the apply computes.

    Mutators ([set], [remove], [apply_delta], [apply_part],
    [finish_parts]) are between-blocks-only, like {!Memstore}. {!root}
    writes only the digest, never the base tier, so it may run while
    executors read through {!reader}. *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) : sig
  type t

  val default_buckets : int
  (** 16384 — keeps the digest arrays L2-resident. *)

  val create : ?buckets:int -> unit -> t
  (** Empty store with [buckets] (rounded up to a power of two) digest
      buckets. *)

  val of_store : ?buckets:int -> Memstore.Make(L)(V).t -> t
  (** Build from an existing flat store (e.g. a genesis {!Memstore}) in one
      sweep: the base tier is a copy of the table as it is (two array
      copies, nothing rehashed), and each binding is hashed once into its
      digest bucket. Only the buckets that sweep fills are hashed up the
      tree on the first {!root}, so a small state builds cheaply at any
      bucket count. The argument is not retained; mutating either store
      afterwards leaves the other unchanged. *)

  val get : t -> L.t -> V.t option
  val mem : t -> L.t -> bool
  val cardinal : t -> int

  val buckets : t -> int
  (** Number of digest buckets (power of two). *)

  val set : t -> L.t -> V.t -> unit
  (** Hashes [l] once and finds its slot once ({!Memstore.Make.exchange}). *)

  val remove : t -> L.t -> unit

  val apply_delta : t -> (L.t * V.t) list -> int64
  (** Apply a block's output delta, one hash and one probe per binding, and
      answer its delta root: the wrapping sum of the bindings' entry hashes
      (every binding's, changed or not), a pure function of the delta as a
      set. Bindings whose value is unchanged leave the accumulators
      untouched, so re-applying a snapshot is idempotent. This is the
      one-part case of {!apply_part}. *)

  val parts : t -> int
  (** The store's hash parts: 64 (MVMemory's shard count) for a store of at
      least 64 buckets, else 1. Part [p] owns the digest buckets [b] with
      [b land (parts t - 1) = p], so the bindings whose [L.hash l] has those
      low bits. *)

  val apply_part : t -> part:int -> ((L.t -> V.t -> unit) -> unit) -> unit
  (** [apply_part t ~part bindings] applies the bindings [bindings f] passes
      to [f], every one of which must belong to [part] ({!parts}), and keeps
      their entry hashes for {!finish_parts}'s delta root. The delta's
      locations must be distinct.

      With one part it applies them in place, as {!apply_delta} does. With
      more it stages them: per binding it hashes the location once, probes
      the base tier once without writing it, updates the part's own digest
      buckets, and records the bound key's slot and new value, or defers an
      unbound key, in arrays the part reuses from block to block. So distinct
      parts may be applied on distinct domains at once, and a part
      allocates nothing per binding once its arrays have grown to the
      block. Executors must not read the store between the first
      [apply_part] and {!finish_parts}, whose stores and inserts complete
      the apply. *)

  val finish_parts : t -> int64
  (** Complete the parts applied since the last call: store every staged
      value, then insert every deferred key (an insert can resize the base
      tier, which moves the staged slots), clear the staging arrays, and
      answer the delta root of those parts' bindings, as {!apply_delta}
      defines it. Call on one domain, once every {!apply_part} has
      returned. *)

  val reader : t -> (L.t, V.t) Intf.storage
  (** Read-only executor view of the base tier. *)

  val base : t -> Memstore.Make(L)(V).t
  (** The flat base tier itself (for chain-level state accessors). Mutating
      it directly desynchronizes the digest; treat as read-only. *)

  val root : t -> int64
  (** Authenticated root. Refreshes dirty paths (O(dirty · log buckets)),
      then returns the cached tree root. *)

  val recompute_root : t -> int64
  (** From-scratch O(n) rebuild over the base tier, ignoring all incremental
      state — the correctness yardstick for {!root} and the cost yardstick
      for the state-scale experiment. *)
end
