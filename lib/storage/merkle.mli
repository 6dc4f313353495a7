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

    Mutators ([set], [remove], [apply_delta]) are between-blocks-only, like
    {!Memstore}. {!root} writes only the digest, never the base tier, so it
    may run while executors read through {!reader}. *)

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

  val apply_delta : t -> (L.t * V.t) list -> unit
  (** Apply a block's output delta. Bindings whose value is unchanged leave
      the accumulators untouched, so re-applying a snapshot is
      idempotent. *)

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
