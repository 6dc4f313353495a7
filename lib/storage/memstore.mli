(** In-memory key/value storage: the paper's [Storage] module.

    Holds the state as of the beginning of the block. During block execution
    it is read-only (Block-STM never writes to storage mid-block; executors
    see it through the {!Make.reader} view); after the block commits,
    {!Make.apply_delta} folds the MVMemory snapshot back in, yielding the
    pre-state of the next block.

    Not thread-safe for mutation — mutate only between blocks. *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) : sig
  type t

  val create : ?initial_size:int -> unit -> t
  val of_list : (L.t * V.t) list -> t
  val get : t -> L.t -> V.t option
  val set : t -> L.t -> V.t -> unit
  val remove : t -> L.t -> unit
  val mem : t -> L.t -> bool
  val cardinal : t -> int

  val reader : t -> (L.t, V.t) Intf.storage
  (** The read-only [('loc, 'value) Intf.storage] view consumed by
      executors. *)

  val iter : t -> (L.t -> V.t -> unit) -> unit
  (** Iterate over all bindings in unspecified order. *)

  val copy : t -> t

  val apply_delta : t -> (L.t * V.t) list -> unit
  (** Apply a block's output delta (e.g. an MVMemory snapshot) in place. *)

  val to_alist : t -> (L.t * V.t) list
  (** Deterministically ordered contents. *)

  val equal : t -> t -> bool
  (** Same key set, equal values per key. *)

  val pp : Format.formatter -> t -> unit
end
