(** Helpers over [Stdlib.Atomic] used throughout the scheduler, plus
    cache-line padding, idle-spin backoff and per-block array building. *)

val fetch_min : int Atomic.t -> int -> bool
(** [fetch_min a v] atomically sets [a] to [min (get a) v] (the paper's
    [fetch_min] instruction, here a CAS loop). Returns [true] iff the stored
    value actually decreased. *)

val incr : int Atomic.t -> unit
val decr : int Atomic.t -> unit

val get_and_incr : int Atomic.t -> int
(** The paper's [fetch_and_increment]: returns the pre-increment value. *)

val pad : 'a -> 'a
(** [pad v] reallocates the heap block [v] into a block of at least 16
    words (two 64-byte lines: x86 prefetches line pairs), so no other
    allocation shares its cache lines; observable fields keep their
    offsets, so the result behaves exactly like [v]. Apply to freshly allocated, not-yet-shared blocks (an [Atomic.t], a
    small mutable record about to enter a hot array). Not for immediates or
    custom/float blocks. *)

val padded_atomic : 'a -> 'a Atomic.t
(** [padded_atomic v] is [pad (Atomic.make v)]: an atomic on its own cache
    line(s), immune to false sharing with its allocation neighbours. *)

val init_array : int -> (int -> 'a) -> 'a array
(** [init_array n f] is [Array.init n f] without the stop-the-world minor
    collection OCaml 5.1 forces when [Array.init], [Array.map] or
    [Array.of_list] builds an array of more than 256 words whose first
    element is a young block. For every per-block array of heap values. *)

(** Per-worker exponential backoff for idle spin loops: each {!Backoff.once}
    spins [2^k] [Domain.cpu_relax] pauses and doubles [k] up to 8, i.e. at
    most 256 pauses per call. Not thread-safe — one value per worker. *)
module Backoff : sig
  type t

  val create : unit -> t
  val reset : t -> unit

  val once : t -> unit
  (** Spin for the current pause length, then double it (up to the cap). *)
end
