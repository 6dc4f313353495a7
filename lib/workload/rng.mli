(** Deterministic pseudo-random numbers (SplitMix64). All workload
    generation flows through this module with explicit seeds, so every
    benchmark and test is reproducible bit-for-bit. *)

type t

val create : int -> t
val next_int64 : t -> int64

val int : t -> int -> int
(** [int t bound]: uniform in [0, bound). @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val distinct_pair : t -> int -> int * int
(** Two distinct uniform ints in [0, bound); requires [bound >= 2]. *)

val zipf : t -> n:int -> theta:float -> int
(** Zipfian-distributed rank in [0, n); [theta = 0] degenerates to uniform.
    Uses the harmonic-approximation inverse CDF. *)
