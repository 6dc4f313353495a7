(** Deterministic pseudo-random numbers (SplitMix64).

    All workload generation flows through this module with explicit seeds so
    that every benchmark and test is reproducible bit-for-bit, independent of
    OCaml's global [Random] state and of thread scheduling. *)

type t = { mutable state : int64 }

let create (seed : int) : t = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

let next_int64 (t : t) : int64 =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform int in [0, bound). *)
let int (t : t) (bound : int) : int =
  if bound <= 0 then invalid_arg "Rng.int: bound must be > 0";
  (* Mask to 62 bits: OCaml native ints are 63-bit, so a 63-bit logical
     shift could still wrap negative through [Int64.to_int]. *)
  let r = Int64.to_int (Int64.logand (next_int64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  r mod bound

(** Uniform float in [0, 1). *)
let float (t : t) : float =
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)
  *. (1. /. 9007199254740992.)

let bool (t : t) : bool = Int64.logand (next_int64 t) 1L = 1L

(** Pick a uniformly random element of a non-empty array. *)
let pick (t : t) (xs : 'a array) : 'a = xs.(int t (Array.length xs))

(** Two distinct uniform ints in [0, bound), bound >= 2. *)
let distinct_pair (t : t) (bound : int) : int * int =
  if bound < 2 then invalid_arg "Rng.distinct_pair: bound must be >= 2";
  let a = int t bound in
  let b = int t (bound - 1) in
  let b = if b >= a then b + 1 else b in
  (a, b)

(** Zipfian-distributed int in [0, n) with exponent [theta] (0 = uniform).
    Uses the classic rejection-free inverse-CDF approximation of Gray et al.
    precomputed via a cumulative table for small [n], harmonic approximation
    otherwise. *)
let zipf (t : t) ~(n : int) ~(theta : float) : int =
  if n <= 0 then invalid_arg "Rng.zipf: n must be > 0";
  if theta <= 0. then int t n
  else begin
    (* Harmonic number H_{n,theta} approximated by integration. *)
    let zeta =
      if theta = 1. then log (float_of_int n) +. 0.5772156649
      else
        ((float_of_int n ** (1. -. theta)) -. 1.) /. (1. -. theta)
        +. 0.5772156649
    in
    let u = float t in
    let x = u *. zeta in
    let rank =
      if theta = 1. then exp x
      else ((x *. (1. -. theta)) +. 1.) ** (1. /. (1. -. theta))
    in
    let r = int_of_float rank in
    if r < 1 then 0 else if r > n then n - 1 else r - 1
  end
