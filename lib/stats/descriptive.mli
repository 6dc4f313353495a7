(** Descriptive statistics over float samples, used by the benchmark
    harness. Empty inputs yield [nan] where a value is required. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;  (** p50. *)
  p95 : float;
  p99 : float;
}

val mean : float array -> float

val variance : float array -> float
(** Sample (Bessel-corrected) variance; 0 for fewer than two samples. *)

val stddev : float array -> float

val percentile : float -> float array -> float
(** Linear interpolation between closest ranks; input need not be sorted.
    @raise Invalid_argument if the percentile is outside [0, 100]. *)

val median : float array -> float
val summarize : float array -> summary

val geomean : float array -> float
(** Geometric mean, for aggregating speedup ratios. *)
