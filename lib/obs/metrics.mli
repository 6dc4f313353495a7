(** Metrics registry: named counters and histograms over padded per-domain
    cells.

    Increments are wait-free on the hot path and touch only memory the
    calling domain writes: each domain gets separately allocated cell
    arrays (found via a lock-free table keyed by [Domain.self ()]), counters
    within an array are spaced a cache line apart, and the update is a plain
    store — no atomic read-modify-write, hence no cross-domain contention.

    Aggregating reads sum over all domains' cells. They are racy while
    writers run (a momentary snapshot) and exact once the writing domains
    have been joined. If more than [max_domains] domains use the registry,
    the extras share a mutex-guarded overflow slot — slower, never wrong. *)

type t
(** A registry. Typically one per block execution. *)

type counter
type histogram

val create :
  ?max_domains:int -> ?max_counters:int -> ?buckets:int -> unit -> t
(** [max_domains] (default 16) sizes the per-domain slot table;
    [max_counters] (default 16) bounds counter registration, and at most 4
    histograms register; [buckets] (default 48) is the number of
    power-of-two histogram buckets. @raise Invalid_argument on non-positive
    sizes. *)

val counter : t -> string -> counter
(** Register (or look up — registration is idempotent by name) a counter.
    @raise Invalid_argument when the registry is full or the name already
    denotes a histogram. *)

val histogram : t -> string -> histogram
(** Same, for histograms. *)

(** {2 Hot path} *)

val incr : counter -> unit
val add : counter -> int -> unit

val observe : histogram -> int -> unit
(** Record one sample (e.g. a duration in nanoseconds). Non-positive
    samples land in bucket 0; sample [v > 0] lands in the bucket covering
    [[2^(b-1), 2^b)]. *)

(** {2 Aggregation} *)

val value : counter -> int
(** Sum across all domains. *)

type hist_summary = {
  count : int;
  sum : int;
  max : int;
  mean : float;
  p50 : float;  (** Quantiles are log2-bucket estimates, not exact. *)
  p90 : float;
  p99 : float;
}

val hist_summary : histogram -> hist_summary

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0, 1]; [nan] when empty. Bucket-midpoint
    estimate: exact only for the zero bucket. *)

val counters : t -> (string * int) list
(** All counters with aggregated values, in registration order. *)

val histograms : t -> (string * hist_summary) list

val pp : Format.formatter -> t -> unit
