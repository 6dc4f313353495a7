(** Per-worker trace ring buffers for engine step events.

    One {!ring} per worker domain, written lock-free by its single owner:
    recording an event is a few plain [int]-array stores with no allocation.
    Memory is bounded by the ring capacity — wraparound overwrites the
    oldest events and counts them in {!dropped}. Consecutive idle polls are
    coalesced into one event. See {!Trace_export} for rendering a trace as
    Chrome [trace_event] JSON. *)

open Blockstm_kernel

type t
(** A trace: creation timestamp plus one ring per worker. *)

type ring
(** One worker's buffer. Obtain via {!ring}; write via {!record} only from
    the owning worker. *)

val now_ns : unit -> int
(** Wall-clock nanoseconds (same clock as {!Blockstm_stats.Clock}). *)

val create : ?capacity:int -> num_workers:int -> unit -> t
(** [capacity] (default 65536) is per-worker events retained.
    @raise Invalid_argument if [capacity < 2] or [num_workers < 1]. *)

val num_workers : t -> int

val ring : t -> worker:int -> ring
(** @raise Invalid_argument if [worker] is out of range. *)

val record : t -> ring -> t0_ns:int -> t1_ns:int -> Step_event.t -> unit
(** Record one engine step spanning [[t0_ns, t1_ns]] (absolute wall-clock
    ns, as from {!now_ns}). [Got_task] events are dropped; consecutive
    [No_task]s extend the previous idle event. Must only be called from the
    worker owning the ring. *)

(** {2 Reading} — call after the traced execution completes. *)

(** A decoded trace event. *)
type payload =
  | Exec of { version : Version.t; reads : int; writes : int }
      (** An incarnation ran to completion. *)
  | Exec_blocked of { version : Version.t; blocking : int; reads : int }
      (** Dependency abort: the incarnation read [blocking]'s ESTIMATE. *)
  | Validation of { version : Version.t; aborted : bool; reads : int }
      (** A validation pass; [aborted] marks a validation abort. *)
  | Idle of { spins : int }  (** Coalesced empty [next_task] polls. *)
  | Commit of { upto : int; count : int }
      (** The rolling-commit sweep advanced the committed prefix to [upto],
          committing [count] transactions. *)
  | Cold of { version : Version.t; reads : int }
      (** A [Step_event.Cold_fetch], which no engine path produces. *)

type event = {
  worker : int;
  start_ns : int;  (** ns since trace creation. *)
  dur_ns : int;
  payload : payload;
}

val worker_events : t -> worker:int -> event list
(** Retained events of one worker, oldest first. *)

val events : t -> event list
(** All retained events, grouped by worker. *)

val dropped : t -> int
(** Events lost to ring wraparound, across all workers. *)
