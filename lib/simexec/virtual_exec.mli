(** Virtual-time parallel execution: drives the {e real} Block-STM engine —
    same MVMemory, scheduler, aborts and dependency stalls — with
    [num_threads] virtual threads on one OS thread, charging each task a
    {!Cost_model.t} duration. Tasks are two-phase (reads at start, effects
    at start+cost), so speculation overlaps exactly as on real hardware and
    thread-scaling curves keep their shape on any host (DESIGN.md §3). *)

open Blockstm_kernel

type stats = {
  makespan_us : float;  (** Virtual time at which the engine completed. *)
  busy_us : float;  (** Sum of task virtual time across threads. *)
  idle_us : float;  (** Sum of idle-spin virtual time across threads. *)
  steps : int;
  executions : int;
  dependency_aborts : int;
  validations : int;
  validation_aborts : int;
}

val tps : txns:int -> stats -> float
(** Throughput implied by the virtual makespan. *)

(** The engine hooks the simulator drives — the two-phase step API of
    {!Blockstm_core.Block_stm.Make}, made first-class so the driver is
    independent of the location/value functor instantiation. *)
type ('task, 'pending) engine = {
  start : 'task -> 'pending;
  finish : 'pending -> 'task option * Step_event.t;
  profile : 'pending -> [ `Exec of int * int | `Dep of int | `Val of int ];
  next_task : unit -> 'task option;
  is_done : unit -> bool;
}

val run :
  num_threads:int -> cost:Cost_model.t -> ('task, 'pending) engine -> stats
(** Runs the engine to completion under virtual time. Deterministic given a
    deterministic engine. @raise Invalid_argument if [num_threads < 1]. *)
