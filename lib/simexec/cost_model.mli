(** Virtual-time cost model (µs per engine event), calibrated so one
    standard p2p transaction (21 reads / 4 writes) costs ≈200µs of VM
    execution — matching the paper's ≈5k tps sequential baseline. *)

type t = {
  exec_base : float;
  per_read : float;
  per_write : float;
  val_base : float;
  per_val_read : float;
  sched : float;
  commit_unit : float;
  litm_exec_factor : float;
  litm_round_barrier : float;
}

val default : t

val exec_cost : t -> reads:int -> writes:int -> float
(** Cost of one complete VM execution. *)

val dep_abort_cost : t -> reads:int -> float
(** Cost of an execution that stopped on a dependency after [reads] reads. *)

val validation_cost : t -> reads:int -> float

val pp : Format.formatter -> t -> unit
