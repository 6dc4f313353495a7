(** Virtual-time cost model: how many microseconds of virtual time each
    engine event costs.

    Calibrated so that one {e standard} p2p transaction (21 reads, 4 writes)
    costs ≈ 200µs of VM execution — matching the paper's sequential baseline
    of ≈ 5k tps — and one {e simplified} p2p (12 reads, 4 writes) ≈ 128µs
    (paper: ≈ 7.5k tps). Validation re-reads the read-set without running
    transaction logic, so it is roughly an order of magnitude cheaper than
    execution; scheduler bookkeeping is cheaper still. *)

type t = {
  exec_base : float;  (** Fixed VM dispatch cost per execution, µs. *)
  per_read : float;  (** Per dynamic read during execution, µs. *)
  per_write : float;  (** Per written location, µs. *)
  val_base : float;  (** Fixed cost per validation task, µs. *)
  per_val_read : float;  (** Per location re-read during validation, µs. *)
  sched : float;  (** One [next_task] attempt (hit or miss), µs. *)
  commit_unit : float;
      (** Per-transaction sequential commit bookkeeping (used by the LiTM
          model's commit phase), µs. *)
  litm_exec_factor : float;
      (** Multiplier on VM execution cost inside LiTM's execution phase:
          deterministic STMs instrument every access into per-thread
          read/write logs and hash them for the commit phase's conflict
          detection, which published measurements put at 2–4x native
          execution. Block-STM's equivalent bookkeeping is already charged
          through its own events. *)
  litm_round_barrier : float;
      (** Per-round synchronization barrier between LiTM's execute and
          commit phases, µs. *)
}

let default =
  {
    exec_base = 20.0;
    per_read = 8.0;
    per_write = 3.0;
    val_base = 2.0;
    per_val_read = 1.0;
    sched = 0.3;
    commit_unit = 2.0;
    litm_exec_factor = 2.5;
    litm_round_barrier = 100.0;
  }

(** Cost of one complete VM execution with [reads] reads, [writes] writes. *)
let exec_cost t ~reads ~writes =
  t.exec_base +. (float_of_int reads *. t.per_read)
  +. (float_of_int writes *. t.per_write)

(** Cost of an execution that stopped on a dependency after [reads] reads. *)
let dep_abort_cost t ~reads =
  (t.exec_base /. 2.) +. (float_of_int reads *. t.per_read)

let validation_cost t ~reads =
  t.val_base +. (float_of_int reads *. t.per_val_read)

let pp ppf t =
  Fmt.pf ppf
    "{exec_base=%.1f per_read=%.1f per_write=%.1f val_base=%.1f \
     per_val_read=%.1f sched=%.1f commit=%.1f litm_factor=%.1f \
     litm_barrier=%.1f}"
    t.exec_base t.per_read t.per_write t.val_base t.per_val_read t.sched
    t.commit_unit t.litm_exec_factor t.litm_round_barrier
