(** Dependency-DAG scheduling from static access specifications (DESIGN.md
    §15): schedules each transaction exactly once, after every transaction
    whose declared writes may feed its declared reads has finished — the
    BOHM-style alternative to optimistic re-execution, driven by the
    engine's [config.spec_dag] mode. Thread-safe. *)

type t

val create : preds:int list array -> t
(** [preds.(j)] lists the transactions that must finish before [j] may
    execute; entries must be [< j] and duplicate-free.
    @raise Invalid_argument on an out-of-range or forward edge. *)

val block_size : t -> int

val next_task : t -> Scheduler.task option
(** Claim a ready transaction as an incarnation-0 execution task. [None]
    does {e not} imply completion (predecessors may still be running);
    poll {!done_}. *)

val finish_execution : t -> txn_idx:int -> Scheduler.task option
(** Publish the completion of [txn_idx]: decrements successor indegrees
    and hands one newly-ready execution task back to the caller, pushing
    any others onto the shared ready stack. *)

val done_ : t -> bool
(** Every transaction has finished executing. Monotone. *)
