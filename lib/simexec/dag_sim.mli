(** List-scheduling simulation of a transaction dependency DAG.

    Models an {e ideal} BOHM (each transaction executed exactly once, as soon
    as its read-dependencies resolve) and computes inherent-parallelism
    bounds for workload analysis. *)

type t

val create : costs:float array -> deps:int list array -> t
(** [create ~costs ~deps]: [costs.(j)] is transaction [j]'s execution cost
    (µs); [deps.(j)] lists the lower-indexed transactions whose writes [j]
    reads.
    @raise Invalid_argument if a dependency is not on a strictly lower
    index (the preset order makes the DAG acyclic by construction). *)

val critical_path : t -> float
(** Length of the longest dependency chain: the makespan lower bound no
    number of workers can beat (the workload's inherent parallelism is
    [total work / critical path]). *)

val makespan : t -> num_threads:int -> float
(** Makespan of greedy lowest-index-first list scheduling on [num_threads]
    workers, computed event-driven: a free worker immediately takes the
    lowest-indexed ready transaction; workers never idle while work is
    ready. *)
