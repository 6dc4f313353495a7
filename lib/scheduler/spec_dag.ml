(** Dependency-DAG scheduling from static access specifications (DESIGN.md
    §15): the BOHM-style alternative to optimistic re-execution. The engine
    derives, per transaction, the set of lower-indexed transactions whose
    declared writes may feed its declared reads; this module schedules each
    transaction exactly once, {e after} all its predecessors finished, so
    every read observes the same value a sequential execution would and no
    validation is ever needed.

    The structure is a static DAG: atomic per-transaction indegrees, a
    lock-free Treiber stack of ready transactions, and a completion
    counter. {!finish_execution} decrements successor indegrees and hands
    one newly-ready transaction straight back to the caller (the same
    handoff {!Scheduler.finish_execution} performs), pushing the rest for
    other workers. Thread-safe: any number of domains may call any function
    concurrently. *)

open Blockstm_kernel

type t = {
  n : int;
  indeg : int Atomic.t array;
  succs : int array array;  (** Immutable after {!create}. *)
  ready : int list Atomic.t;
      (** Treiber stack of ready transaction indices. Initially seeded in
          ascending-pop order; afterwards LIFO — order is irrelevant for
          correctness (every popped transaction has all predecessors
          finished) and the engine records writes under fixed versions, so
          the committed state is schedule-independent. *)
  completed : int Atomic.t;
}

(** [create ~preds] builds the DAG. [preds.(j)] lists the transactions that
    must finish before [j] may execute; entries must be [< j] (the preset
    order is acyclic by construction) and duplicate-free.
    @raise Invalid_argument on an out-of-range or forward edge. *)
let create ~(preds : int list array) : t =
  let n = Array.length preds in
  let nsucc = Array.make n 0 in
  Array.iteri
    (fun j ps ->
      List.iter
        (fun i ->
          if i < 0 || i >= j then
            invalid_arg "Spec_dag.create: predecessor must be < txn index";
          nsucc.(i) <- nsucc.(i) + 1)
        ps)
    preds;
  let succs = Atomic_util.init_array n (fun i -> Array.make nsucc.(i) 0) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun j ps ->
      List.iter
        (fun i ->
          succs.(i).(fill.(i)) <- j;
          fill.(i) <- fill.(i) + 1)
        ps)
    preds;
  let ready = ref [] in
  for j = n - 1 downto 0 do
    if preds.(j) = [] then ready := j :: !ready
  done;
  {
    n;
    indeg =
      Atomic_util.init_array n (fun j -> Atomic.make (List.length preds.(j)));
    succs;
    ready = Atomic.make !ready;
    completed = Atomic.make 0;
  }

let block_size t = t.n

let rec push t j =
  let cur = Atomic.get t.ready in
  if not (Atomic.compare_and_set t.ready cur (j :: cur)) then push t j

let rec pop t : int option =
  match Atomic.get t.ready with
  | [] -> None
  | j :: rest as cur ->
      if Atomic.compare_and_set t.ready cur rest then Some j else pop t

let exec_task j = Scheduler.Execution (Version.make ~txn_idx:j ~incarnation:0)

(** Claim a ready transaction. [None] does {e not} imply completion (other
    workers may still be executing predecessors); poll {!done_}. *)
let next_task t : Scheduler.task option = Option.map exec_task (pop t)

(** Publish the completion of transaction [txn_idx]: decrements successor
    indegrees and returns one newly-ready execution task for the caller
    (the lowest-indexed one this call released), pushing any others onto
    the shared ready stack. *)
let finish_execution t ~txn_idx : Scheduler.task option =
  ignore (Atomic.fetch_and_add t.completed 1);
  let mine = ref None in
  Array.iter
    (fun j ->
      if Atomic.fetch_and_add t.indeg.(j) (-1) = 1 then
        match !mine with
        | None -> mine := Some j
        | Some k when j < k ->
            push t k;
            mine := Some j
        | Some _ -> push t j)
    t.succs.(txn_idx);
  Option.map exec_task !mine

(** Every transaction has finished executing. Monotone. *)
let done_ t = Atomic.get t.completed >= t.n
