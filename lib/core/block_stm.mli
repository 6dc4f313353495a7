(** Block-STM: the parallel execution engine (Algorithms 1 and 4 of the
    paper, on top of {!Blockstm_mvmemory.Mvmemory} and
    {!Blockstm_scheduler.Scheduler}).

    Given a block of transactions [tx_0 < tx_1 < ... < tx_{n-1}] and a
    read-only storage snapshot, {!Make.run} executes the block on
    [num_domains] domains and returns the final write snapshot plus
    per-transaction outputs — guaranteed identical to executing the block
    sequentially in the preset order.

    Transactions are closures over an {!type:Make.effects} handle; the VM
    wrapper intercepts every read and write, accumulating the incarnation's
    read- and write-sets exactly as Algorithm 4 prescribes. *)

open Blockstm_kernel

module Scheduler = Blockstm_scheduler.Scheduler
module Trace = Blockstm_obs.Trace

module Make (L : Intf.LOCATION) (V : Intf.VALUE) : sig
  (** Raised internally when a speculative read hits an [ESTIMATE] marker:
      the executing transaction depends on [blocking_txn_idx]. A transaction
      that catches it still ends blocked on that dependency. *)
  exception Dependency of int

  (** The handle a transaction uses to access state (see {!Txn.effects}). *)
  type effects = (L.t, V.t) Txn.effects

  (** A transaction: deterministic code over an effects handle, producing an
      output of type ['o] (events, return value, gas used, ...). *)
  type 'o txn = (L.t, V.t, 'o) Txn.t

  (** Outcome of the final incarnation of a transaction. *)
  type 'o txn_output = 'o Txn.output = Success of 'o | Failed of string

  (** Execution statistics of one block, summed over every domain that
      drove it. Each worker tallies into its own slots and adds them into
      the instance's counters once, when its loop exits; {!start_task},
      {!finish_task} and {!step} add theirs per call. [commits] is the
      committed prefix. Exact in {!finalize}'s result. *)
  type metrics = {
    incarnations : int;  (** VM executions that ran to completion. *)
    dependency_aborts : int;  (** Executions stopped by an ESTIMATE read. *)
    validations : int;  (** Validation tasks performed. *)
    validation_aborts : int;  (** Validations that failed and won the abort. *)
    prevalidation_skips : int;
        (** Re-executions short-circuited by the read-set pre-check (§4). *)
    commits : int;
        (** Transactions committed by the rolling sweep (0 without rolling
            commit: the block commits lazily as a whole). *)
    delta_applies : int;
        (** Commutative delta entries recorded into MVMemory (0 unless
            [delta_ops]). *)
  }

  val pp_metrics : Format.formatter -> metrics -> unit

  (** {2 Configuration}

      Every value of the configuration runs. *)

  (** What an aborted incarnation leaves behind in MVMemory. *)
  type marking =
    | Estimates
        (** The paper default: aborted writes become ESTIMATE markers and
            readers wait for the dependency. A new write location pulls
            validation back over the whole suffix (Algorithms 8–9). *)
    | Remove_on_abort
        (** The ablation the paper mentions in §3.2.1: aborted entries are
            simply removed, so conflicts surface only at validation time. *)

  type config = {
    num_domains : int;  (** Worker domains (>= 1). *)
    marking : marking;
    prevalidate_reads : bool;
        (** §4 optimization: before re-executing an incarnation, re-read the
            previous read-set and park on any ESTIMATE found. *)
    rolling_commit : bool;
        (** Stream a committed prefix instead of the paper's lazy
            block-at-once commit (Lemma 2): workers opportunistically advance
            the scheduler's commit sweep as they loop, committing a
            transaction once everything below it has committed and its read
            set validates (DESIGN.md §8). Committed transactions are flushed
            out of MVMemory's version chains, and the [on_commit] hook fires
            as the prefix grows. The final snapshot and outputs are
            identical to the lazy mode. *)
    delta_ops : bool;
        (** Commutative delta entries for hotspot state (DESIGN.md §12):
            [Txn.effects.delta] operations publish bounded add/sub deltas as
            MVMemory entries validated by {e range} membership instead of
            value equality, so concurrent increments of one hot location no
            longer abort each other. [false]: delta ops fall back to a
            read-modify-write through the instrumented read/write pair,
            reproducing the paper's behavior byte-identically. *)
  }

  val default_config : config
  (** The paper's engine on one domain: ESTIMATE markers, read-set
      prevalidation; no rolling commit or deltas. Other configs are record
      updates of it. *)

  type 'o result = {
    snapshot : (L.t * V.t) list;
        (** Final value per affected location, in no particular order. *)
    outputs : 'o txn_output array;  (** Per-transaction outputs, in order. *)
    metrics : metrics;
    commit_ns : int array;
        (** Per-transaction time-to-commit (ns since the instance was
            created), in preset order. Empty unless rolling commit. *)
  }

  type 'o instance
  (** Shared state of one in-flight block execution. Create with
      {!create_instance}, drive with {!worker_loop} (or the two-phase
      {!start_task}/{!finish_task} API), then read out with {!finalize}. *)

  val create_instance :
    ?config:config ->
    ?trace:Trace.t ->
    ?on_commit:(int -> 'o txn_output -> unit) ->
    storage:(L.t, V.t) Intf.storage ->
    'o txn array ->
    'o instance
  (** [trace] enables step-event tracing: every worker records into its own
      ring (the trace must have at least [config.num_domains] workers).

      [on_commit j output] streams each transaction's final output — called
      exactly once per transaction, in preset order (j = 0, 1, ...). Under
      rolling commit it fires as the prefix commits, from whichever domain
      advances the commit sweep, under the scheduler's commit mutex (keep it
      cheap); otherwise it fires for the whole block at {!finalize}.
      @raise Invalid_argument if [config.num_domains < 1] or [trace] has too
      few workers. *)

  val sched : 'o instance -> Scheduler.t
  (** The collaborative scheduler driving this instance — exposed for the
      virtual-time simulator and tests. *)

  val next_task : 'o instance -> Scheduler.task option
  (** [Scheduler.next_task] on the instance's scheduler. [None] does not
      imply completion; poll {!is_done}. *)

  val is_done : 'o instance -> bool
  (** Whether every transaction has finished ([Scheduler.done_]).
      Monotone. *)

  val committed_prefix : 'o instance -> int
  (** Length of the committed prefix so far (0 unless rolling commit).
      Monotonically non-decreasing; reaches the block size by the time
      {!finalize} returns. *)

  val maybe_commit : 'o instance -> int
  (** Opportunistic rolling-commit step: advance the scheduler's commit
      sweep (if the commit mutex is free) and flush newly committed
      transactions out of MVMemory. Returns the number of transactions
      committed by this call. The engine's own {!worker_loop} calls this
      every iteration under rolling commit; external drivers (the
      virtual-time simulator) may call it between {!step}s. No-op returning
      0 without rolling commit. *)

  (** What a single engine step did — consumed by the virtual-time simulator
      for cost accounting, and by tests. *)
  type step_event = Step_event.t =
    | Executed of { version : Version.t; reads : int; writes : int }
    | Exec_dependency of { version : Version.t; blocking : int; reads : int }
    | Validated of { version : Version.t; aborted : bool; reads : int }
    | Got_task
    | No_task
    | Committed of { upto : int; count : int }
    | Cold_fetch of { version : Version.t; reads : int }

  type 'o pending
  (** Work whose observable reads have happened but whose effects are not
      yet applied. The two-phase split exists for the virtual-time
      simulator: {!start_task} performs everything a real thread does at the
      start of a task, {!finish_task} applies the end-of-task mutations. The
      real domain-based executor calls them back to back. *)

  val pending_profile :
    'o pending -> [ `Exec of int * int | `Dep of int | `Val of int ]
  (** Planned work profile of a pending task, for cost models:
      [`Exec (reads, writes)], [`Dep reads_before_abort], or [`Val reads]. *)

  val start_task : 'o instance -> Scheduler.task -> 'o pending
  val finish_task : 'o instance -> 'o pending -> Scheduler.task option * step_event

  val step :
    'o instance -> Scheduler.task option -> Scheduler.task option * step_event
  (** One step of the Algorithm 1 loop body: run the carried task (start and
      finish back to back), or fetch a new one. Thread-safe: any number of
      domains may call it concurrently. *)

  val worker_loop : ?worker:int -> 'o instance -> unit
  (** Run {!step} until the scheduler reports done, or, under {!run}, until
      another worker has failed. [worker] (default 0) is the trace ring
      index; pass distinct values from distinct domains when the instance
      was created with [?trace]. *)

  val recorded_read_set :
    'o instance -> int -> Blockstm_mvmemory.Mvmemory.Make(L)(V).read_set
  (** Final recorded read-set of a transaction (one descriptor per dynamic
      read, in order; read-your-own-writes are not recorded), as MVMemory
      holds it. Exposed so tests can assert speculative execution observed
      exactly the reads a sequential execution would have. Only meaningful
      after all workers joined. *)

  val finalize : 'o instance -> 'o result
  (** Read out the result. Call only after all workers have finished. In
      rolling-commit mode this drains the commit sweep (firing any remaining
      [on_commit] hooks) and serves the snapshot from the flushed chains;
      otherwise it computes the paper's lazy block-at-once snapshot in one
      pass over the affected locations and fires the [on_commit] hook for
      the whole block. Either way the snapshot lists its bindings in no
      particular order ({!Blockstm_mvmemory.Mvmemory.Make.snapshot}).

      The result owns the instance's arrays: its [outputs] is the array the
      workers filled, and under rolling commit its [commit_ns] is the one
      the sweep filled, handed over rather than copied. So the instance must
      not be stepped after [finalize]. Besides the snapshot list (a tuple
      and a cons cell per binding) it allocates only a few records
      (DESIGN.md §9).
      @raise Failure if some transaction never produced an output. *)

  val run :
    ?config:config ->
    ?trace:Trace.t ->
    ?on_commit:(int -> 'o txn_output -> unit) ->
    storage:(L.t, V.t) Intf.storage ->
    'o txn array ->
    'o result
  (** Execute a block. [storage] is the pre-block state; the array is the
      block in its preset serialization order. Spawns [config.num_domains - 1]
      extra domains and participates with the calling domain. An exception
      that escapes a worker on any domain (a raising [on_commit] hook under
      rolling commit, say) stops the other workers at their next idle poll;
      once all have joined, [run] re-raises it with its backtrace instead of
      finalizing the block.

      The helper domains leave last. Each waits after its worker loop until
      the calling domain has run {!finalize}, and none holds the instance in
      its closure. A domain's exit runs a stop-the-world minor collection
      (OCaml 5.1) that promotes everything still reachable, so this way it
      copies the block's result, not its bookkeeping (DESIGN.md §4). Every
      path out of [run] releases and joins every helper it started: a
      worker exception, a raising {!finalize} (an [on_commit] hook, say) and
      a failed [Domain.spawn], which [run] re-raises. *)

  val run_into :
    ?config:config ->
    ?trace:Trace.t ->
    ?on_commit:(int -> 'o txn_output -> unit) ->
    storage:(L.t, V.t) Intf.storage ->
    parts:int ->
    apply:(int -> ((L.t -> V.t -> unit) -> unit) -> unit) ->
    'o txn array ->
    'o txn_output array * metrics
  (** Execute a block as {!run} does, but hand its final writes to [apply]
      by hash parts instead of returning a snapshot: the chain's commit
      path (DESIGN.md §4). After the worker loops, the calling domain
      settles the block as {!finalize} does (the rolling drain, the output
      checks, the lazy [on_commit] hook). Then the crew, the calling domain
      and every helper, claims the parts [0 .. parts - 1] through an atomic
      counter, and [apply p bindings] applies part [p]: [bindings f] calls
      [f l v] for the final value [v] of every location [l] the block wrote
      with [L.hash l land (parts - 1) = p], in no particular order
      ({!Blockstm_mvmemory.Mvmemory.Make.iter_shard} over MVMemory's shards
      [p], [p + parts], ...). So distinct parts run on distinct domains at
      once, and a descheduled helper holds up at most the part it claimed.

      The job reaches the instance, so it is cleared from the crew before
      the helpers are released, and a helper's exit still promotes only the
      result. A part that raises is recorded, the parts not yet claimed are
      skipped, and the first exception is re-raised once every helper has
      been released and joined; the parts that ran stay applied. Answers
      the outputs and the metrics, as {!run}'s result holds them.
      @raise Invalid_argument if [parts] is not a power of two from 1 to
      64 (MVMemory's shard count). *)
end
