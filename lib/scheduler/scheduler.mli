(** The collaborative scheduler (paper Algorithms 5–9), extended with a
    rolling committed-prefix sweep.

    Tracks, for a block of [block_size] transactions, the ordered sets of
    pending execution and validation tasks, each implemented as an atomic
    counter plus the per-transaction status array. Thread-safe: any number
    of domains may call any function concurrently.

    Lifecycle of a transaction's status (paper Figure 2, plus the terminal
    COMMITTED state of the rolling-commit extension):
    {v
      READY_TO_EXECUTE(i) -> EXECUTING(i) -> EXECUTED(i) -> COMMITTED(i)
                                  |              |          (terminal)
                     (dependency) v              v (failed validation)
                              ABORTING(i) <------+
                                  |
                                  v
                        READY_TO_EXECUTE(i+1)
    v}

    Only the commit sweep ({!try_advance_commit}, {!advance_commit}) sets
    COMMITTED. A caller that never sweeps gets the paper's scheduler, with
    the whole block committing at once when {!done_} flips (Lemma 2).

    No transition takes a lock: a transaction's status is one atomic word,
    changed by a CAS where two threads may race for it (claiming an
    execution, a validation abort, a commit, resuming a parked dependent)
    and by an asserted store where only its owner can act (the executor's
    EXECUTED or ABORTING, the aborting validation's READY_TO_EXECUTE). The
    commit sweep's mutex is the scheduler's only lock. *)

open Blockstm_kernel

type status_kind =
  | Ready_to_execute
  | Executing
  | Executed
  | Aborting
  | Committed  (** Terminal: set by the rolling-commit sweep, never aborts. *)

val pp_status_kind : Format.formatter -> status_kind -> unit

(** A schedulable unit of work for a specific transaction version. The
    [int] of a validation is always 0: it carries nothing, and is kept so
    the constructor's shape stays stable for callers that match on it. *)
type task =
  | Execution of Version.t
  | Validation of Version.t * int

val pp_task : Format.formatter -> task -> unit

type t

(** [create ~block_size ()] initializes the scheduler: every transaction is
    [Ready_to_execute] at incarnation 0, both task counters at index 0. *)
val create : block_size:int -> unit -> t

val block_size : t -> int

(** Claim the lowest-indexed available task, preferring validations when the
    validation counter trails the execution counter (Algorithm 7).
    [None] means nothing was ready — which does {e not} imply completion;
    poll {!done_}. *)
val next_task : t -> task option

(** [add_dependency t ~txn_idx ~blocking_txn_idx] parks [txn_idx] (whose
    execution read an ESTIMATE of [blocking_txn_idx]) until the blocking
    transaction's next incarnation completes. Returns [false] if the
    dependency resolved in the meantime — the caller must immediately
    re-execute (paper Line 15). On [true], the caller's execution task is
    finished (the active-task count is released): [txn_idx] is parked, or,
    if the blocker finished while it parked, already READY_TO_EXECUTE at
    the next incarnation with the execution index pulled back to it. *)
val add_dependency : t -> txn_idx:int -> blocking_txn_idx:int -> bool

(** [try_validation_abort t version] attempts EXECUTED(i) -> ABORTING(i).
    Only the first failing validation of a given version succeeds; all
    others return [false] and must treat the abort as already handled. A
    [Committed] transaction is final: late-failing stale validations lose
    the race here deterministically. *)
val try_validation_abort : t -> Version.t -> bool

(** Publish the completion of an execution: resumes parked dependents and
    schedules revalidation. When [wrote_new_location] is false and the
    validation sweep is already past this transaction, the single required
    validation task is handed back to the caller (who then owns its
    active-task count). *)
val finish_execution :
  t -> txn_idx:int -> incarnation:int -> wrote_new_location:bool -> task option

(** Publish the completion of a validation of [version]. If [aborted], bumps
    the transaction to the next incarnation, pulls the validation counter
    back to [txn_idx + 1], and — when possible — hands the re-execution task
    straight back to the caller. *)
val finish_validation : t -> version:Version.t -> aborted:bool -> task option

(** Whether the whole block is committed (Theorem 1): set by the
    double-collect in the internal [check_done], which runs whenever a
    counter sweeps past the block. Once [true], it never reverts. *)
val done_ : t -> bool

val decrease_validation_idx : t -> target_idx:int -> unit
(** Algorithm 5's validation pullback: lower the validation index to
    [target_idx], so every transaction from there up is revalidated. Exposed
    so tests can fire pullbacks against in-flight validation claims. *)

(** {2 Rolling commit} *)

val committed_prefix : t -> int
(** Length of the committed prefix: transactions [0 .. committed_prefix - 1]
    are final. Monotone; reaches [block_size] by the time {!done_} holds and
    a final {!advance_commit} has run. Stays 0 if nobody sweeps. *)

val try_advance_commit :
  t -> valid:(int -> bool) -> on_commit:(int -> unit) -> int
(** Opportunistic commit sweep: advances the committed prefix as far as the
    commit rule allows — transaction [j] commits when [0 .. j-1] are
    committed, [j] is [Executed] at some incarnation [i], and [valid j]
    holds; then a CAS from [Executed] to [Committed] at [i] commits it. A
    failed CAS (a validation abort got there first) leaves [j] for a later
    sweep. [valid j] must say whether [j]'s recorded read set validates,
    the decision a validation task makes; with [0 .. j-1] frozen, it is
    final for [j]'s current incarnation, so an incarnation refused once is
    not checked again. Calls [on_commit j] for each newly
    committed transaction in preset order, while holding the commit mutex
    (hooks are totally ordered across domains). Non-blocking: returns 0
    immediately if another domain holds the commit mutex. Returns the
    number of transactions committed by this call. A raising [valid] or
    [on_commit] releases the commit mutex before the exception
    propagates. *)

val advance_commit : t -> valid:(int -> bool) -> on_commit:(int -> unit) -> int
(** Blocking variant of {!try_advance_commit}, for finalization: after
    {!done_} holds, one call commits every remaining transaction. *)

(** {2 Introspection} — used by tests, the simulator and metrics. *)

val status : t -> int -> int * status_kind
(** Current (incarnation, status) of a transaction. *)

val execution_idx : t -> int
val validation_idx : t -> int
val num_active_tasks : t -> int
val decrease_cnt : t -> int

val dependents : t -> int -> int list
(** Transactions currently parked on the given transaction: still
    ABORTING at the incarnation that parked. One that resumed itself may
    stay in the internal list until the blocker's next execution finishes,
    but is not listed. *)
