(** The collaborative scheduler (the paper's Scheduler module,
    Algorithms 5–9), extended with a rolling committed-prefix sweep.

    Maintains two logical ordered sets — pending {e execution} tasks and
    pending {e validation} tasks — each implemented as a single atomic counter
    ([execution_idx] / [validation_idx]) combined with the per-transaction
    status array. Threads claim the lowest-indexed ready task by
    fetch-and-incrementing the relevant counter; adding a task back lowers the
    counter with an atomic [fetch_min].

    Completion is detected by [check_done]'s double-collect (the paper's
    Section 3.3.2): both indices at or past the block size, zero active tasks,
    and [decrease_cnt] unchanged across the observation window.

    {b Rolling commit}: instead of committing the whole block when
    [check_done] fires, a caller may sweep a monotone [commit_idx] forward —
    off the hot path, under a dedicated mutex — committing transaction [j]
    once [0..j-1] are committed, [j] is EXECUTED and [j]'s read set
    validates. The prefix [0..j-1] is frozen, so that one validation settles
    [j] for good (Theorem 1). Committed is a terminal status:
    [try_validation_abort] refuses it. [check_done] stays as the termination
    backstop; DESIGN.md §8 has the full argument.

    Deviations from the paper's pseudo-code, documented in DESIGN.md §4:
    - [try_incarnate] here is side-effect-free on [num_active_tasks]; each
      caller performs exactly one decrement on its own failure path. Taken
      literally, pseudo-code Lines 116+190 double-decrement when a
      re-execution task is claimed by a racing thread inside
      [finish_validation].
    - No per-transaction lock. A transaction's status is one atomic word and
      its dependents one atomic list; transitions are CASes or asserted
      stores, and [add_dependency] re-reads the blocker's status after it
      parks, so no wakeup is lost. *)

open Blockstm_kernel

type status_kind =
  | Ready_to_execute
  | Executing
  | Executed
  | Aborting
  | Committed

let pp_status_kind ppf k =
  Fmt.string ppf
    (match k with
    | Ready_to_execute -> "READY_TO_EXECUTE"
    | Executing -> "EXECUTING"
    | Executed -> "EXECUTED"
    | Aborting -> "ABORTING"
    | Committed -> "COMMITTED")

(* A status word packs [(incarnation, kind)] into one int: the incarnation
   above three bits of kind code. The incarnation only grows, so a word is
   never stored twice, and a CAS that expects a word also checks the
   incarnation. *)
let ready = 0
let executing = 1
let executed = 2
let aborting = 3
let committed = 4
let word incarnation code = (incarnation lsl 3) lor code
let code_of w = w land 7
let incarnation_of w = w lsr 3

let kind_of_code = function
  | 0 -> Ready_to_execute
  | 1 -> Executing
  | 2 -> Executed
  | 3 -> Aborting
  | _ -> Committed

type task = Execution of Version.t | Validation of Version.t * int

let pp_task ppf = function
  | Execution v -> Fmt.pf ppf "execute%a" Version.pp v
  | Validation (v, _) -> Fmt.pf ppf "validate%a" Version.pp v

type t = {
  block_size : int;
  execution_idx : int Atomic.t;
  validation_idx : int Atomic.t;
  decrease_cnt : int Atomic.t;
  num_active_tasks : int Atomic.t;
  done_marker : bool Atomic.t;
  status : int Atomic.t array;
  (* Per blocker, the [(txn_idx, incarnation)] pairs parked on it. An
     entry whose transaction resumed itself stays until the blocker's next
     [finish_execution] takes the list; its resume CAS then fails. *)
  deps : (int * int) list Atomic.t array;
  (* Rolling-commit state, guarded by [commit_mutex] except for reads of
     [commit_idx]. [refused_idx]/[refused_incarnation] remember the last
     incarnation whose read set the sweep found invalid: against a frozen
     prefix that verdict is final, so the sweep does not validate it again. *)
  commit_mutex : Mutex.t;
  commit_idx : int Atomic.t;
  mutable refused_idx : int;
  mutable refused_incarnation : int;
}

(* The global counters are the most contended words in the system — every
   task claim CASes one of them — and the per-txn status words are hammered
   by neighbouring indices, so all of them are padded onto their own cache
   lines (DESIGN.md §9). A dependents list is written only when a
   transaction parks on it or its blocker finishes with it non-empty. *)
let create ~block_size () =
  if block_size < 0 then invalid_arg "Scheduler.create: negative block_size";
  let padded_atomic = Atomic_util.padded_atomic in
  let per_txn f = Atomic_util.init_array block_size f in
  {
    block_size;
    execution_idx = padded_atomic 0;
    validation_idx = padded_atomic 0;
    decrease_cnt = padded_atomic 0;
    num_active_tasks = padded_atomic 0;
    done_marker = padded_atomic false;
    status = per_txn (fun _ -> padded_atomic (word 0 ready));
    deps = per_txn (fun _ -> Atomic.make []);
    commit_mutex = Mutex.create ();
    commit_idx = padded_atomic 0;
    refused_idx = -1;
    refused_incarnation = -1;
  }

let block_size t = t.block_size

(* --- Algorithm 5: utility procedures ------------------------------------ *)

let decrease_execution_idx t ~target_idx =
  ignore (Atomic_util.fetch_min t.execution_idx target_idx);
  Atomic_util.incr t.decrease_cnt

let decrease_validation_idx t ~target_idx =
  ignore (Atomic_util.fetch_min t.validation_idx target_idx);
  Atomic_util.incr t.decrease_cnt

(* Double-collect on [decrease_cnt]: reads are sequenced explicitly (OCaml
   application evaluates arguments right-to-left, so we avoid inline reads). *)
let check_done t =
  let observed_cnt = Atomic.get t.decrease_cnt in
  let e = Atomic.get t.execution_idx in
  let v = Atomic.get t.validation_idx in
  let active = Atomic.get t.num_active_tasks in
  let cnt_now = Atomic.get t.decrease_cnt in
  if min e v >= t.block_size && active = 0 && observed_cnt = cnt_now then
    Atomic.set t.done_marker true

let done_ t = Atomic.get t.done_marker

(** Observe a transaction's current (incarnation, status) — test/debug aid. *)
let status t idx =
  let w = Atomic.get t.status.(idx) in
  (incarnation_of w, kind_of_code (code_of w))

(* --- Algorithm 6: index / status interplay ------------------------------- *)

(* Try to claim transaction [txn_idx] for execution: a CAS from
   READY_TO_EXECUTE(i) to EXECUTING(i). Returns the version to execute. No
   counter side effects (see module comment). *)
let try_incarnate t txn_idx : Version.t option =
  if txn_idx < t.block_size then
    let s = t.status.(txn_idx) in
    let w = Atomic.get s in
    let incarnation = incarnation_of w in
    if
      code_of w = ready
      && Atomic.compare_and_set s w (word incarnation executing)
    then Some (Version.make ~txn_idx ~incarnation)
    else None
  else None

let next_version_to_execute t : Version.t option =
  if Atomic.get t.execution_idx >= t.block_size then (
    check_done t;
    None)
  else (
    Atomic_util.incr t.num_active_tasks;
    let idx_to_execute = Atomic_util.get_and_incr t.execution_idx in
    match try_incarnate t idx_to_execute with
    | Some v -> Some v
    | None ->
        (* No task created: revert the increment above. *)
        Atomic_util.decr t.num_active_tasks;
        None)

let next_version_to_validate t : Version.t option =
  if Atomic.get t.validation_idx >= t.block_size then (
    check_done t;
    None)
  else (
    Atomic_util.incr t.num_active_tasks;
    let idx_to_validate = Atomic_util.get_and_incr t.validation_idx in
    let version =
      if idx_to_validate < t.block_size then
        let w = Atomic.get t.status.(idx_to_validate) in
        if code_of w = executed then
          Some
            (Version.make ~txn_idx:idx_to_validate
               ~incarnation:(incarnation_of w))
        else None
      else None
    in
    if Option.is_none version then Atomic_util.decr t.num_active_tasks;
    version)

(* --- Algorithm 7: next task ---------------------------------------------- *)

let next_task t : task option =
  if Atomic.get t.validation_idx < Atomic.get t.execution_idx then
    match next_version_to_validate t with
    | Some v -> Some (Validation (v, 0))
    | None -> (
        match next_version_to_execute t with
        | Some v -> Some (Execution v)
        | None -> None)
  else
    match next_version_to_execute t with
    | Some v -> Some (Execution v)
    | None -> None

(* --- Algorithm 8: dependencies ------------------------------------------- *)

(* A blocker whose writes are final for now: an ESTIMATE read of it is
   stale. *)
let resolved w =
  let c = code_of w in
  c = executed || c = committed

(* ABORTING(i) -> READY_TO_EXECUTE(i+1) for a transaction parked at
   incarnation [i]. The blocker's [finish_execution] and the parker's own
   re-read may both try; exactly one CAS wins, and a stale entry (the
   parker already resumed) fails it. *)
let try_resume t txn_idx incarnation =
  Atomic.compare_and_set t.status.(txn_idx) (word incarnation aborting)
    (word (incarnation + 1) ready)

let rec push_dependent d entry =
  let l = Atomic.get d in
  if not (Atomic.compare_and_set d l (entry :: l)) then push_dependent d entry

(* Called when executing [txn_idx] read an ESTIMATE left by
   [blocking_txn_idx]. Returns [false] if the dependency got resolved in the
   meantime (caller must immediately retry execution); [true] if the
   caller's execution task is over: [txn_idx] is parked until
   [blocking_txn_idx]'s next incarnation finishes, or already resumed.

   The park is ABORTING(i), then the push, then a second read of the
   blocker's status. A [finish_execution] of the blocker stores EXECUTED
   before it takes the list, and atomics are sequentially consistent, so
   if it took the list before the push, the second read sees EXECUTED (or
   COMMITTED) and the parker resumes itself; if it took it after, it
   resumes the parker. If the blocker was aborted again in between, its
   next [finish_execution] takes the entry. The assertion fires before any
   store. *)
let add_dependency t ~txn_idx ~blocking_txn_idx : bool =
  let b = t.status.(blocking_txn_idx) in
  if resolved (Atomic.get b) then false
  else begin
    let s = t.status.(txn_idx) in
    let w = Atomic.get s in
    (* Previous status must be EXECUTING: this thread is the executor. *)
    assert (code_of w = executing);
    let incarnation = incarnation_of w in
    Atomic.set s (word incarnation aborting);
    push_dependent t.deps.(blocking_txn_idx) (txn_idx, incarnation);
    if resolved (Atomic.get b) && try_resume t txn_idx incarnation then
      decrease_execution_idx t ~target_idx:txn_idx;
    (* Execution task aborted due to a dependency. *)
    Atomic_util.decr t.num_active_tasks;
    true
  end

(* Resume every entry still parked; returns the lowest index resumed, or
   [max_int]. *)
let rec resume_dependencies t min_dep = function
  | [] -> min_dep
  | (dep, incarnation) :: rest ->
      let min_dep =
        if try_resume t dep incarnation then min min_dep dep else min_dep
      in
      resume_dependencies t min_dep rest

(* Called after an incarnation's writes were recorded in MVMemory. May hand a
   validation task for the same version back to the caller (optimization:
   when no new location was written, only this transaction needs
   revalidation). EXECUTED is stored before the dependents list is read
   (see [add_dependency]); an empty list is left unwritten. *)
let finish_execution t ~txn_idx ~incarnation ~wrote_new_location : task option
    =
  let s = t.status.(txn_idx) in
  assert (Atomic.get s = word incarnation executing);
  Atomic.set s (word incarnation executed);
  let d = t.deps.(txn_idx) in
  (match Atomic.get d with
  | [] -> ()
  | _ ->
      let min_dep = resume_dependencies t max_int (Atomic.exchange d []) in
      if min_dep < max_int then decrease_execution_idx t ~target_idx:min_dep);
  if Atomic.get t.validation_idx > txn_idx then
    if wrote_new_location then (
      (* Schedule validation for txn_idx and everything above it. *)
      decrease_validation_idx t ~target_idx:txn_idx;
      Atomic_util.decr t.num_active_tasks;
      None)
    else
      (* Hand the single validation task to the caller; the active-task count
         transfers to it. *)
      Some (Validation (Version.make ~txn_idx ~incarnation, 0))
  else (
    (* validation_idx <= txn_idx: revalidation is already on its way. *)
    Atomic_util.decr t.num_active_tasks;
    None)

(* --- Algorithm 9: validation aborts -------------------------------------- *)

(* Only the first failing validation of a given version wins the abort: a
   CAS from EXECUTED(i) to ABORTING(i). A COMMITTED transaction is final — a
   stale in-flight validation that fails afterwards loses here,
   deterministically. *)
let try_validation_abort t (version : Version.t) : bool =
  let incarnation = Version.incarnation version in
  Atomic.compare_and_set
    t.status.(Version.txn_idx version)
    (word incarnation executed) (word incarnation aborting)

(* ABORTING(i) -> READY_TO_EXECUTE(i+1), by the validation that won the
   abort: no other transition leaves ABORTING(i) of a validation abort. *)
let finish_validation t ~version ~aborted : task option =
  let txn_idx = Version.txn_idx version in
  if aborted then (
    let s = t.status.(txn_idx) in
    let incarnation = Version.incarnation version in
    assert (Atomic.get s = word incarnation aborting);
    Atomic.set s (word (incarnation + 1) ready);
    (* All higher transactions may have read the aborted writes. *)
    decrease_validation_idx t ~target_idx:(txn_idx + 1);
    if Atomic.get t.execution_idx > txn_idx then (
      match try_incarnate t txn_idx with
      | Some v ->
          (* Hand the re-execution task to the caller (count transfers). *)
          Some (Execution v)
      | None ->
          (* Another thread already claimed the re-execution. *)
          Atomic_util.decr t.num_active_tasks;
          None)
    else (
      (* execution_idx <= txn_idx: the sweep will pick it up. *)
      Atomic_util.decr t.num_active_tasks;
      None))
  else (
    Atomic_util.decr t.num_active_tasks;
    None)

(* --- Rolling commit sweep ------------------------------------------------- *)

let committed_prefix t = Atomic.get t.commit_idx

(* Commit rule for transaction j (under commit_mutex): EXECUTED(i), and
   [valid j] — j's read set validates — then a CAS from EXECUTED(i) to
   COMMITTED(i). All i < j are already COMMITTED (the sweep is in order),
   so the state j reads from is frozen and one validation is final either
   way: a valid read set gives the sequential result (Theorem 1), and an
   invalid one stays invalid until a validation task aborts the
   incarnation (Lemma 2), so the refusal is memoised per incarnation. A
   successful CAS means j stayed EXECUTED(i) from the first read on, so
   the read set [valid] checked was incarnation i's; a failed one (a
   validation abort won) means j is not committable yet. *)
let sweep_commits t ~valid ~on_commit : int =
  let committed_now = ref 0 in
  let continue = ref true in
  while !continue do
    let j = Atomic.get t.commit_idx in
    if j >= t.block_size then continue := false
    else begin
      let s = t.status.(j) in
      let w = Atomic.get s in
      let incarnation = incarnation_of w in
      if
        code_of w <> executed
        || (t.refused_idx = j && t.refused_incarnation = incarnation)
      then continue := false
      else if not (valid j) then begin
        t.refused_idx <- j;
        t.refused_incarnation <- incarnation;
        continue := false
      end
      else if Atomic.compare_and_set s w (word incarnation committed) then begin
        on_commit j;
        Atomic.set t.commit_idx (j + 1);
        incr committed_now
      end
      else continue := false
    end
  done;
  !committed_now

(** Opportunistic commit sweep: advances [commit_idx] as far as the commit
    rule allows, calling [on_commit j] for each newly committed transaction
    in preset order (while holding the commit mutex, so hooks are totally
    ordered). Non-blocking: returns 0 immediately when another thread holds
    the commit mutex. Returns the number of transactions committed. *)
let try_advance_commit t ~valid ~on_commit : int =
  if Mutex.try_lock t.commit_mutex then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.commit_mutex)
      (fun () -> sweep_commits t ~valid ~on_commit)
  else 0

(** Blocking variant of {!try_advance_commit}, for finalization. *)
let advance_commit t ~valid ~on_commit : int =
  Mutex.protect t.commit_mutex (fun () -> sweep_commits t ~valid ~on_commit)

(* --- Introspection (tests, simulator, metrics) --------------------------- *)

let execution_idx t = Atomic.get t.execution_idx
let validation_idx t = Atomic.get t.validation_idx
let num_active_tasks t = Atomic.get t.num_active_tasks
let decrease_cnt t = Atomic.get t.decrease_cnt

(* Entries whose transaction is still ABORTING at the incarnation that
   parked it; a self-resumed entry is skipped. *)
let dependents t idx =
  List.filter_map
    (fun (dep, incarnation) ->
      if Atomic.get t.status.(dep) = word incarnation aborting then Some dep
      else None)
    (Atomic.get t.deps.(idx))
