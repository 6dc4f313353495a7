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

    Deviation from the paper's pseudo-code, documented in DESIGN.md §4:
    [try_incarnate] here is side-effect-free on [num_active_tasks]; each
    caller performs exactly one decrement on its own failure path. Taken
    literally, pseudo-code Lines 116+190 double-decrement when a re-execution
    task is claimed by a racing thread inside [finish_validation]. *)

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

type txn_state = {
  st_mutex : Mutex.t;
  mutable incarnation : int;
  mutable kind : status_kind;
}

type dep_state = { dep_mutex : Mutex.t; mutable dependents : int list }

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
  status : txn_state array;
  deps : dep_state array;
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
   task claim CASes one of them — and the per-txn status slots are hammered
   by neighbouring indices, so all of them are padded onto their own cache
   lines (DESIGN.md §9). *)
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
    status =
      per_txn (fun _ ->
          Atomic_util.pad
            {
              st_mutex = Mutex.create ();
              incarnation = 0;
              kind = Ready_to_execute;
            });
    deps =
      per_txn (fun _ ->
          Atomic_util.pad { dep_mutex = Mutex.create (); dependents = [] });
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

(* --- Status helpers ------------------------------------------------------ *)

(* A transaction's status is read and changed under its [st_mutex], taken
   with [Mutex.protect]: the lock is released if the body raises (a failed
   assertion), so the other workers get the exception re-raised by
   [Block_stm.run] instead of blocking forever in [Mutex.lock]. Each body
   closes over the status record itself, so taking the lock allocates no
   closure beyond the body. *)

(** Observe a transaction's current (incarnation, status) — test/debug aid. *)
let status t idx =
  let s = t.status.(idx) in
  Mutex.protect s.st_mutex (fun () -> (s.incarnation, s.kind))

(* --- Algorithm 6: index / status interplay ------------------------------- *)

(* Try to claim transaction [txn_idx] for execution: READY_TO_EXECUTE ->
   EXECUTING. Returns the version to execute. No counter side effects (see
   module comment). *)
let try_incarnate t txn_idx : Version.t option =
  if txn_idx < t.block_size then
    let s = t.status.(txn_idx) in
    Mutex.protect s.st_mutex (fun () ->
        if s.kind = Ready_to_execute then (
          s.kind <- Executing;
          Some (Version.make ~txn_idx ~incarnation:s.incarnation))
        else None)
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
        let s = t.status.(idx_to_validate) in
        Mutex.protect s.st_mutex (fun () ->
            if s.kind = Executed then
              Some
                (Version.make ~txn_idx:idx_to_validate
                   ~incarnation:s.incarnation)
            else None)
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

(* Called when executing [txn_idx] read an ESTIMATE left by
   [blocking_txn_idx]. Returns [false] if the dependency got resolved in the
   meantime (caller must immediately retry execution); [true] if [txn_idx] is
   now parked until [blocking_txn_idx]'s next incarnation finishes. Lock
   order: dependency lock of the blocking txn, then status locks — the unique
   global order (Claim 5) that makes deadlock impossible. Both kinds of lock
   are released if the body raises. *)
let add_dependency t ~txn_idx ~blocking_txn_idx : bool =
  let d = t.deps.(blocking_txn_idx) in
  let parked =
    Mutex.protect d.dep_mutex (fun () ->
        let b = t.status.(blocking_txn_idx) in
        let resolved =
          Mutex.protect b.st_mutex (fun () ->
              b.kind = Executed || b.kind = Committed)
        in
        if not resolved then begin
          let s = t.status.(txn_idx) in
          Mutex.protect s.st_mutex (fun () ->
              (* Previous status must be EXECUTING: this thread is the
                 executor. *)
              assert (s.kind = Executing);
              s.kind <- Aborting);
          d.dependents <- txn_idx :: d.dependents
        end;
        not resolved)
  in
  (* Execution task aborted due to a dependency. *)
  if parked then Atomic_util.decr t.num_active_tasks;
  parked

(* ABORTING(i) -> READY_TO_EXECUTE(i+1). *)
let set_ready_status t txn_idx : unit =
  let s = t.status.(txn_idx) in
  Mutex.protect s.st_mutex (fun () ->
      assert (s.kind = Aborting);
      s.incarnation <- s.incarnation + 1;
      s.kind <- Ready_to_execute)

let resume_dependencies t (dependent_txn_indices : int list) : unit =
  List.iter (fun dep -> set_ready_status t dep) dependent_txn_indices;
  match dependent_txn_indices with
  | [] -> ()
  | l ->
      let min_dep = List.fold_left min max_int l in
      decrease_execution_idx t ~target_idx:min_dep

(* Called after an incarnation's writes were recorded in MVMemory. May hand a
   validation task for the same version back to the caller (optimization:
   when no new location was written, only this transaction needs
   revalidation). *)
let finish_execution t ~txn_idx ~incarnation ~wrote_new_location : task option
    =
  let s = t.status.(txn_idx) in
  Mutex.protect s.st_mutex (fun () ->
      assert (s.kind = Executing && s.incarnation = incarnation);
      s.kind <- Executed);
  let d = t.deps.(txn_idx) in
  Mutex.lock d.dep_mutex;
  let deps = d.dependents in
  d.dependents <- [];
  Mutex.unlock d.dep_mutex;
  resume_dependencies t deps;
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

(* Only the first failing validation of a given version wins the abort:
   EXECUTED(i) -> ABORTING(i). A COMMITTED transaction is final — a stale
   in-flight validation that fails afterwards loses here, deterministically. *)
let try_validation_abort t (version : Version.t) : bool =
  let txn_idx = Version.txn_idx version in
  let incarnation = Version.incarnation version in
  let s = t.status.(txn_idx) in
  Mutex.protect s.st_mutex (fun () ->
      if s.incarnation = incarnation && s.kind = Executed then (
        s.kind <- Aborting;
        true)
      else false)

let finish_validation t ~version ~aborted : task option =
  let txn_idx = Version.txn_idx version in
  if aborted then (
    set_ready_status t txn_idx;
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

(* Commit rule for transaction j (under both commit_mutex and j's status
   lock): EXECUTED, and [valid j] — j's read set validates. All i < j are
   already COMMITTED (the sweep is in order), so the state j reads from is
   frozen and one validation is final either way: a valid read set gives the
   sequential result (Theorem 1), and an invalid one stays invalid until a
   validation task aborts the incarnation (Lemma 2), so the refusal is
   memoised per incarnation. The status lock keeps the incarnation, and so
   its recorded read set, fixed during the check, and setting COMMITTED
   under it excludes any racing validation abort. *)
let sweep_commits t ~valid ~on_commit : int =
  let committed = ref 0 in
  let continue = ref true in
  while !continue do
    let j = Atomic.get t.commit_idx in
    if j >= t.block_size then continue := false
    else begin
      let s = t.status.(j) in
      let ok =
        Mutex.protect s.st_mutex (fun () ->
            if
              s.kind <> Executed
              || (t.refused_idx = j && t.refused_incarnation = s.incarnation)
            then false
            else if valid j then begin
              s.kind <- Committed;
              true
            end
            else begin
              t.refused_idx <- j;
              t.refused_incarnation <- s.incarnation;
              false
            end)
      in
      if ok then begin
        on_commit j;
        Atomic.set t.commit_idx (j + 1);
        incr committed
      end
      else continue := false
    end
  done;
  !committed

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

let dependents t idx =
  let d = t.deps.(idx) in
  Mutex.lock d.dep_mutex;
  let l = d.dependents in
  Mutex.unlock d.dep_mutex;
  l
