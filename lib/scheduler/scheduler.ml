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

    {b Rolling commit} (created with [~rolling:true]): instead of committing
    the whole block when [check_done] fires, a monotone [commit_idx] sweeps
    forward — off the hot path, under a dedicated mutex — committing
    transaction [j] as soon as a {e completed} validation of [j]'s current
    incarnation is known to have observed the final state of the prefix.
    The evidence is a per-transaction {e proof}: the (incarnation, wave)
    recorded by the last successful validation, where the wave is the value
    of a global pullback counter captured when the validation task was
    claimed. A proof is admissible when its wave is at least [dirty.(j)], the
    wave of the last pullback targeting an index [<= j] — pullbacks stamp
    [dirty] {e before} publishing the status change that re-enables the
    mutated transaction, so an admissible proof's reads postdate every
    mutation of the frozen prefix. Committed is a terminal status:
    [try_validation_abort] refuses it, freezing the prefix. [check_done]
    stays as the termination backstop; DESIGN.md §8 has the full argument.

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

type task =
  | Execution of Version.t
  | Validation of Version.t * int
      (** The [int] is the claim wave: the pullback counter observed when the
          task was created, recorded into the commit proof on success. *)

let pp_task ppf = function
  | Execution v -> Fmt.pf ppf "execute%a" Version.pp v
  | Validation (v, w) -> Fmt.pf ppf "validate%a@@w%d" Version.pp v w

(* No-proof sentinel: matches no incarnation (incarnations start at 0). *)
let no_proof = (-1, -1)

type t = {
  block_size : int;
  rolling : bool;
  execution_idx : int Atomic.t;
  validation_idx : int Atomic.t;
  decrease_cnt : int Atomic.t;
  num_active_tasks : int Atomic.t;
  done_marker : bool Atomic.t;
  status : txn_state array;
  deps : dep_state array;
  (* Rolling-commit state. [pullback_marker] counts validation pullbacks;
     [dirty.(j)] is the marker of the last pullback targeting an index <= j;
     [proof.(j)] is the (incarnation, wave) of the last completed successful
     validation of transaction j. [dirty] and [proof] are empty unless
     [rolling]. *)
  pullback_marker : int Atomic.t;
  dirty : int Atomic.t array;
  proof : (int * int) Atomic.t array;
  commit_mutex : Mutex.t;
  commit_idx : int Atomic.t;
}

(* The global counters are the most contended words in the system — every
   task claim CASes one of them — and the per-txn dirty/proof/status slots
   are hammered by neighbouring indices, so all of them are padded onto
   their own cache lines (DESIGN.md §9). *)
let create ?(rolling = false) ~block_size () =
  if block_size < 0 then invalid_arg "Scheduler.create: negative block_size";
  let padded_atomic = Atomic_util.padded_atomic in
  let per_txn f = Atomic_util.init_array block_size f in
  {
    block_size;
    rolling;
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
    pullback_marker = padded_atomic 0;
    dirty = (if rolling then per_txn (fun _ -> padded_atomic 0) else [||]);
    proof =
      (if rolling then per_txn (fun _ -> padded_atomic no_proof) else [||]);
    commit_mutex = Mutex.create ();
    commit_idx = padded_atomic 0;
  }

let block_size t = t.block_size
let rolling t = t.rolling

(* --- Algorithm 5: utility procedures ------------------------------------ *)

let decrease_execution_idx t ~target_idx =
  ignore (Atomic_util.fetch_min t.execution_idx target_idx);
  Atomic_util.incr t.decrease_cnt

(* Stamp the pullback into the dirty array: every index >= target_idx may
   have stale validation proofs from before this pullback's mutation. Must
   run after the MVMemory mutation it reports and before the status change
   that re-enables the mutated transaction (see module comment). *)
let mark_dirty t ~target_idx : unit =
  if t.rolling && target_idx < t.block_size then begin
    let marker = 1 + Atomic_util.get_and_incr t.pullback_marker in
    for k = target_idx to t.block_size - 1 do
      ignore (Atomic_util.fetch_max t.dirty.(k) marker)
    done
  end

let decrease_validation_idx t ~target_idx =
  mark_dirty t ~target_idx;
  ignore (Atomic_util.fetch_min t.validation_idx target_idx);
  Atomic_util.incr t.decrease_cnt

(* The wave a validation claimed now would carry. *)
let current_wave t = Atomic.get t.pullback_marker

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

(* The wave is read after the claim and before the validation's reads. Any
   pullback marker it covers was stamped after the mutation it reports, so
   the reads see that mutation: the proof is sound. And a pullback that
   lowered [validation_idx] before this claim stamped its marker first, so
   the wave covers it: the claim that revalidates a pulled-back index is an
   admissible proof for it. Read before the claim, a pullback landing in
   between would leave its only revalidation of the index with a wave older
   than the index's dirty stamp, and the commit sweep would stall there. *)
let next_version_to_validate t : (Version.t * int) option =
  if Atomic.get t.validation_idx >= t.block_size then (
    check_done t;
    None)
  else (
    Atomic_util.incr t.num_active_tasks;
    let idx_to_validate = Atomic_util.get_and_incr t.validation_idx in
    let wave = current_wave t in
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
    match version with
    | Some v -> Some (v, wave)
    | None ->
        Atomic_util.decr t.num_active_tasks;
        None)

(* --- Algorithm 7: next task ---------------------------------------------- *)

let next_task t : task option =
  if Atomic.get t.validation_idx < Atomic.get t.execution_idx then
    match next_version_to_validate t with
    | Some (v, wave) -> Some (Validation (v, wave))
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
  (* Dirty-stamp before publishing EXECUTED: a new write location may
     invalidate any higher transaction's proof, and unlike the paper's lazy
     commit this must be recorded even when the validation sweep has not yet
     passed this transaction (a stale proof could otherwise be accepted by
     the commit sweep). The validation_idx pullback itself stays conditional
     below, exactly as in the paper. *)
  if wrote_new_location then mark_dirty t ~target_idx:txn_idx;
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
      (* Schedule validation for txn_idx and everything above it. The dirty
         stamp already happened above, pre-EXECUTED. *)
      ignore (Atomic_util.fetch_min t.validation_idx txn_idx);
      Atomic_util.incr t.decrease_cnt;
      Atomic_util.decr t.num_active_tasks;
      None)
    else
      (* Hand the single validation task to the caller; the active-task count
         transfers to it. The wave is read now, after the record: the
         validation's re-reads observe at least the state this wave vouches
         for. *)
      Some (Validation (Version.make ~txn_idx ~incarnation, current_wave t))
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

let finish_validation t ~version ~wave ~aborted : task option =
  let txn_idx = Version.txn_idx version in
  if aborted then (
    (* All higher transactions may have read the aborted writes. The
       pullback (and its dirty stamp) must land before the transaction is
       re-enabled: once READY, the re-execution can be claimed, finished,
       re-validated and committed — and the commit sweep may then read
       [dirty] for higher transactions, which must already reflect this
       abort. *)
    decrease_validation_idx t ~target_idx:(txn_idx + 1);
    set_ready_status t txn_idx;
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
    (* Successful validation: record the commit proof (rolling mode only).
       Proofs only ever strengthen — higher incarnation, or same incarnation
       with a later wave. A plain store would let a slow validation claimed
       before a pullback complete late and clobber a fresh proof with a stale
       one; with no further validation of this transaction scheduled, the
       commit sweep would then stall forever. *)
    (if t.rolling then
       let incarnation = Version.incarnation version in
       let cell = t.proof.(txn_idx) in
       let rec strengthen () =
         let (pi, pw) as old = Atomic.get cell in
         if
           (incarnation > pi || (incarnation = pi && wave > pw))
           && not (Atomic.compare_and_set cell old (incarnation, wave))
         then strengthen ()
       in
       strengthen ());
    Atomic_util.decr t.num_active_tasks;
    None)

(* --- Rolling commit sweep ------------------------------------------------- *)

let committed_prefix t = Atomic.get t.commit_idx

(* Commit rule for transaction j (under both commit_mutex and j's status
   lock): EXECUTED, with a completed successful validation of the current
   incarnation whose claim wave is at least dirty.(j). All i < j are already
   COMMITTED (the sweep is in order), so the state j reads from is frozen;
   the proof then certifies j's read-set against that frozen state. Setting
   COMMITTED under the status lock excludes any racing validation abort. *)
let sweep_commits t ~on_commit : int =
  let committed = ref 0 in
  let continue = ref true in
  while !continue do
    let j = Atomic.get t.commit_idx in
    if j >= t.block_size then continue := false
    else begin
      let s = t.status.(j) in
      let ok =
        Mutex.protect s.st_mutex (fun () ->
            if s.kind = Executed then begin
              let pi, pw = Atomic.get t.proof.(j) in
              if pi = s.incarnation && pw >= Atomic.get t.dirty.(j) then begin
                s.kind <- Committed;
                true
              end
              else false
            end
            else false)
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

let require_rolling t fn =
  if not t.rolling then
    invalid_arg (Printf.sprintf "Scheduler.%s: created without ~rolling:true" fn)

(** Opportunistic commit sweep: advances [commit_idx] as far as the commit
    rule allows, calling [on_commit j] for each newly committed transaction
    in preset order (while holding the commit mutex, so hooks are totally
    ordered). Non-blocking: returns 0 immediately when another thread holds
    the commit mutex. Returns the number of transactions committed. *)
let try_advance_commit t ~on_commit : int =
  require_rolling t "try_advance_commit";
  if Mutex.try_lock t.commit_mutex then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.commit_mutex)
      (fun () -> sweep_commits t ~on_commit)
  else 0

(** Blocking variant of {!try_advance_commit}, for finalization. *)
let advance_commit t ~on_commit : int =
  require_rolling t "advance_commit";
  Mutex.protect t.commit_mutex (fun () -> sweep_commits t ~on_commit)

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
