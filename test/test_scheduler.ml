(** Unit tests for the collaborative scheduler (Algorithms 5–9), driven
    single-threaded through scripted scenarios, plus cross-domain races on
    the dependency protocol and the commit sweep. *)

open Tutil
module S = Scheduler

let ver t i = Blockstm_kernel.Version.make ~txn_idx:t ~incarnation:i

let task_pp ppf = function
  | S.Execution v -> Fmt.pf ppf "Execution%a" Blockstm_kernel.Version.pp v
  | S.Validation (v, _) ->
      Fmt.pf ppf "Validation%a" Blockstm_kernel.Version.pp v

(* A validation task's [int] carries nothing; scripted expectations compare
   versions only. *)
let task_eq a b =
  match (a, b) with
  | S.Execution x, S.Execution y -> Blockstm_kernel.Version.equal x y
  | S.Validation (x, _), S.Validation (y, _) ->
      Blockstm_kernel.Version.equal x y
  | _ -> false

(* Expected-value shorthand. *)
let validation v = S.Validation (v, 0)

(* Complete a validation of [ver t i]. *)
let fin_val s t i ~aborted = S.finish_validation s ~version:(ver t i) ~aborted

let task = Alcotest.testable task_pp task_eq
let opt_task = Alcotest.option task

let test_initial_state () =
  let s = S.create ~block_size:4 () in
  Alcotest.(check int) "execution_idx" 0 (S.execution_idx s);
  Alcotest.(check int) "validation_idx" 0 (S.validation_idx s);
  Alcotest.(check int) "num_active" 0 (S.num_active_tasks s);
  Alcotest.(check bool) "not done" false (S.done_ s);
  Array.iteri
    (fun i () ->
      let inc, kind = S.status s i in
      Alcotest.(check int) "incarnation 0" 0 inc;
      Alcotest.(check bool) "ready" true (kind = S.Ready_to_execute))
    (Array.make 4 ())

let test_initial_tasks_are_executions_in_order () =
  let s = S.create ~block_size:3 () in
  Alcotest.check opt_task "tx0" (Some (S.Execution (ver 0 0))) (S.next_task s);
  Alcotest.check opt_task "tx1" (Some (S.Execution (ver 1 0))) (S.next_task s);
  Alcotest.check opt_task "tx2" (Some (S.Execution (ver 2 0))) (S.next_task s);
  Alcotest.(check int) "three active tasks" 3 (S.num_active_tasks s);
  (* Everything claimed: no more tasks, but not done (tasks ongoing). *)
  Alcotest.check opt_task "exhausted" None (S.next_task s);
  Alcotest.(check bool) "not done while active" false (S.done_ s)

let test_execute_then_validate_then_done () =
  let s = S.create ~block_size:2 () in
  let t0 = S.next_task s and t1 = S.next_task s in
  Alcotest.check opt_task "exec 0" (Some (S.Execution (ver 0 0))) t0;
  Alcotest.check opt_task "exec 1" (Some (S.Execution (ver 1 0))) t1;
  (* Finishing an execution with validation_idx <= txn returns no task (the
     validation sweep will reach it). *)
  Alcotest.check opt_task "no handoff for tx0"
    None
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  Alcotest.check opt_task "no handoff for tx1"
    None
    (S.finish_execution s ~txn_idx:1 ~incarnation:0 ~wrote_new_location:true);
  Alcotest.(check int) "no active tasks" 0 (S.num_active_tasks s);
  (* Validations now flow in index order. *)
  Alcotest.check opt_task "val 0" (Some (validation (ver 0 0)))
    (S.next_task s);
  Alcotest.check opt_task "val 1" (Some (validation (ver 1 0)))
    (S.next_task s);
  Alcotest.check opt_task "nothing after" None
    (fin_val s 0 0 ~aborted:false);
  Alcotest.check opt_task "nothing after" None
    (fin_val s 1 0 ~aborted:false);
  (* All indices beyond block, no active tasks: done flips on next poll. *)
  Alcotest.check opt_task "final poll" None (S.next_task s);
  Alcotest.(check bool) "done" true (S.done_ s)

let test_finish_execution_handoff_no_new_location () =
  let s = S.create ~block_size:1 () in
  ignore (S.next_task s);
  ignore (S.finish_execution s ~txn_idx:0 ~incarnation:0
            ~wrote_new_location:false);
  ignore (S.next_task s);
  (* Validation of (0,0) claimed; abort it to force re-execution. *)
  Alcotest.(check bool) "abort wins" true (S.try_validation_abort s (ver 0 0));
  let re = fin_val s 0 0 ~aborted:true in
  Alcotest.check opt_task "re-execution handed back"
    (Some (S.Execution (ver 0 1)))
    re;
  (* Re-executed incarnation writes no new location while validation_idx is
     already past it: the validation task is handed back to the caller. *)
  let v =
    S.finish_execution s ~txn_idx:0 ~incarnation:1 ~wrote_new_location:false
  in
  Alcotest.check opt_task "validation handed back"
    (Some (validation (ver 0 1)))
    v;
  Alcotest.check opt_task "validation done" None
    (fin_val s 0 1 ~aborted:false);
  ignore (S.next_task s);
  Alcotest.(check bool) "done" true (S.done_ s)

let test_abort_lowers_validation_idx () =
  let s = S.create ~block_size:3 () in
  for _ = 1 to 3 do ignore (S.next_task s) done;
  for i = 0 to 2 do
    ignore
      (S.finish_execution s ~txn_idx:i ~incarnation:0 ~wrote_new_location:true)
  done;
  (* Validate all three. *)
  let claimed = List.init 3 (fun _ -> S.next_task s) in
  Alcotest.(check int) "validation idx swept" 3 (S.validation_idx s);
  ignore claimed;
  (* tx1 fails validation. *)
  Alcotest.(check bool) "abort" true (S.try_validation_abort s (ver 1 0));
  let re = fin_val s 1 0 ~aborted:true in
  Alcotest.check opt_task "re-exec handed back" (Some (S.Execution (ver 1 1)))
    re;
  (* Validation index must have been pulled back to txn+1 = 2. *)
  Alcotest.(check int) "validation idx lowered" 2 (S.validation_idx s);
  (* Finish remaining validations and the re-execution. *)
  ignore (fin_val s 0 0 ~aborted:false);
  ignore (fin_val s 2 0 ~aborted:false);
  ignore
    (S.finish_execution s ~txn_idx:1 ~incarnation:1 ~wrote_new_location:true);
  (* tx1's new incarnation and tx2 must be re-validated. *)
  Alcotest.check opt_task "re-validate tx1" (Some (validation (ver 1 1)))
    (S.next_task s);
  Alcotest.check opt_task "re-validate tx2" (Some (validation (ver 2 0)))
    (S.next_task s);
  ignore (fin_val s 1 1 ~aborted:false);
  ignore (fin_val s 2 0 ~aborted:false);
  ignore (S.next_task s);
  Alcotest.(check bool) "done" true (S.done_ s)

let test_validation_abort_only_once () =
  let s = S.create ~block_size:1 () in
  ignore (S.next_task s);
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  ignore (S.next_task s);
  Alcotest.(check bool) "first abort wins" true
    (S.try_validation_abort s (ver 0 0));
  Alcotest.(check bool) "second abort loses" false
    (S.try_validation_abort s (ver 0 0))

let test_validation_abort_wrong_incarnation () =
  let s = S.create ~block_size:1 () in
  ignore (S.next_task s);
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  Alcotest.(check bool) "stale incarnation" false
    (S.try_validation_abort s (ver 0 1));
  Alcotest.(check bool) "future incarnation" false
    (S.try_validation_abort s (ver 0 5))

let test_validation_abort_requires_executed () =
  let s = S.create ~block_size:2 () in
  ignore (S.next_task s);
  (* tx0 still EXECUTING. *)
  Alcotest.(check bool) "not executed yet" false
    (S.try_validation_abort s (ver 0 0))

let test_add_dependency_on_executed_returns_false () =
  let s = S.create ~block_size:2 () in
  ignore (S.next_task s);
  ignore (S.next_task s);
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  (* tx1 observed an estimate of tx0, but tx0 finished in the meantime. *)
  Alcotest.(check bool) "already resolved" false
    (S.add_dependency s ~txn_idx:1 ~blocking_txn_idx:0);
  let _, kind = S.status s 1 in
  Alcotest.(check bool) "tx1 still executing" true (kind = S.Executing)

let test_add_dependency_parks_and_resumes () =
  let s = S.create ~block_size:2 () in
  ignore (S.next_task s);
  (* tx0 executing *)
  ignore (S.next_task s);
  (* tx1 executing *)
  Alcotest.(check bool) "parked" true
    (S.add_dependency s ~txn_idx:1 ~blocking_txn_idx:0);
  let _, kind = S.status s 1 in
  Alcotest.(check bool) "tx1 aborting" true (kind = S.Aborting);
  Alcotest.(check (list int)) "dependency recorded" [ 1 ] (S.dependents s 0);
  Alcotest.(check int) "active tasks drops to 1" 1 (S.num_active_tasks s);
  (* tx0 finishing must resume tx1 with a bumped incarnation. *)
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  let inc, kind = S.status s 1 in
  Alcotest.(check int) "incarnation bumped" 1 inc;
  Alcotest.(check bool) "ready again" true (kind = S.Ready_to_execute);
  Alcotest.(check (list int)) "dependencies cleared" [] (S.dependents s 0);
  (* Execution index must allow re-claiming tx1. *)
  Alcotest.(check bool) "execution idx lowered" true (S.execution_idx s <= 1)

let test_done_empty_block () =
  let s = S.create ~block_size:0 () in
  Alcotest.check opt_task "no task" None (S.next_task s);
  Alcotest.(check bool) "done immediately" true (S.done_ s)

let test_num_active_never_negative_scripted () =
  let s = S.create ~block_size:2 () in
  let check () =
    Alcotest.(check bool) "non-negative" true (S.num_active_tasks s >= 0)
  in
  ignore (S.next_task s);
  check ();
  ignore (S.next_task s);
  check ();
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:false);
  check ();
  ignore
    (S.finish_execution s ~txn_idx:1 ~incarnation:0 ~wrote_new_location:false);
  check ();
  ignore (S.next_task s);
  check ();
  ignore (fin_val s 0 0 ~aborted:false);
  check ();
  ignore (S.next_task s);
  ignore (fin_val s 1 0 ~aborted:false);
  check ();
  ignore (S.next_task s);
  Alcotest.(check int) "zero at completion" 0 (S.num_active_tasks s)

(* decrease_cnt must tick on every index decrease (the double-collect's
   correctness hinges on it). Note that next_task fetch-and-increments
   validation_idx even while transactions are still EXECUTING (the paper's
   Line 130) — those pre-validations no-op but the index races ahead, so a
   later finish_execution must pull it back and tick the counter. *)
let test_decrease_cnt_ticks () =
  let s = S.create ~block_size:3 () in
  for _ = 1 to 3 do ignore (S.next_task s) done;
  (* The interleaved claims above advanced validation_idx past 0. *)
  Alcotest.(check bool) "validation idx raced ahead" true
    (S.validation_idx s > 0);
  let c0 = S.decrease_cnt s in
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  Alcotest.(check bool) "tick on validation-idx pullback" true
    (S.decrease_cnt s > c0);
  Alcotest.(check int) "validation idx pulled back to 0" 0
    (S.validation_idx s);
  (* An abort with the validation index ahead must also tick. *)
  ignore
    (S.finish_execution s ~txn_idx:1 ~incarnation:0 ~wrote_new_location:false);
  ignore
    (S.finish_execution s ~txn_idx:2 ~incarnation:0 ~wrote_new_location:false);
  ignore (S.next_task s);
  (* validate tx0 *)
  ignore (S.next_task s);
  (* validate tx1 *)
  let c1 = S.decrease_cnt s in
  Alcotest.(check bool) "abort" true (S.try_validation_abort s (ver 1 0));
  ignore (fin_val s 1 0 ~aborted:true);
  Alcotest.(check bool) "tick on abort" true (S.decrease_cnt s > c1)

(* --- Rolling commit ------------------------------------------------------- *)

(* The version of a validation task handed out by the scheduler. *)
let claim_validation s =
  match S.next_task s with
  | Some (S.Validation (v, _)) -> v
  | t -> Alcotest.failf "expected a validation, got %a" (Fmt.option task_pp) t

let sweep ~valid s commits =
  ignore
    (S.try_advance_commit s ~valid ~on_commit:(fun j ->
         commits := j :: !commits))

(* Executions finishing out of preset order: the sweep must still commit 0,
   1, 2 in order, each once everything below it has committed. A commit
   needs only EXECUTED and a valid read set; no validation task runs. *)
let test_rolling_commit_preset_order () =
  let s = S.create ~block_size:3 () in
  for _ = 1 to 3 do ignore (S.next_task s) done;
  let checked = ref [] in
  let valid j =
    checked := j :: !checked;
    true
  in
  let commits = ref [] in
  let finish i =
    ignore
      (S.finish_execution s ~txn_idx:i ~incarnation:0 ~wrote_new_location:true);
    sweep ~valid s commits
  in
  finish 2;
  Alcotest.(check int) "tx2 alone commits nothing" 0 (S.committed_prefix s);
  finish 1;
  Alcotest.(check int) "tx0 still executing" 0 (S.committed_prefix s);
  finish 0;
  Alcotest.(check int) "all committed" 3 (S.committed_prefix s);
  Alcotest.(check (list int)) "hooks in preset order" [ 0; 1; 2 ]
    (List.rev !commits);
  Alcotest.(check (list int)) "each read set checked once, in order"
    [ 0; 1; 2 ] (List.rev !checked);
  for i = 0 to 2 do
    let _, kind = S.status s i in
    Alcotest.(check bool)
      (Printf.sprintf "tx%d COMMITTED" i)
      true (kind = S.Committed)
  done

(* An EXECUTED transaction whose read set does not validate is refused, and
   the refusal holds for its incarnation: later sweeps do not check it
   again. Once a validation task aborts it, the re-executed incarnation is
   checked afresh and commits. COMMITTED is terminal: it gets no validation
   task and no abort. *)
let test_rolling_invalid_refused () =
  let s = S.create ~block_size:2 () in
  ignore (S.next_task s);
  ignore (S.next_task s);
  for i = 0 to 1 do
    ignore
      (S.finish_execution s ~txn_idx:i ~incarnation:0 ~wrote_new_location:true)
  done;
  let bad = ref true in
  let checked = ref [] in
  let valid j =
    checked := j :: !checked;
    not (j = 1 && !bad)
  in
  let commits = ref [] in
  sweep ~valid s commits;
  Alcotest.(check int) "tx0 committed, tx1 refused" 1 (S.committed_prefix s);
  sweep ~valid s commits;
  Alcotest.(check (list int)) "refused incarnation not checked again" [ 0; 1 ]
    (List.rev !checked);
  Alcotest.check opt_task "committed tx0 gets no validation task" None
    (S.next_task s);
  let v1 = claim_validation s in
  Alcotest.(check bool) "abort tx1" true (S.try_validation_abort s v1);
  let re = S.finish_validation s ~version:v1 ~aborted:true in
  Alcotest.check opt_task "re-execution handed back"
    (Some (S.Execution (ver 1 1)))
    re;
  bad := false;
  sweep ~valid s commits;
  Alcotest.(check int) "executing tx1 not committed" 1 (S.committed_prefix s);
  let hv =
    S.finish_execution s ~txn_idx:1 ~incarnation:1 ~wrote_new_location:false
  in
  sweep ~valid s commits;
  Alcotest.(check int) "incarnation 1 commits" 2 (S.committed_prefix s);
  Alcotest.(check (list int)) "incarnation 1 checked afresh" [ 0; 1; 1 ]
    (List.rev !checked);
  Alcotest.(check (list int)) "hooks in preset order" [ 0; 1 ]
    (List.rev !commits);
  Alcotest.(check bool) "abort refused after commit" false
    (S.try_validation_abort s (ver 1 1));
  Alcotest.(check bool)
    "status COMMITTED" true
    (S.status s 1 = (1, S.Committed));
  (* The validation handed back for incarnation 1 finishes late, after the
     commit, and the block completes. *)
  (match hv with
  | Some (S.Validation (v, _)) ->
      ignore (S.finish_validation s ~version:v ~aborted:false)
  | t ->
      Alcotest.failf "expected validation handoff, got %a" (Fmt.option task_pp)
        t);
  Alcotest.check opt_task "no task left" None (S.next_task s);
  Alcotest.(check bool) "done" true (S.done_ s)

(* A storm of pullbacks while workers claim validations and sweep.
   [workers] domains spin on [next_task] and the commit sweep over a
   scheduler whose block is fully executed and validated, except for one
   validation claim the calling domain keeps open, so completion cannot
   latch. The caller fires 40 pullbacks, then finishes its claim.
   Oversubscribed domains get preempted mid-claim and mid-sweep, so
   pullbacks land on committed and uncommitted indices alike. Returns
   whether the block completes with the sweep committing all of it. *)
let pullback_race_trial ~n ~workers =
  let s = S.create ~block_size:n () in
  let valid _ = true in
  let open_claim = ref None in
  let rec run = function
    | S.Execution v ->
        Option.iter run
          (S.finish_execution s ~txn_idx:v.txn_idx ~incarnation:v.incarnation
             ~wrote_new_location:false)
    | S.Validation (v, _) ->
        ignore (S.finish_validation s ~version:v ~aborted:false)
  in
  let rec drain () =
    match S.next_task s with
    | Some (S.Validation (v, _)) when !open_claim = None ->
        open_claim := Some v;
        drain ()
    | Some t ->
        run t;
        drain ()
    | None -> ()
  in
  drain ();
  let started = Atomic.make 0 in
  let spin () =
    Atomic.incr started;
    while not (S.done_ s) do
      (match S.next_task s with Some t -> run t | None -> Domain.cpu_relax ());
      ignore (S.try_advance_commit s ~valid ~on_commit:ignore)
    done
  in
  let doms = List.init workers (fun _ -> Domain.spawn spin) in
  while Atomic.get started < workers do
    Domain.cpu_relax ()
  done;
  for r = 1 to 40 do
    S.decrease_validation_idx s ~target_idx:(r mod n)
  done;
  (match !open_claim with
  | Some v -> ignore (S.finish_validation s ~version:v ~aborted:false)
  | None -> Alcotest.fail "no validation claim was held open");
  List.iter Domain.join doms;
  ignore (S.advance_commit s ~valid ~on_commit:ignore);
  S.committed_prefix s = n

let test_pullback_race () =
  let trials = 120 in
  let stalled = ref 0 in
  for _ = 1 to trials do
    if not (pullback_race_trial ~n:8 ~workers:6) then incr stalled
  done;
  Alcotest.(check int)
    (Printf.sprintf "%d/%d trials stalled the commit sweep" !stalled trials)
    0 !stalled

(* A commit hook that raises must not leave the commit mutex locked: the
   next sweep, from the same domain, has to return instead of failing on a
   held lock. Checked for a raise inside either sweep variant. *)
let test_raising_commit_hook_unlocks () =
  let boom _ = failwith "hook failed" in
  List.iter
    (fun (name, sweep) ->
      let s = S.create ~block_size:2 () in
      let valid _ = true in
      let rec drain () =
        match S.next_task s with
        | Some (S.Execution v) ->
            ignore
              (S.finish_execution s ~txn_idx:v.txn_idx
                 ~incarnation:v.incarnation ~wrote_new_location:false);
            drain ()
        | Some (S.Validation (v, _)) ->
            ignore (S.finish_validation s ~version:v ~aborted:false);
            drain ()
        | None -> ()
      in
      drain ();
      Alcotest.check_raises (name ^ " re-raises") (Failure "hook failed")
        (fun () -> ignore (sweep s ~valid ~on_commit:boom));
      match S.advance_commit s ~valid ~on_commit:ignore with
      | _ -> ()
      | exception e ->
          Alcotest.failf "advance_commit after a raising hook in %s: %s" name
            (Printexc.to_string e))
    [
      ("try_advance_commit", S.try_advance_commit);
      ("advance_commit", S.advance_commit);
    ]

(* A failed assertion leaves the scheduler as it was: both assertions fire
   before any store, so the transaction keeps its status, nothing is
   parked, and another domain reads the state at once. Finishing
   transaction 0 while it is READY_TO_EXECUTE trips [finish_execution]'s
   assertion; parking transaction 1 on 0 while 1 is not EXECUTING trips
   [add_dependency]'s. Each trip gets its own scheduler, and the reads run
   under a timeout, so a hang fails the test instead of blocking it. *)
let test_failed_assertion_leaves_state () =
  let trips name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected an assertion failure" name
    | exception Assert_failure _ -> ()
  in
  let after_trip name f =
    match with_timeout ~secs:5. f with
    | Ok r -> r
    | Error e -> Alcotest.failf "%s: %s" name (Printexc.to_string e)
  in
  let s = S.create ~block_size:1 () in
  trips "finish_execution" (fun () ->
      S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:false);
  let status =
    after_trip "status after finish_execution" (fun () -> S.status s 0)
  in
  Alcotest.(check bool)
    "status unchanged" true
    (status = (0, S.Ready_to_execute));
  let s = S.create ~block_size:2 () in
  trips "add_dependency" (fun () ->
      S.add_dependency s ~txn_idx:1 ~blocking_txn_idx:0);
  let status, dependents =
    after_trip "status and dependents after add_dependency" (fun () ->
        (S.status s 1, S.dependents s 0))
  in
  Alcotest.(check bool)
    "not parked" true
    (status = (0, S.Ready_to_execute) && dependents = [])

(* The dependency protocol's lost-wakeup race, on 2 domains. Each round
   claims transactions 0 and 1, then releases both domains from a barrier,
   each after a short random pause: this domain finishes 0's execution
   while the other parks 1 on 0. Whatever the interleaving, 1 is either
   still EXECUTING(0), because [add_dependency] saw 0 resolved and
   returned [false], or READY_TO_EXECUTE(1) with the execution index
   pulled back to it — never left ABORTING(0) with nobody to resume it.
   The active-task count balances, and no entry is listed as parked: one
   that resumed itself stays in 0's list, but [dependents] skips it. Runs
   [rounds] rounds or for [secs] seconds, whichever ends first, so an
   oversubscribed host does not stretch it. *)
let test_dependency_race () =
  let rounds = 20_000 and secs = 3. in
  let sched = Atomic.make (S.create ~block_size:0 ()) in
  let arrived = Atomic.make 0 in
  let parked = Atomic.make false in
  let finished = Atomic.make 0 in
  let stop = Atomic.make false in
  let barrier r =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 * r do
      Domain.cpu_relax ()
    done
  in
  let pause rng =
    for _ = 1 to Random.State.int rng 24 do
      Domain.cpu_relax ()
    done
  in
  let helper =
    Domain.spawn (fun () ->
        let rng = Random.State.make [| 2 |] in
        let r = ref 1 in
        while not (Atomic.get stop) do
          barrier !r;
          if not (Atomic.get stop) then begin
            pause rng;
            Atomic.set parked
              (S.add_dependency (Atomic.get sched) ~txn_idx:1
                 ~blocking_txn_idx:0);
            Atomic.set finished !r
          end;
          incr r
        done)
  in
  let rng = Random.State.make [| 1 |] in
  let deadline = Unix.gettimeofday () +. secs in
  let outcomes = [| 0; 0 |] in
  let failure = ref None in
  let r = ref 1 in
  while !failure = None && !r <= rounds && Unix.gettimeofday () < deadline do
    let s = S.create ~block_size:2 () in
    ignore (S.next_task s);
    ignore (S.next_task s);
    Atomic.set sched s;
    barrier !r;
    pause rng;
    ignore
      (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
    while Atomic.get finished < !r do
      Domain.cpu_relax ()
    done;
    let p = Atomic.get parked in
    let status = S.status s 1 in
    let expected_active = if p then 0 else 1 in
    let ok =
      (if p then status = (1, S.Ready_to_execute) && S.execution_idx s <= 1
       else status = (0, S.Executing))
      && S.num_active_tasks s = expected_active
      && S.dependents s 0 = []
    in
    if not ok then
      failure :=
        Some
          (Fmt.str
             "round %d: add_dependency returned %b; tx1 %a(%d), execution_idx \
              %d, num_active_tasks %d (expected %d), %d listed dependents"
             !r p S.pp_status_kind (snd status) (fst status)
             (S.execution_idx s) (S.num_active_tasks s) expected_active
             (List.length (S.dependents s 0)));
    let o = if p then 1 else 0 in
    outcomes.(o) <- outcomes.(o) + 1;
    incr r
  done;
  Atomic.set stop true;
  barrier !r;
  Domain.join helper;
  match !failure with
  | Some msg -> Alcotest.fail msg
  | None ->
      Alcotest.(check bool)
        (Printf.sprintf "rounds ran (%d parked, %d resolved)" outcomes.(1)
           outcomes.(0))
        true
        (outcomes.(0) + outcomes.(1) > 0)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "initial tasks: executions in order" `Quick
      test_initial_tasks_are_executions_in_order;
    Alcotest.test_case "execute, validate, done" `Quick
      test_execute_then_validate_then_done;
    Alcotest.test_case "handoff: validation task on no-new-location" `Quick
      test_finish_execution_handoff_no_new_location;
    Alcotest.test_case "abort lowers validation index" `Quick
      test_abort_lowers_validation_idx;
    Alcotest.test_case "abort succeeds only once per version" `Quick
      test_validation_abort_only_once;
    Alcotest.test_case "abort needs matching incarnation" `Quick
      test_validation_abort_wrong_incarnation;
    Alcotest.test_case "abort needs EXECUTED status" `Quick
      test_validation_abort_requires_executed;
    Alcotest.test_case "add_dependency: resolved race returns false" `Quick
      test_add_dependency_on_executed_returns_false;
    Alcotest.test_case "add_dependency: parks and resumes" `Quick
      test_add_dependency_parks_and_resumes;
    Alcotest.test_case "empty block is done immediately" `Quick
      test_done_empty_block;
    Alcotest.test_case "num_active_tasks stays consistent" `Quick
      test_num_active_never_negative_scripted;
    Alcotest.test_case "decrease_cnt ticks on index decreases" `Quick
      test_decrease_cnt_ticks;
    Alcotest.test_case "rolling: commits in preset order" `Quick
      test_rolling_commit_preset_order;
    Alcotest.test_case "rolling: invalid read set refused" `Quick
      test_rolling_invalid_refused;
    Alcotest.test_case "rolling: pullbacks racing validation claims" `Quick
      test_pullback_race;
    Alcotest.test_case "rolling: raising commit hook releases the mutex"
      `Quick test_raising_commit_hook_unlocks;
    Alcotest.test_case "failed assertion leaves status and dependents unchanged"
      `Quick test_failed_assertion_leaves_state;
    Alcotest.test_case "add_dependency races finish_execution" `Quick
      test_dependency_race;
  ]
