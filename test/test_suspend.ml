(** Tests for the suspend-resume extension (paper §7, implemented with OCaml
    effect handlers): instead of restarting an incarnation from scratch when
    a read hits an ESTIMATE, the engine captures the continuation, validates
    the read prefix when the dependency resolves, and resumes
    mid-transaction. *)

open Blockstm_kernel
open Tutil

let sr_config ?(num_domains = 1) () =
  Bstm.optimistic_config ~num_domains (fun o ->
      { o with suspend_resume = true })

(* Scripted scenario driving start_task/finish_task by hand:

   tx0 writes loc5; tx1 reads loc5 and writes loc1; tx2 reads loc0 (a
   storage prefix read) and then loc1.

   tx1 executes speculatively before tx0 commits and aborts on validation,
   leaving an ESTIMATE at loc1. tx2's FIRST incarnation then starts while
   the estimate is still in place (we hold tx1's re-execution task to keep
   it slow): its read of loc1 hits the estimate mid-execution, so the
   continuation is captured after the prefix read of loc0. Once tx1
   re-executes, tx2's next incarnation must validate the prefix and resume
   mid-transaction rather than restart. *)
let test_scripted_suspension_and_resume () =
  let tx0 : itxn = fun e -> e.write 5 50; 0 in
  let tx1 : itxn =
   fun e ->
    let v = match e.read 5 with Some v -> v | None -> -1 in
    e.write 1 (v * 10);
    v
  in
  let tx2 : itxn =
   fun e ->
    let prefix = match e.read 0 with Some v -> v | None -> 7 in
    let v = match e.read 1 with Some v -> v | None -> -1 in
    prefix + v
  in
  let inst =
    Bstm.create_instance ~config:(sr_config ()) ~storage:(fun _ -> None)
      [| tx0; tx1; tx2 |]
  in
  let sched = (Bstm.sched inst) in
  let claim kind_name pred =
    match Scheduler.next_task sched with
    | Some t when pred t -> t
    | other ->
        Alcotest.failf "expected %s, got %a" kind_name
          Fmt.(option Scheduler.pp_task)
          other
  in
  let is_exec i = function
    | Scheduler.Execution v -> Version.txn_idx v = i
    | _ -> false
  in
  let is_val i = function
    | Scheduler.Validation (v, _) -> Version.txn_idx v = i
    | _ -> false
  in
  (* Run a task to completion, chaining any handed-back follow-up task
     (dropping one would leak the active-task count and hang check_done). *)
  let rec run t =
    match Bstm.finish_task inst (Bstm.start_task inst t) with
    | Some t', _ -> run t'
    | None, _ -> ()
  in
  (* tx0 and tx1 claimed; tx1 executes speculatively, then tx0 commits. *)
  let t0 = claim "exec tx0" (is_exec 0) in
  let t1 = claim "exec tx1" (is_exec 1) in
  run t1;
  run t0;
  (* Validations: tx0 passes; tx1 fails, leaving an ESTIMATE at loc1 and
     handing its re-execution task back — which we HOLD. *)
  run (claim "validate tx0" (is_val 0));
  let v1 = claim "validate tx1" (is_val 1) in
  let re_exec_tx1 =
    match Bstm.finish_task inst (Bstm.start_task inst v1) with
    | Some (Scheduler.Execution v as t), _ ->
        Alcotest.(check int) "re-exec incarnation" 1 (Version.incarnation v);
        t
    | _ -> Alcotest.fail "expected tx1 re-execution task"
  in
  (* tx2's first incarnation starts now and must suspend on the estimate. *)
  let t2 = claim "exec tx2" (is_exec 2) in
  let p2 = Bstm.start_task inst t2 in
  (match Bstm.pending_profile p2 with
  | `Dep reads -> Alcotest.(check int) "suspended after prefix reads" 2 reads
  | _ -> Alcotest.fail "expected tx2 to block on the estimate");
  (match Bstm.finish_task inst p2 with
  | None, Bstm.Exec_dependency { blocking; _ } ->
      Alcotest.(check int) "blocked on tx1" 1 blocking
  | _ -> Alcotest.fail "expected tx2 to park as a dependency");
  (* Release tx1; its completion resolves tx2's dependency. *)
  run re_exec_tx1;
  (* Drain. The resumed continuation must finish tx2 with correct values. *)
  Bstm.worker_loop inst;
  let r = Bstm.finalize inst in
  Alcotest.(check bool) "tx1 saw tx0's write" true
    (Txn.equal_output Int.equal r.outputs.(1) (Txn.Success 50));
  Alcotest.(check bool) "tx2 saw storage prefix + tx1's write" true
    (Txn.equal_output Int.equal r.outputs.(2) (Txn.Success 507));
  Alcotest.(check int) "exactly one resumption" 1 r.metrics.resumptions;
  Alcotest.(check int) "nothing discarded" 0 r.metrics.discarded_suspensions;
  Alcotest.(check (list (pair int int)))
    "snapshot"
    [ (1, 500); (5, 50) ]
    r.snapshot

(* Under virtual time, a dependency chain with many threads produces a
   cascade of estimates: suspend-resume must stay correct and actually
   resume. *)
let sim_with_suspend ~threads (g : Blockstm_workload.Synthetic.generated) =
  let module H = Blockstm_workload.Harness in
  let config =
    H.Bstm.optimistic_config (fun o -> { o with suspend_resume = true })
  in
  H.sim_blockstm ~config ~num_threads:threads ~storage:g.storage g.txns

let test_sim_chain_resumes () =
  let g = Blockstm_workload.Synthetic.chain ~block_size:60 in
  let result, _ = sim_with_suspend ~threads:8 g in
  let seq =
    Blockstm_workload.Harness.run_sequential ~storage:g.storage g.txns
  in
  Alcotest.(check bool) "snapshot equal" true
    (Blockstm_workload.Harness.equal_snapshot seq.snapshot result.snapshot);
  Alcotest.(check bool) "outputs equal" true
    (Blockstm_workload.Harness.equal_outputs seq.outputs result.outputs);
  Alcotest.(check bool)
    (Fmt.str "resumptions > 0 (got %d)" result.metrics.resumptions)
    true
    (result.metrics.resumptions > 0)

let test_sim_hotspot_suspend_correct () =
  let g = Blockstm_workload.Synthetic.hotspot ~block_size:80 in
  let result, _ = sim_with_suspend ~threads:16 g in
  let seq =
    Blockstm_workload.Harness.run_sequential ~storage:g.storage g.txns
  in
  Alcotest.(check bool) "snapshot equal" true
    (Blockstm_workload.Harness.equal_snapshot seq.snapshot result.snapshot);
  Alcotest.(check bool) "outputs equal" true
    (Blockstm_workload.Harness.equal_outputs seq.outputs result.outputs)

(* Churn moves write locations across incarnations, so some suspensions must
   be discarded (prefix invalidated) — both paths must stay correct. *)
let test_sim_churn_discards () =
  let g =
    Blockstm_workload.Synthetic.churn ~block_size:100 ~num_accounts:6 ~seed:3
  in
  let result, _ = sim_with_suspend ~threads:16 g in
  let seq =
    Blockstm_workload.Harness.run_sequential ~storage:g.storage g.txns
  in
  Alcotest.(check bool) "snapshot equal" true
    (Blockstm_workload.Harness.equal_snapshot seq.snapshot result.snapshot)

(* Real domains: suspended continuations may be resumed on a different
   domain than the one that captured them. *)
let test_real_domains_suspend () =
  let rng = Blockstm_workload.Rng.create 63 in
  let txns =
    Array.init 150 (fun _ ->
        let a = Blockstm_workload.Rng.int rng 3 in
        incr_txn a)
  in
  for _ = 1 to 5 do
    ignore
      (assert_equiv ~msg:"suspend_resume, 4 domains"
         ~config:(sr_config ~num_domains:4 ())
         ~storage:zero_storage txns)
  done

(* p2p under suspend-resume across thread counts (virtual time). *)
let test_p2p_suspend_all_threads () =
  let w =
    Blockstm_workload.P2p.generate
      { Blockstm_workload.P2p.default_spec with
        num_accounts = 20; block_size = 200 }
  in
  let module H = Blockstm_workload.Harness in
  let seq = H.run_sequential ~storage:w.storage w.txns in
  List.iter
    (fun threads ->
      let config =
        H.Bstm.optimistic_config (fun o -> { o with suspend_resume = true })
      in
      let result, _ =
        H.sim_blockstm ~config ~num_threads:threads ~storage:w.storage w.txns
      in
      Alcotest.(check bool)
        (Fmt.str "equal at %d threads" threads)
        true
        (H.equal_snapshot seq.snapshot result.snapshot
        && H.equal_outputs seq.outputs result.outputs))
    [ 1; 4; 16; 32 ]

let suite =
  [
    Alcotest.test_case "scripted suspension and resumption" `Quick
      test_scripted_suspension_and_resume;
    Alcotest.test_case "chain cascade resumes (virtual time)" `Quick
      test_sim_chain_resumes;
    Alcotest.test_case "hotspot correct under suspend-resume" `Quick
      test_sim_hotspot_suspend_correct;
    Alcotest.test_case "churn discards stale suspensions" `Quick
      test_sim_churn_discards;
    Alcotest.test_case "cross-domain resumption (real domains)" `Quick
      test_real_domains_suspend;
    Alcotest.test_case "p2p correct across thread counts" `Quick
      test_p2p_suspend_all_threads;
  ]
