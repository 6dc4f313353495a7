(** Tests for the Block-STM engine: VM wrapper semantics (Algorithm 4),
    end-to-end equivalence with sequential execution, ablation configs,
    metrics, and engine invariants. Uses the compact int domain from
    {!Tutil}. *)

open Blockstm_kernel
open Tutil

let run ?config ~storage txns = Bstm.run ?config ~storage txns

let config ?(num_domains = 1) ?(marking = Bstm.default_config.marking)
    ?(prevalidate_reads = true) ?(rolling_commit = false) () =
  {
    Bstm.default_config with
    num_domains;
    marking;
    prevalidate_reads;
    rolling_commit;
  }

(* --- Basics -------------------------------------------------------------- *)

let test_empty_block () =
  let r = run ~storage:zero_storage [||] in
  Alcotest.(check int) "no outputs" 0 (Array.length r.outputs);
  Alcotest.(check int) "empty snapshot" 0 (List.length r.snapshot)

let test_single_txn () =
  let r = run ~storage:(range_storage 4) [| incr_txn 2 |] in
  Alcotest.(check (list (pair int int))) "snapshot" [ (2, 103) ] r.snapshot;
  (match r.outputs.(0) with
  | Txn.Success v -> Alcotest.(check int) "output" 103 v
  | Txn.Failed m -> Alcotest.failf "unexpected failure: %s" m);
  Alcotest.(check int) "one incarnation" 1 r.metrics.incarnations;
  Alcotest.(check int) "one validation" 1 r.metrics.validations;
  Alcotest.(check int) "no aborts" 0 r.metrics.validation_aborts

let test_read_from_storage_only () =
  let txn : itxn =
   fun e ->
    match e.read 42 with
    | Some v -> v
    | None -> -1
  in
  let r = run ~storage:(fun l -> if l = 42 then Some 7 else None) [| txn |] in
  (match r.outputs.(0) with
  | Txn.Success v -> Alcotest.(check int) "reads storage" 7 v
  | Txn.Failed m -> Alcotest.failf "unexpected failure: %s" m);
  Alcotest.(check int) "nothing written" 0 (List.length r.snapshot)

let test_read_missing_location () =
  let txn : itxn =
   fun e -> (match e.read 999 with Some _ -> 1 | None -> 0)
  in
  let r = run ~storage:(range_storage 4) [| txn |] in
  match r.outputs.(0) with
  | Txn.Success v -> Alcotest.(check int) "missing reads None" 0 v
  | Txn.Failed m -> Alcotest.failf "unexpected failure: %s" m

(* --- VM wrapper semantics ------------------------------------------------- *)

let test_read_your_own_writes () =
  let txn : itxn =
   fun e ->
    e.write 5 77;
    match e.read 5 with Some v -> v | None -> -1
  in
  let r = run ~storage:zero_storage [| txn |] in
  match r.outputs.(0) with
  | Txn.Success v -> Alcotest.(check int) "own write visible" 77 v
  | Txn.Failed m -> Alcotest.failf "unexpected failure: %s" m

let test_last_write_wins_per_location () =
  let txn : itxn =
   fun e ->
    e.write 5 1;
    e.write 5 2;
    e.write 5 3;
    0
  in
  let r = run ~storage:zero_storage [| txn |] in
  Alcotest.(check (list (pair int int))) "latest value" [ (5, 3) ] r.snapshot

let test_failed_txn_commits_no_writes () =
  let bad : itxn =
   fun e ->
    e.write 1 111;
    failwith "boom"
  in
  let good : itxn = incr_txn 2 in
  let r = run ~storage:zero_storage [| bad; good |] in
  (match r.outputs.(0) with
  | Txn.Failed m ->
      Alcotest.(check bool) "message mentions boom" true
        (String.length m > 0)
  | Txn.Success _ -> Alcotest.fail "expected failure");
  (match r.outputs.(1) with
  | Txn.Success v -> Alcotest.(check int) "good txn ran" 1 v
  | Txn.Failed m -> Alcotest.failf "unexpected failure: %s" m);
  Alcotest.(check (list (pair int int)))
    "failed writes discarded" [ (2, 1) ] r.snapshot

let test_failed_txn_sees_prior_writes () =
  (* A transaction that fails iff it reads the value the previous
     transaction wrote: its failure must be based on committed state. *)
  let writer : itxn = fun e -> e.write 0 5; 0 in
  let conditional : itxn =
   fun e ->
    match e.read 0 with
    | Some 5 -> failwith "saw five"
    | Some v -> v
    | None -> -1
  in
  let r = run ~storage:zero_storage [| writer; conditional |] in
  match r.outputs.(1) with
  | Txn.Failed _ -> ()
  | Txn.Success v -> Alcotest.failf "expected failure, got %d" v

(* --- Equivalence with sequential execution -------------------------------- *)

let test_chain_of_dependencies () =
  (* tx_i reads loc i, writes loc i+1: strictly sequential data flow. *)
  let n = 50 in
  let txns =
    Array.init n (fun i -> rmw ~src:i ~dst:(i + 1) (fun v -> v + 1))
  in
  List.iter
    (fun d ->
      ignore
        (assert_equiv
           ~msg:(Printf.sprintf "chain with %d domains" d)
           ~config:(config ~num_domains:d ())
           ~storage:zero_storage txns))
    [ 1; 2; 4 ]

let test_hotspot_counter () =
  let n = 60 in
  let txns = Array.init n (fun _ -> incr_txn 0) in
  let r =
    assert_equiv ~msg:"hotspot" ~config:(config ~num_domains:4 ())
      ~storage:zero_storage txns
  in
  (* Final value must be exactly n. *)
  Alcotest.(check (list (pair int int))) "counter" [ (0, n) ] r.snapshot

let test_transfers_many_domains () =
  let rng = Blockstm_workload.Rng.create 99 in
  let txns =
    Array.init 200 (fun _ ->
        let a, b = Blockstm_workload.Rng.distinct_pair rng 10 in
        transfer ~from_:a ~to_:b ~amount:(1 + Blockstm_workload.Rng.int rng 9))
  in
  List.iter
    (fun d ->
      ignore
        (assert_equiv
           ~msg:(Printf.sprintf "transfers %d domains" d)
           ~config:(config ~num_domains:d ())
           ~storage:(range_storage ~base:1000 10) txns))
    [ 1; 2; 3; 4; 8 ]

let test_write_set_churn () =
  (* Incarnations write different locations depending on what they read:
     exercises wrote_new_location and estimate cleanup under real domains. *)
  let txns =
    Array.init 100 (fun i : itxn ->
        fun e ->
          let v = match e.read 0 with Some v -> v | None -> 0 in
          e.write ((v mod 7) + 1) i;
          e.write 0 (v + 1);
          v)
  in
  ignore
    (assert_equiv ~msg:"churn" ~config:(config ~num_domains:4 ())
       ~storage:zero_storage txns)

(* --- Determinism --------------------------------------------------------- *)

let test_deterministic_across_domain_counts () =
  let rng = Blockstm_workload.Rng.create 5 in
  let txns =
    Array.init 150 (fun _ ->
        let a = Blockstm_workload.Rng.int rng 5 in
        let b = Blockstm_workload.Rng.int rng 5 in
        rmw ~src:a ~dst:b (fun v -> (v * 31) + 7))
  in
  let reference = run ~config:(config ()) ~storage:zero_storage txns in
  List.iter
    (fun d ->
      let r = run ~config:(config ~num_domains:d ()) ~storage:zero_storage
          txns in
      Alcotest.(check bool)
        (Printf.sprintf "snapshot equal at %d domains" d)
        true
        (r.snapshot = reference.snapshot);
      Array.iteri
        (fun i o ->
          Alcotest.(check bool) "output equal" true
            (Txn.equal_output Int.equal o reference.outputs.(i)))
        r.outputs)
    [ 2; 3; 4 ]

(* --- Ablation configs ----------------------------------------------------- *)

let contended_txns n =
  let rng = Blockstm_workload.Rng.create 17 in
  Array.init n (fun _ ->
      let a = Blockstm_workload.Rng.int rng 3 in
      incr_txn a)

let test_no_estimates_still_correct () =
  ignore
    (assert_equiv ~msg:"remove on abort"
       ~config:(config ~num_domains:4 ~marking:Remove_on_abort ())
       ~storage:zero_storage (contended_txns 120))

let test_no_prevalidation_still_correct () =
  ignore
    (assert_equiv ~msg:"prevalidate_reads=false"
       ~config:(config ~num_domains:4 ~prevalidate_reads:false ())
       ~storage:zero_storage (contended_txns 120))

let test_invalid_num_domains () =
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Block_stm: num_domains must be >= 1") (fun () ->
      ignore
        (run ~config:(config ~num_domains:0 ()) ~storage:zero_storage [||]))

(* --- Rolling commit ------------------------------------------------------- *)

let test_rolling_equals_sequential () =
  let txns = contended_txns 120 in
  List.iter
    (fun nd ->
      ignore
        (assert_equiv
           ~msg:(Printf.sprintf "rolling, %d domains" nd)
           ~config:(config ~num_domains:nd ~rolling_commit:true ())
           ~storage:zero_storage txns))
    [ 1; 2; 4 ]

let test_on_commit_streams_in_preset_order () =
  let n = 80 in
  let txns = Array.init n (fun i -> incr_txn (i mod 3)) in
  let order = ref [] in
  let streamed = Array.make n None in
  let r =
    Bstm.run
      ~config:(config ~num_domains:4 ~rolling_commit:true ())
      ~on_commit:(fun j o ->
        order := j :: !order;
        streamed.(j) <- Some o)
      ~storage:zero_storage txns
  in
  Alcotest.(check (list int))
    "hooks fire once per txn, in preset order"
    (List.init n Fun.id) (List.rev !order);
  (* The streamed outputs are the final outputs. *)
  Array.iteri
    (fun j o ->
      match streamed.(j) with
      | Some o' when Txn.equal_output Int.equal o o' -> ()
      | _ -> Alcotest.failf "streamed output %d differs" j)
    r.outputs;
  Alcotest.(check int) "metrics.commits" n r.metrics.commits;
  Alcotest.(check int) "commit_ns populated" n (Array.length r.commit_ns);
  Array.iteri
    (fun j ns ->
      Alcotest.(check bool) (Printf.sprintf "tx%d stamped" j) true (ns >= 0))
    r.commit_ns

(* Lazy mode commits the block at once: [finalize] fires [on_commit] once
   per transaction in preset order. *)
let test_lazy_on_commit_fires_at_finalize () =
  let n = 60 in
  let txns = contended_txns n in
  List.iter
    (fun nd ->
      let order = ref [] in
      let r =
        Bstm.run ~config:(config ~num_domains:nd ())
          ~on_commit:(fun j o -> order := (j, o) :: !order)
          ~storage:zero_storage txns
      in
      let order = List.rev !order in
      Alcotest.(check (list int))
        (Printf.sprintf "%d domains: once per txn, in preset order" nd)
        (List.init n Fun.id) (List.map fst order);
      List.iter
        (fun (j, o) ->
          if not (Txn.equal_output Int.equal o r.outputs.(j)) then
            Alcotest.failf "%d domains: streamed output %d differs" nd j)
        order)
    [ 1; 2; 4 ]

let test_rolling_empty_block () =
  let r =
    Bstm.run
      ~config:(config ~rolling_commit:true ())
      ~on_commit:(fun _ _ -> Alcotest.fail "hook on empty block")
      ~storage:zero_storage [||]
  in
  Alcotest.(check int) "no outputs" 0 (Array.length r.outputs);
  Alcotest.(check int) "no stamps" 0 (Array.length r.commit_ns)

(* The rolling sweep commits during execution, not in [finalize]'s drain.
   On one domain, the committed prefix covers the block when [worker_loop]
   returns, before [finalize] runs, and transaction 0 commits before
   transaction n-1 first executes. [metrics.commits] and the [on_commit]
   order tests also count the drain, so they cannot tell a loop that stopped
   sweeping. *)
let test_rolling_commits_during_execution () =
  let module H = Blockstm_workload.Harness in
  let module P2p = Blockstm_workload.P2p in
  let n = 1_000 in
  let config =
    { H.Bstm.default_config with rolling_commit = true }
  in
  List.iter
    (fun accounts ->
      let w =
        P2p.generate
          { P2p.default_spec with num_accounts = accounts; block_size = n }
      in
      let last_started = ref false in
      let first_commit_early = ref false in
      let txns = Array.copy w.txns in
      let last = txns.(n - 1) in
      txns.(n - 1) <-
        (fun e ->
          last_started := true;
          last e);
      let on_commit j _ =
        if j = 0 then first_commit_early := not !last_started
      in
      let inst =
        H.Bstm.create_instance ~config ~on_commit
          ~storage:(Blockstm_workload.Ledger.Store.reader w.storage)
          txns
      in
      H.Bstm.worker_loop inst;
      Alcotest.(check int)
        (Printf.sprintf "%d accounts: prefix when the loop returns" accounts)
        n
        (H.Bstm.committed_prefix inst);
      Alcotest.(check bool)
        (Printf.sprintf "%d accounts: tx0 commits before tx%d executes"
           accounts (n - 1))
        true !first_commit_early;
      ignore (H.Bstm.finalize inst))
    [ 2; 10; 100; 10_000 ]

(* --- A dependency the transaction's code catches -------------------------- *)

(* Scripted scenario: tx0 writes loc5; tx1 reads loc5 and writes loc1; tx2
   reads loc0 and then touches loc1 inside a handler that catches every
   exception. tx1 executes speculatively before tx0 and fails validation,
   leaving an ESTIMATE at loc1; its re-execution is held while tx2's first
   incarnation runs, so tx2's access to loc1 hits the ESTIMATE. The engine
   unwinds that access by raising, and tx2's handler swallows it. The
   incarnation must still end blocked on tx1: committing it would commit a
   result computed without the loc1 access, which its read set does not
   record, so validation could not catch it. *)
let drive_caught_dependency ~config (tx2 : itxn) =
  let tx0 : itxn = fun e -> e.write 5 50; 0 in
  let tx1 : itxn =
   fun e ->
    let v = match e.read 5 with Some v -> v | None -> -1 in
    e.write 1 (v * 10);
    v
  in
  let txns = [| tx0; tx1; tx2 |] in
  let storage _ = None in
  let inst = Bstm.create_instance ~config ~storage txns in
  let sched = Bstm.sched inst in
  let claim name pred =
    match Scheduler.next_task sched with
    | Some t when pred t -> t
    | other ->
        Alcotest.failf "expected %s, got %a" name
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
  (* Run a task, chaining handed-back follow-ups (dropping one would leak
     the active-task count). *)
  let rec run t =
    match Bstm.finish_task inst (Bstm.start_task inst t) with
    | Some t', _ -> run t'
    | None, _ -> ()
  in
  let t0 = claim "exec tx0" (is_exec 0) in
  run (claim "exec tx1" (is_exec 1));
  run t0;
  run (claim "validate tx0" (is_val 0));
  let v1 = claim "validate tx1" (is_val 1) in
  let re_exec_tx1 =
    match Bstm.finish_task inst (Bstm.start_task inst v1) with
    | Some (Scheduler.Execution _ as t), _ -> t
    | _ -> Alcotest.fail "expected tx1's validation to abort it"
  in
  let p2 = Bstm.start_task inst (claim "exec tx2" (is_exec 2)) in
  (match Bstm.finish_task inst p2 with
  | None, Bstm.Exec_dependency { blocking; _ } ->
      Alcotest.(check int) "blocked on tx1" 1 blocking
  | _ -> Alcotest.fail "tx2 finished over a caught dependency");
  run re_exec_tx1;
  Bstm.worker_loop inst;
  let r = Bstm.finalize inst in
  let seq = Seq.run ~storage txns in
  Alcotest.(check (list (pair int int))) "snapshot = sequential" seq.snapshot
    r.snapshot;
  Alcotest.(check bool) "outputs = sequential" true
    (Array.for_all2 (Txn.equal_output Int.equal) seq.outputs r.outputs)

let test_caught_dependency () =
  drive_caught_dependency ~config:(config ()) (fun e ->
      ignore (e.read 0);
      try match e.read 1 with Some v -> v | None -> -1 with _ -> 999);
  drive_caught_dependency
    ~config:{ Bstm.default_config with delta_ops = true }
    (fun e ->
      ignore (e.read 0);
      match try e.delta 1 (Delta.add 7) with _ -> Txn.Applied with
      | Txn.Applied -> 0
      | Txn.Bounds_violation | Txn.Not_a_counter -> 1)

(* --- Prevalidation skip (§4 optimization) ---------------------------------- *)

(* Scripted scenario isolating the prevalidation-skip path: tx0 bumps loc9,
   tx1 copies loc9 into loc0, tx2 copies loc0 into loc1. tx1 and tx2 execute
   speculatively against pre-block state while tx0's task is held; when tx0
   finally executes and publishes loc9, validation aborts tx1 (leaving an
   ESTIMATE at loc0) and then tx2. tx1's re-execution is held, so when tx2's
   incarnation 1 starts, its prevalidation re-read of the previous read-set
   finds the ESTIMATE at loc0 while it is still in place. With
   [prevalidate_reads] the engine must skip the execution entirely (zero
   reads performed) and park on tx1; without it, tx2 re-executes and only
   blocks once its read actually hits the ESTIMATE. *)
let drive_preval_scenario ~prevalidate =
  let txns =
    [|
      incr_txn 9;
      rmw ~src:9 ~dst:0 (fun v -> v + 100);
      rmw ~src:0 ~dst:1 (fun v -> v + 1000);
    |]
  in
  let inst =
    Bstm.create_instance
      ~config:(config ~prevalidate_reads:prevalidate ())
      ~storage:zero_storage txns
  in
  let sched = Bstm.sched inst in
  let held = ref None in
  (* Run a task, chaining handed-back follow-ups (dropping one would leak
     the active-task count), but intercept the two re-executions the
     scenario pivots on: hold tx1's, stop at tx2's. *)
  let rec step t =
    match t with
    | Scheduler.Execution v
      when Version.txn_idx v = 1 && Version.incarnation v = 1 ->
        held := Some t;
        None
    | Scheduler.Execution v
      when Version.txn_idx v = 2 && Version.incarnation v = 1 ->
        Some t
    | t -> (
        match Bstm.finish_task inst (Bstm.start_task inst t) with
        | Some t', _ -> step t'
        | None, _ -> None)
  in
  let run t = match step t with None -> () | Some _ -> Alcotest.fail "early" in
  let is_exec i = function
    | Scheduler.Execution v -> Version.txn_idx v = i
    | _ -> false
  in
  let claim name pred =
    match Scheduler.next_task sched with
    | Some t when pred t -> t
    | other ->
        Alcotest.failf "expected %s, got %a" name
          Fmt.(option Scheduler.pp_task)
          other
  in
  (* tx1 and tx2 execute speculatively before tx0 (interleaved validation
     tasks of the not-yet-invalidated prefix pass harmlessly). *)
  let t0 = claim "exec tx0" (is_exec 0) in
  let rec warm fuel =
    if fuel = 0 then Alcotest.fail "tx2 never executed speculatively";
    match Scheduler.next_task sched with
    | None -> Alcotest.fail "scheduler ran dry before tx2 executed"
    | Some t when is_exec 2 t -> run t
    | Some t ->
        run t;
        warm (fuel - 1)
  in
  warm 10;
  run t0;
  (* Drain claims until tx2's re-execution surfaces (validation of tx1 and
     tx2 abort along the way; tx1's re-execution gets held by [step]). *)
  let rec loop fuel =
    if fuel = 0 then Alcotest.fail "scenario never reached tx2 re-execution";
    match Scheduler.next_task sched with
    | None -> Alcotest.fail "scheduler ran dry before tx2 re-execution"
    | Some t -> ( match step t with Some t2 -> t2 | None -> loop (fuel - 1))
  in
  let t2 = loop 20 in
  let held =
    match !held with
    | Some t -> t
    | None -> Alcotest.fail "tx1 re-execution never appeared"
  in
  (* tx2's re-execution runs while tx1's ESTIMATE is still published. *)
  let p2 = Bstm.start_task inst t2 in
  let profile = Bstm.pending_profile p2 in
  (* Plain runner (no interception) for releasing the held task. *)
  let rec run_plain t =
    match Bstm.finish_task inst (Bstm.start_task inst t) with
    | Some t', _ -> run_plain t'
    | None, _ -> ()
  in
  (match Bstm.finish_task inst p2 with
  | None, _ -> () (* parked on the tx1 dependency *)
  | Some t, _ -> run_plain t);
  run_plain held;
  Bstm.worker_loop inst;
  let r = Bstm.finalize inst in
  Alcotest.(check (list (pair int int)))
    "sequential snapshot"
    [ (0, 101); (1, 1101); (9, 1) ]
    r.snapshot;
  (profile, r.metrics)

let test_prevalidation_skip () =
  let profile, m = drive_preval_scenario ~prevalidate:true in
  (match profile with
  | `Dep reads -> Alcotest.(check int) "skipped before any read" 0 reads
  | _ -> Alcotest.fail "expected tx2 to park without executing");
  Alcotest.(check int) "one prevalidation skip" 1 m.Bstm.prevalidation_skips

let test_prevalidation_skip_disabled () =
  let profile, m = drive_preval_scenario ~prevalidate:false in
  (match profile with
  | `Dep reads ->
      Alcotest.(check bool) "re-executed into the blocking read" true
        (reads >= 1)
  | _ -> Alcotest.fail "expected tx2 to block mid-execution");
  Alcotest.(check int) "no prevalidation skips" 0 m.Bstm.prevalidation_skips

(* --- Metrics and invariants ----------------------------------------------- *)

let test_metrics_lower_bounds () =
  let n = 50 in
  let txns = Array.init n (fun i -> incr_txn (i mod 5)) in
  let r = run ~config:(config ~num_domains:4 ()) ~storage:zero_storage txns in
  Alcotest.(check bool) "incarnations >= n" true (r.metrics.incarnations >= n);
  Alcotest.(check bool) "validations >= n" true (r.metrics.validations >= n);
  Alcotest.(check bool) "aborts < incarnations" true
    (r.metrics.validation_aborts < r.metrics.incarnations)

let test_engine_quiescent_after_run () =
  let txns = contended_txns 100 in
  let inst =
    Bstm.create_instance
      ~config:(config ~num_domains:3 ())
      ~storage:zero_storage txns
  in
  let workers =
    Array.init 2 (fun _ -> Domain.spawn (fun () -> Bstm.worker_loop inst))
  in
  Bstm.worker_loop inst;
  Array.iter Domain.join workers;
  Alcotest.(check int) "no active tasks" 0
    (Scheduler.num_active_tasks (Bstm.sched inst));
  Alcotest.(check bool) "done" true (Scheduler.done_ (Bstm.sched inst));
  (* Every transaction must be EXECUTED at completion (Lemma 2). *)
  Array.iteri
    (fun i _ ->
      let _, kind = Scheduler.status (Bstm.sched inst) i in
      Alcotest.(check bool)
        (Printf.sprintf "tx%d executed" i)
        true
        (kind = Scheduler.Executed))
    txns;
  (* And MVMemory contains no estimates: snapshot must not raise. *)
  ignore (Bstm.finalize inst)

let test_snapshot_matches_profile_writes () =
  (* The snapshot's location set equals the union of committed write-sets
     observed by a sequential profiling pass. *)
  let txns = contended_txns 60 in
  let profiles = ProfI.run ~storage:zero_storage txns in
  let r = run ~config:(config ~num_domains:2 ()) ~storage:zero_storage txns in
  let total_writes =
    Array.fold_left (fun acc (p : ProfI.txn_profile) -> acc + p.writes) 0
      profiles
  in
  Alcotest.(check bool) "snapshot smaller than total writes" true
    (List.length r.snapshot <= total_writes);
  Alcotest.(check bool) "snapshot non-empty" true (r.snapshot <> [])

(* OCaml 5.1 empties the minor heap before it builds an array of more than
   256 words from a young initial element. Building per-block state must not
   pay that once per array: the collections [f] causes stay within what its
   minor allocation volume explains, plus one (a major cycle starting).
   [Gc.minor_words] counts this domain's allocation exactly; the one in
   [Gc.quick_stat] is only sampled at collections. *)
let check_minor_collections msg f =
  Gc.minor ();
  let c0 = (Gc.quick_stat ()).minor_collections and w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let words = Gc.minor_words () -. w0 in
  let collections = (Gc.quick_stat ()).minor_collections - c0 in
  let bound =
    1 + int_of_float (words /. float_of_int (Gc.get ()).minor_heap_size)
  in
  if collections > bound then
    Alcotest.failf "%s: %d minor collections for %.0f minor words (bound %d)"
      msg collections words bound

let test_create_forces_no_minor_collections () =
  let txns = Array.init 1000 (fun i -> incr_txn i) in
  check_minor_collections "create_instance, 1000 transactions" (fun () ->
      Bstm.create_instance ~storage:zero_storage txns);
  check_minor_collections "Mvmemory.create, 10^4 transactions" (fun () ->
      Mv.create ~block_size:10_000 ())

(* Allocation gate: minor words per transaction of the default config on
   one domain, over p2p-low's access pattern (1,000 standard-p2p
   transactions, 10^4 accounts). On one domain the count is deterministic;
   the warm-up run sizes the domain's own-writes tables and read-log
   buffers. The bound is the measured 402.6 words (OCaml 5.1.1 without
   flambda) plus 1%: a change that cuts allocation lowers it. It was 557
   (551.2 measured) while [finalize] sorted the snapshot as a list and
   copied the outputs, 558 (552.2) while every block built a metrics
   registry, and 620 (614.2) while a Ledger location was a 2–3-word
   block. *)
let minor_words_per_txn_bound = 407.

let test_minor_words_per_txn () =
  let module H = Blockstm_workload.Harness in
  let module P2p = Blockstm_workload.P2p in
  let w =
    P2p.generate
      { P2p.default_spec with num_accounts = 10_000; block_size = 1_000 }
  in
  let run () =
    ignore (Sys.opaque_identity (H.run_blockstm ~storage:w.storage w.txns))
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let per_txn = (Gc.minor_words () -. w0) /. 1_000. in
  if per_txn > minor_words_per_txn_bound then
    Alcotest.failf "%.1f minor words per transaction (bound %.0f)" per_txn
      minor_words_per_txn_bound

(* [finalize] allocates only its result: the snapshot list (a tuple and a
   cons cell per binding, 6 words) and a few records. The snapshot's keys
   and values go through the domain's reused scratch, and the outputs array
   is handed over, not copied, so nothing is allocated in the major heap
   and, the minor heap being empty at the start, nothing is promoted: no
   collection runs inside [finalize] while the block's bookkeeping is
   live. Measured on one domain, where [Gc.minor_words] and [Gc.counters]
   are exact; the warm-up block sizes this domain's scratch. It read 6.15
   words per binding over 3,620 bindings (OCaml 5.1.1 without flambda);
   the list it replaced, built by a fold and [List.sort], read 46.5,
   promoted 25,461 words, and took 26,462 in the major heap with the
   1,001-word outputs copy. *)
let test_finalize_allocation () =
  let module H = Blockstm_workload.Harness in
  let module P2p = Blockstm_workload.P2p in
  let w =
    P2p.generate
      { P2p.default_spec with num_accounts = 10_000; block_size = 1_000 }
  in
  ignore (Sys.opaque_identity (H.run_blockstm ~storage:w.storage w.txns));
  let inst =
    H.Bstm.create_instance
      ~storage:(Blockstm_workload.Ledger.Store.reader w.storage)
      w.txns
  in
  H.Bstm.worker_loop inst;
  Gc.minor ();
  let _, p0, m0 = Gc.counters () in
  let w0 = Gc.minor_words () in
  let r = H.Bstm.finalize inst in
  let words = Gc.minor_words () -. w0 in
  let _, p1, m1 = Gc.counters () in
  let bindings = List.length r.snapshot in
  Alcotest.(check int) "all outputs" 1_000 (Array.length r.outputs);
  let bound = (6.5 *. float_of_int bindings) +. 1_000. in
  if words > bound then
    Alcotest.failf "%.0f minor words for %d bindings (bound %.0f)" words
      bindings bound;
  Alcotest.(check (float 0.)) "promoted words" 0. (p1 -. p0);
  Alcotest.(check (float 0.)) "major words" 0. (m1 -. m0)

(* A value with a heap representation, so a test can watch it die. *)
module BoxVal = struct
  type t = Box of int

  let equal (Box a) (Box b) = Int.equal a b
  let hash (Box a) = a * 0x9E3779B1
  let pp ppf (Box a) = Fmt.int ppf a
  let as_counter (Box a) = Some a
  let of_counter a = Box a
end

module BstmB = Blockstm_core.Block_stm.Make (IntLoc) (BoxVal)

(* Nothing a block leaves behind keeps its values alive once its result is
   dropped: not the domain's snapshot scratch, which [finalize] clears, and
   not the worker's write buffers, which its loop clears on exit. The last
   transaction, the last one a domain runs, writes a fresh block [h] that
   ends in the snapshot; the others write elsewhere. *)
let test_scratch_keeps_nothing_alive () =
  List.iter
    (fun num_domains ->
      let collected = Atomic.make false in
      let run_block () =
        let h = BoxVal.Box (Sys.opaque_identity 7) in
        Gc.finalise (fun _ -> Atomic.set collected true) h;
        let txns : (int, BoxVal.t, int) Txn.t array =
          Array.init 64 (fun i e ->
              e.Txn.write i (if i = 63 then h else BoxVal.Box i);
              i)
        in
        let r =
          BstmB.run
            ~config:{ BstmB.default_config with num_domains }
            ~storage:(fun _ -> None)
            txns
        in
        Alcotest.(check bool) "h is in the snapshot" true
          (List.exists (fun (l, v) -> l = 63 && v == h) r.snapshot)
      in
      run_block ();
      Gc.full_major ();
      Gc.full_major ();
      Alcotest.(check bool)
        (Printf.sprintf "written value collected, %d domains" num_domains)
        true (Atomic.get collected))
    [ 1; 2 ]

(* [finalize] raises on a transaction whose slot still holds the
   placeholder: here transaction 2, whose execution task is never run. *)
let test_finalize_names_missing_output () =
  let inst =
    Bstm.create_instance ~storage:zero_storage
      [| incr_txn 0; incr_txn 1; incr_txn 2 |]
  in
  let rec drive steps task =
    if steps = 0 then Alcotest.fail "transaction 2 was never scheduled"
    else
      match task with
      | Some (Scheduler.Execution v) when Version.txn_idx v = 2 -> ()
      | _ -> drive (steps - 1) (fst (Bstm.step inst task))
  in
  drive 100 None;
  match Bstm.finalize inst with
  | _ -> Alcotest.fail "finalize returned with a transaction unexecuted"
  | exception Failure msg ->
      Alcotest.(check string) "message" "Block_stm: transaction 2 has no output"
        msg

(* Printed as exactly the text of the output slots' placeholder, so the
   [Failed] output of a transaction raising it equals the placeholder. *)
exception Placeholder_text

let () =
  Printexc.register_printer (function
    | Placeholder_text -> Some "Block_stm: no output"
    | _ -> None)

(* An output equal to the placeholder, but not it, is an output: such a
   transaction commits its [Failed] output as the sequential run does. *)
let test_output_equal_to_placeholder () =
  let txns : itxn array =
    [|
      incr_txn 0;
      (fun _ -> failwith "Block_stm: no output");
      (fun _ -> raise Placeholder_text);
      incr_txn 1;
    |]
  in
  List.iter
    (fun num_domains ->
      let r =
        assert_equiv ~config:(config ~num_domains ()) ~storage:zero_storage
          txns
      in
      Alcotest.(check bool) "placeholder text committed" true
        (r.outputs.(2) = Txn.Failed "Block_stm: no output"))
    [ 1; 2 ]

(* A helper domain's exit runs a stop-the-world minor collection (OCaml
   5.1), which promotes everything still reachable. [run] keeps its helpers
   until the result has been read out of the instance, and a helper's
   closure does not hold the instance, so that collection copies the result
   and not the block's bookkeeping. One 2-domain block of 200 lean transfers
   (2 reads, 2 writes each) fits in the minor heaps, so the exit collection
   is its only promotion. It read 19.5–21.0 words per transaction (OCaml
   5.1.1 without flambda); the bound leaves 4 words of margin. With the
   helper leaving before [finalize] it read 105.7, and with a helper that
   left last but whose closure held the instance, 118.7. *)
let promoted_words_per_txn_bound = 25.

let test_helper_exit_promotes_result_only () =
  let module H = Blockstm_workload.Harness in
  let w =
    Blockstm_workload.Bigstate.transfers ~block_size:200 ~num_accounts:10_000
      ~seed:3 ()
  in
  let config = { H.Bstm.default_config with num_domains = 2 } in
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).promoted_words in
  let r = H.run_blockstm ~config ~storage:w.storage w.txns in
  let per_txn = ((Gc.quick_stat ()).promoted_words -. p0) /. 200. in
  Alcotest.(check int) "all outputs" 200 (Array.length r.outputs);
  if per_txn > promoted_words_per_txn_bound then
    Alcotest.failf "%.1f promoted words per transaction (bound %.0f)" per_txn
      promoted_words_per_txn_bound

(* Retention gate: the read log a transaction leaves recorded until the
   block ends. For n Storage reads it is one record of two n-element arrays,
   2(n+1)+3 words besides the locations (immediate here), and no block per
   read. *)
let test_read_log_retained_shape () =
  List.iter
    (fun n ->
      let txn : itxn =
       fun e ->
        for l = 0 to n - 1 do
          ignore (e.read l)
        done;
        0
      in
      let inst = Bstm.create_instance ~storage:zero_storage [| txn |] in
      Bstm.worker_loop inst;
      let reads = Bstm.recorded_read_set inst 0 in
      Alcotest.(check bool)
        (Printf.sprintf "%d storage reads" n)
        true
        (Array.for_all (( = ) Read_origin.Storage) reads.origins);
      Alcotest.(check int)
        (Printf.sprintf "words retained by %d reads" n)
        ((2 * (n + 1)) + 3)
        (Obj.reachable_words (Obj.repr reads)))
    [ 1; 5; 21; 100 ]

(* A finished incarnation's read-log buffers become its recorded read set
   when they are full, so the next incarnation on the worker must log into
   fresh ones. Consecutive transactions with equal read counts fill their
   buffers exactly; each must still hold its own reads afterwards. The block
   runs on a fresh domain, so the worker starts from fresh buffers. *)
let test_read_logs_not_shared () =
  let counts = [| 8; 8; 8; 3; 3; 12; 12; 1; 8 |] in
  let first = Array.make (Array.length counts) 0 in
  for j = 1 to Array.length counts - 1 do
    first.(j) <- first.(j - 1) + counts.(j - 1)
  done;
  let txns =
    Array.mapi
      (fun j n : itxn ->
        fun e ->
         for l = first.(j) to first.(j) + n - 1 do
           ignore (e.read l)
         done;
         0)
      counts
  in
  let inst = Bstm.create_instance ~storage:zero_storage txns in
  Domain.join (Domain.spawn (fun () -> Bstm.worker_loop inst));
  Array.iteri
    (fun j n ->
      Alcotest.(check (array int))
        (Printf.sprintf "txn %d's read locations" j)
        (Array.init n (fun k -> first.(j) + k))
        (Bstm.recorded_read_set inst j).locs)
    counts

exception Hook_failed

(* A helper that cannot be spawned is an error of the block too, and the
   helpers already started are released and joined before [run] raises.
   Parked domains fill every domain slot of the runtime but one, so a
   3-domain block's first helper starts and its second spawn fails. The
   free slot is back once [run] has raised. *)
let check_failed_spawn () =
  let outcome =
    with_timeout ~secs:30. (fun () ->
        let lock = Mutex.create () and cond = Condition.create () in
        let leave = ref 0 in
        let park i () =
          Mutex.lock lock;
          while !leave <= i do
            Condition.wait cond lock
          done;
          Mutex.unlock lock
        in
        let set_leave n =
          Mutex.protect lock (fun () ->
              leave := n;
              Condition.broadcast cond)
        in
        let rec fill acc i =
          match Domain.spawn (park i) with
          | d -> fill (d :: acc) (i + 1)
          | exception Failure _ -> List.rev acc
        in
        let parked = fill [] 0 in
        set_leave 1;
        Domain.join (List.hd parked);
        let raised =
          match
            run ~config:(config ~num_domains:3 ()) ~storage:zero_storage
              (contended_txns 60)
          with
          | _ -> false
          | exception Failure _ -> true
        in
        let slot_free =
          match Domain.spawn ignore with
          | d ->
              Domain.join d;
              true
          | exception Failure _ -> false
        in
        set_leave max_int;
        List.iter Domain.join (List.tl parked);
        (List.length parked, raised, slot_free))
  in
  match outcome with
  | Error e -> raise e
  | Ok (parked, raised, slot_free) ->
      Alcotest.(check bool) "domain slots filled" true (parked > 0);
      Alcotest.(check bool) "failed spawn raised from run" true raised;
      Alcotest.(check bool) "started helper joined" true slot_free

(* An exception that escapes a worker is an error of the block, not a hang.
   A rolling [on_commit] hook runs in the commit sweep, outside the VM's
   exception capture, and may fire while its worker holds a claimed task
   that then never finishes. The hook raises only off the calling domain,
   or only on it: under rolling commit in its worker loop or in
   [finalize]'s drain, and under the lazy commit always in [finalize].
   Every trial must return the sequential result or raise the hook's
   exception. [run]'s helpers wait for it to read out the result before
   they leave, so every path out of [run] must release them: the caller
   raises in more trials than the runtime's 128 domains, so a helper left
   waiting makes a later [Domain.spawn] fail instead of hanging. *)
let test_helper_exception_raises () =
  let module H = Blockstm_workload.Harness in
  let module P2p = Blockstm_workload.P2p in
  let trials = 100 in
  let raised ~rolling_commit ~on_caller =
    let config =
      { H.Bstm.default_config with num_domains = 2; rolling_commit }
    in
    List.fold_left
      (fun raised accounts ->
        let w =
          P2p.generate
            { P2p.default_spec with num_accounts = accounts; block_size = 200 }
        in
        let seq = H.run_sequential ~storage:w.storage w.txns in
        let outcome =
          with_timeout ~secs:30. (fun () ->
              let caller = Domain.self () in
              let on_commit _ _ =
                if (Domain.self () = caller) = on_caller then raise Hook_failed
              in
              let raised = ref 0 in
              for trial = 1 to trials do
                match
                  H.run_blockstm ~config ~on_commit ~storage:w.storage w.txns
                with
                | r ->
                    if
                      not
                        (H.equal_snapshot seq.snapshot r.snapshot
                        && H.equal_outputs seq.outputs r.outputs)
                    then
                      Alcotest.failf
                        "accounts=%d trial %d: result differs from sequential"
                        accounts trial
                | exception Hook_failed -> incr raised
              done;
              !raised)
        in
        match outcome with Ok n -> raised + n | Error e -> raise e)
      0 [ 10; 1_000 ]
  in
  Alcotest.(check bool) "some trial raised the helper's exception" true
    (raised ~rolling_commit:true ~on_caller:false > 0);
  let n =
    raised ~rolling_commit:true ~on_caller:true
    + raised ~rolling_commit:false ~on_caller:true
  in
  if n <= 128 then
    Alcotest.failf "the caller's exception raised in %d of %d trials" n
      (4 * trials);
  check_failed_spawn ()

(* --- Zombie incarnations (txn.mli's termination contract) ----------------- *)

(* A zombie is an incarnation that runs on a view no sequential run
   produces. tx1 reads x before tx0 writes x and y, and y after tx0 has
   executed: its two reads disagree, and its MiniMove code loops while they
   do. Gas must end that incarnation, validation must discard it (its read
   of x is stale), and the block must commit the sequential result. *)
let zombie_source =
  {|
fun main() {
  let a = load(@1, X);
  let b = load(@1, Y);
  while (a != b) { a = a + 0; }
  return a;
}
|}

(* One 2-domain block of [tx0; tx1] through the instance API. Both waits
   are bounded, so a schedule that runs tx0 before tx1 starts still ends,
   without a zombie. Returns the zombie incarnations of tx1, how many of
   them gas ended, and the block's validation aborts. *)
let zombie_attempt () =
  let module R = Blockstm_minimove.Runtime in
  let module V = Blockstm_minimove.Mv_value in
  let x = R.loc ~addr:1 ~resource:"X" and y = R.loc ~addr:1 ~resource:"Y" in
  let storage () =
    let s = R.Store.create () in
    R.Store.set s x (V.Value.Int 0);
    R.Store.set s y (V.Value.Int 0);
    R.Store.reader s
  in
  let script = R.script_txn (R.load zombie_source) ~args:[] in
  let writer (e : _ Txn.effects) =
    e.write x (V.Value.Int 1);
    e.write y (V.Value.Int 1);
    V.Value.Unit
  in
  let await cond =
    let deadline = Unix.gettimeofday () +. 1. in
    while (not (cond ())) && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done
  in
  let inst = Atomic.make None in
  let x_read = Atomic.make false in
  let zombies = Atomic.make 0 and gas_ended = Atomic.make 0 in
  let tx0_executed () =
    match Atomic.get inst with
    | Some i -> snd (Scheduler.status (R.Bstm.sched i) 0) = Scheduler.Executed
    | None -> false
  in
  let tx0 e =
    await (fun () -> Atomic.get x_read);
    writer e
  in
  let tx1 (e : _ Txn.effects) =
    let seen_x = ref None and zombie = ref false in
    let read l =
      if V.Loc.equal l x then begin
        let v = e.read l in
        seen_x := v;
        Atomic.set x_read true;
        v
      end
      else if V.Loc.equal l y then begin
        await tx0_executed;
        let v = e.read l in
        if not (Option.equal V.Value.equal v !seen_x) then begin
          zombie := true;
          Atomic.incr zombies
        end;
        v
      end
      else e.read l
    in
    match script { e with read } with
    | v -> v
    | exception (Blockstm_minimove.Interp.Abort "out of gas" as ex) ->
        if !zombie then Atomic.incr gas_ended;
        raise ex
  in
  let i =
    R.Bstm.create_instance
      ~config:{ R.Bstm.default_config with num_domains = 2 }
      ~storage:(storage ()) [| tx0; tx1 |]
  in
  Atomic.set inst (Some i);
  let helper = Domain.spawn (fun () -> R.Bstm.worker_loop ~worker:1 i) in
  R.Bstm.worker_loop i;
  Domain.join helper;
  let r = R.Bstm.finalize i in
  let seq = R.Seq.run ~storage:(storage ()) [| writer; script |] in
  Alcotest.(check bool) "snapshot = sequential" true
    (List.equal
       (fun (l, v) (l', v') -> V.Loc.equal l l' && V.Value.equal v v')
       seq.snapshot r.snapshot);
  Alcotest.(check bool) "outputs = sequential" true
    (Array.for_all2 (Txn.equal_output V.Value.equal) seq.outputs r.outputs);
  (Atomic.get zombies, Atomic.get gas_ended, r.metrics.validation_aborts)

(* Repeat until some attempt produced a zombie; fail if none of 20 did. *)
let test_zombie_ended_by_gas () =
  let rec go n =
    if n = 0 then Alcotest.fail "no attempt produced a zombie incarnation"
    else
      let zombies, gas_ended, aborts = zombie_attempt () in
      if zombies = 0 then go (n - 1)
      else begin
        Alcotest.(check int) "gas ended every zombie" zombies gas_ended;
        Alcotest.(check bool) "validation discarded the zombie" true
          (aborts >= 1)
      end
  in
  match Tutil.with_timeout ~secs:60. (fun () -> go 20) with
  | Ok () -> ()
  | Error e -> raise e

(* The same view for closure code, which has no gas: tx1 loops while its
   reads of x and y disagree, under a fuel bound of its own, and raises when
   the fuel runs out. On 2 domains tx1 reads x before tx0 writes x and y, and
   y after tx0 has executed, as in [zombie_attempt]; on 1 domain tx0 runs
   first and no zombie arises. Either way the block must commit the
   sequential result. Returns the zombie incarnations of tx1, how many of
   them ran out of fuel, and the block's validation aborts. *)
let closure_zombie_attempt ~num_domains =
  let x = 0 and y = 1 in
  let fuel = 100_000 in
  let await cond =
    let deadline = Unix.gettimeofday () +. 1. in
    while (not (cond ())) && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done
  in
  let inst = Atomic.make None and x_read = Atomic.make false in
  let zombies = Atomic.make 0 and fuel_ended = Atomic.make 0 in
  let tx0_executed () =
    match Atomic.get inst with
    | Some i -> snd (Scheduler.status (Bstm.sched i) 0) = Scheduler.Executed
    | None -> false
  in
  let writer : itxn =
   fun e ->
    e.write x 1;
    e.write y 1;
    0
  in
  let looper ~coordinate : itxn =
   fun e ->
    let a = Option.value (e.read x) ~default:0 in
    if coordinate then begin
      Atomic.set x_read true;
      await tx0_executed
    end;
    let b = Option.value (e.read y) ~default:0 in
    if a <> b then Atomic.incr zombies;
    let left = ref fuel in
    while a <> b do
      decr left;
      if !left = 0 then begin
        Atomic.incr fuel_ended;
        failwith "out of fuel"
      end
    done;
    a
  in
  let coordinate = num_domains > 1 in
  let tx0 : itxn =
   fun e ->
    if coordinate then await (fun () -> Atomic.get x_read);
    writer e
  in
  let i =
    Bstm.create_instance ~config:(config ~num_domains ()) ~storage:zero_storage
      [| tx0; looper ~coordinate |]
  in
  Atomic.set inst (Some i);
  let helpers =
    List.init (num_domains - 1) (fun w ->
        Domain.spawn (fun () -> Bstm.worker_loop ~worker:(w + 1) i))
  in
  Bstm.worker_loop i;
  List.iter Domain.join helpers;
  let r = Bstm.finalize i in
  let seq =
    Seq.run ~storage:zero_storage [| writer; looper ~coordinate:false |]
  in
  Alcotest.(check (list (pair int int))) "snapshot = sequential" seq.snapshot
    r.snapshot;
  Alcotest.(check bool) "outputs = sequential" true
    (Array.for_all2 (Txn.equal_output Int.equal) seq.outputs r.outputs);
  (Atomic.get zombies, Atomic.get fuel_ended, r.metrics.validation_aborts)

(* On 2 domains, repeat until some attempt produced a zombie; fail if none
   of 20 did. *)
let test_closure_zombie_ended_by_fuel () =
  let zombies, _, _ = closure_zombie_attempt ~num_domains:1 in
  Alcotest.(check int) "no zombie on 1 domain" 0 zombies;
  let rec go n =
    if n = 0 then Alcotest.fail "no attempt produced a zombie incarnation"
    else
      let zombies, fuel_ended, aborts = closure_zombie_attempt ~num_domains:2 in
      if zombies = 0 then go (n - 1)
      else begin
        Alcotest.(check int) "fuel ended every zombie" zombies fuel_ended;
        Alcotest.(check bool) "validation discarded the zombie" true
          (aborts >= 1)
      end
  in
  match Tutil.with_timeout ~secs:60. (fun () -> go 20) with
  | Ok () -> ()
  | Error e -> raise e

let suite =
  [
    Alcotest.test_case "empty block" `Quick test_empty_block;
    Alcotest.test_case "single transaction" `Quick test_single_txn;
    Alcotest.test_case "reads fall through to storage" `Quick
      test_read_from_storage_only;
    Alcotest.test_case "missing location reads None" `Quick
      test_read_missing_location;
    Alcotest.test_case "read-your-own-writes" `Quick test_read_your_own_writes;
    Alcotest.test_case "last write per location wins" `Quick
      test_last_write_wins_per_location;
    Alcotest.test_case "failed txn commits no writes" `Quick
      test_failed_txn_commits_no_writes;
    Alcotest.test_case "failure decided on committed state" `Quick
      test_failed_txn_sees_prior_writes;
    Alcotest.test_case "dependency chain = sequential" `Quick
      test_chain_of_dependencies;
    Alcotest.test_case "hotspot counter = sequential" `Quick
      test_hotspot_counter;
    Alcotest.test_case "random transfers, 1-8 domains" `Quick
      test_transfers_many_domains;
    Alcotest.test_case "write-set churn" `Quick test_write_set_churn;
    Alcotest.test_case "deterministic across domain counts" `Quick
      test_deterministic_across_domain_counts;
    Alcotest.test_case "ablation: no estimates" `Quick
      test_no_estimates_still_correct;
    Alcotest.test_case "ablation: no prevalidation" `Quick
      test_no_prevalidation_still_correct;
    Alcotest.test_case "invalid num_domains rejected" `Quick
      test_invalid_num_domains;
    Alcotest.test_case "rolling commit = sequential" `Quick
      test_rolling_equals_sequential;
    Alcotest.test_case "on_commit streams in preset order" `Quick
      test_on_commit_streams_in_preset_order;
    Alcotest.test_case "lazy on_commit fires at finalize" `Quick
      test_lazy_on_commit_fires_at_finalize;
    Alcotest.test_case "rolling empty block" `Quick test_rolling_empty_block;
    Alcotest.test_case "rolling commits during execution" `Quick
      test_rolling_commits_during_execution;
    Alcotest.test_case "caught dependency still aborts" `Quick
      test_caught_dependency;
    Alcotest.test_case "zombie incarnation ended by gas, then discarded"
      `Quick test_zombie_ended_by_gas;
    Alcotest.test_case "closure zombie ended by fuel, then discarded" `Quick
      test_closure_zombie_ended_by_fuel;
    Alcotest.test_case "prevalidation skips re-execution on estimate" `Quick
      test_prevalidation_skip;
    Alcotest.test_case "no prevalidation: block mid-execution" `Quick
      test_prevalidation_skip_disabled;
    Alcotest.test_case "metrics lower bounds" `Quick test_metrics_lower_bounds;
    Alcotest.test_case "engine quiescent after run" `Quick
      test_engine_quiescent_after_run;
    Alcotest.test_case "snapshot bounded by committed writes" `Quick
      test_snapshot_matches_profile_writes;
    Alcotest.test_case "create forces no minor collections" `Quick
      test_create_forces_no_minor_collections;
    Alcotest.test_case "minor words per transaction bounded" `Quick
      test_minor_words_per_txn;
    Alcotest.test_case "helper exit promotes only the result" `Quick
      test_helper_exit_promotes_result_only;
    Alcotest.test_case "finalize allocates one tuple and one cons per binding"
      `Quick test_finalize_allocation;
    Alcotest.test_case "finalize's scratch keeps no value alive" `Quick
      test_scratch_keeps_nothing_alive;
    Alcotest.test_case "finalize names a transaction that never ran" `Quick
      test_finalize_names_missing_output;
    Alcotest.test_case "an output equal to the placeholder commits" `Quick
      test_output_equal_to_placeholder;
    Alcotest.test_case "read log retains two arrays, no block per read"
      `Quick test_read_log_retained_shape;
    Alcotest.test_case "each transaction keeps its own read log" `Quick
      test_read_logs_not_shared;
    Alcotest.test_case "helper-domain exception raises, no hang" `Quick
      test_helper_exception_raises;
  ]
