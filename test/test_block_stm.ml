(** Tests for the Block-STM engine: VM wrapper semantics (Algorithm 4),
    end-to-end equivalence with sequential execution, ablation configs,
    metrics, and engine invariants. Uses the compact int domain from
    {!Tutil}. *)

open Blockstm_kernel
open Tutil

let run ?config ~storage txns = Bstm.run ?config ~storage txns

let config ?(num_domains = 1) ?(marking = Bstm.default_optimistic.marking)
    ?(prevalidate_reads = true) ?(rolling_commit = false) () =
  Bstm.optimistic_config ~num_domains (fun o ->
      { o with marking; prevalidate_reads; rolling_commit })

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

let seeded = Bstm.Estimates { seed_from_specs = true }

(* Write-set pre-estimation (§7): spec seeding over specs that declare the
   exact writes and claim nothing about reads. *)
let test_prefill_estimates_correct () =
  let n = 80 in
  let rng = Blockstm_workload.Rng.create 23 in
  let targets = Array.init n (fun _ -> Blockstm_workload.Rng.int rng 4) in
  let txns = Array.map (fun t -> incr_txn t) targets in
  let specs =
    Array.map
      (fun t -> { Access_spec.reads = [ Unknown ]; writes = [ Exact t ] })
      targets
  in
  let r =
    assert_equiv ~msg:"declared-write seeding"
      ~config:(config ~num_domains:4 ~marking:seeded ())
      ~specs ~storage:zero_storage txns
  in
  Alcotest.(check int) "reads Unknown: no validation skipped" 0
    r.metrics.spec_skips

let test_seeding_requires_specs () =
  Alcotest.check_raises "missing specs"
    (Invalid_argument "Block_stm: seed_from_specs requires specs") (fun () ->
      ignore
        (run ~config:(config ~marking:seeded ()) ~storage:zero_storage
           [| incr_txn 0 |]))

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
    ~config:(Bstm.optimistic_config (fun o -> { o with delta_ops = true }))
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
   buffers. The bound is the
   measured 667.6 words (OCaml 5.1.1 without flambda) plus 1%: a change
   that cuts allocation lowers it. *)
let minor_words_per_txn_bound = 675.

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

(* An exception that escapes a worker on a helper domain is an error of the
   block, not a hang. A rolling [on_commit] hook runs in the commit sweep,
   outside the VM's exception capture, and may fire while its worker holds a
   claimed task that then never finishes. The hook raises only off the
   calling domain; every trial must return the sequential result or raise
   the hook's exception. *)
let test_helper_exception_raises () =
  let module H = Blockstm_workload.Harness in
  let module P2p = Blockstm_workload.P2p in
  let config =
    H.Bstm.optimistic_config ~num_domains:2 (fun o ->
        { o with rolling_commit = true })
  in
  let trials = 100 in
  let raised =
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
                if Domain.self () <> caller then raise Hook_failed
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
  Alcotest.(check bool) "some trial raised the hook's exception" true
    (raised > 0)

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
    Alcotest.test_case "ablation: prefilled estimates" `Quick
      test_prefill_estimates_correct;
    Alcotest.test_case "spec seeding requires specs" `Quick
      test_seeding_requires_specs;
    Alcotest.test_case "invalid num_domains rejected" `Quick
      test_invalid_num_domains;
    Alcotest.test_case "rolling commit = sequential" `Quick
      test_rolling_equals_sequential;
    Alcotest.test_case "on_commit streams in preset order" `Quick
      test_on_commit_streams_in_preset_order;
    Alcotest.test_case "lazy on_commit fires at finalize" `Quick
      test_lazy_on_commit_fires_at_finalize;
    Alcotest.test_case "rolling empty block" `Quick test_rolling_empty_block;
    Alcotest.test_case "caught dependency still aborts" `Quick
      test_caught_dependency;
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
    Alcotest.test_case "read log retains two arrays, no block per read"
      `Quick test_read_log_retained_shape;
    Alcotest.test_case "each transaction keeps its own read log" `Quick
      test_read_logs_not_shared;
    Alcotest.test_case "helper-domain exception raises, no hang" `Quick
      test_helper_exception_raises;
  ]
