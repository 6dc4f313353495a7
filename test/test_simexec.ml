(** Tests for the virtual-time execution substrate: cost model, DAG list
    scheduler, and the virtual-time Block-STM driver (correctness of results
    and sanity of the scaling behavior it reports). *)

open Blockstm_workload
module CM = Blockstm_simexec.Cost_model
module VE = Blockstm_simexec.Virtual_exec
module DS = Blockstm_simexec.Dag_sim

(* --- Cost model ----------------------------------------------------------- *)

let test_cost_model_calibration () =
  (* Standard p2p ≈ 200µs (5k tps sequential), simplified ≈ 128µs. *)
  let std = CM.exec_cost CM.default ~reads:21 ~writes:4 in
  let simp = CM.exec_cost CM.default ~reads:12 ~writes:4 in
  Alcotest.(check bool) "standard ~200us" true (std = 200.0);
  Alcotest.(check bool) "simplified ~128us" true (simp = 128.0);
  Alcotest.(check bool) "validation much cheaper" true
    (CM.validation_cost CM.default ~reads:21 < std /. 5.)

let test_cost_model_monotone () =
  let c = CM.default in
  Alcotest.(check bool) "reads increase cost" true
    (CM.exec_cost c ~reads:10 ~writes:1 < CM.exec_cost c ~reads:20 ~writes:1);
  Alcotest.(check bool) "writes increase cost" true
    (CM.exec_cost c ~reads:10 ~writes:1 < CM.exec_cost c ~reads:10 ~writes:5);
  Alcotest.(check bool) "dep abort cheaper than full exec" true
    (CM.dep_abort_cost c ~reads:5 < CM.exec_cost c ~reads:5 ~writes:4)

(* --- DAG scheduler -------------------------------------------------------- *)

let test_dag_no_deps_perfect_scaling () =
  let n = 64 in
  let dag =
    DS.create ~costs:(Array.make n 10.0) ~deps:(Array.make n [])
  in
  Alcotest.(check bool) "1 thread = serial" true
    (DS.makespan dag ~num_threads:1 = 640.0);
  Alcotest.(check bool) "8 threads = /8" true
    (DS.makespan dag ~num_threads:8 = 80.0);
  Alcotest.(check bool) "more threads than tasks" true
    (DS.makespan dag ~num_threads:128 = 10.0);
  Alcotest.(check bool) "critical path = one task" true
    (DS.critical_path dag = 10.0)

let test_dag_chain_no_scaling () =
  let n = 16 in
  let deps = Array.init n (fun i -> if i = 0 then [] else [ i - 1 ]) in
  let dag = DS.create ~costs:(Array.make n 5.0) ~deps in
  Alcotest.(check bool) "chain critical path" true
    (DS.critical_path dag = 80.0);
  Alcotest.(check bool) "threads do not help" true
    (DS.makespan dag ~num_threads:8 = 80.0)

let test_dag_diamond () =
  (* 0 -> {1, 2} -> 3 with unit costs: cp = 3; two threads do it in 3. *)
  let dag =
    DS.create
      ~costs:[| 1.0; 1.0; 1.0; 1.0 |]
      ~deps:[| []; [ 0 ]; [ 0 ]; [ 1; 2 ] |]
  in
  Alcotest.(check bool) "critical path 3" true (DS.critical_path dag = 3.0);
  Alcotest.(check bool) "two threads: 3" true
    (DS.makespan dag ~num_threads:2 = 3.0);
  Alcotest.(check bool) "one thread: 4" true
    (DS.makespan dag ~num_threads:1 = 4.0)

let test_dag_bounds () =
  (* Random DAG: makespan within [max(cp, work/p), work]. *)
  let rng = Rng.create 77 in
  let n = 200 in
  let costs = Array.init n (fun _ -> 1.0 +. Rng.float rng *. 9.0) in
  let deps =
    Array.init n (fun j ->
        if j = 0 || Rng.int rng 3 = 0 then []
        else
          List.sort_uniq compare
            (List.init (1 + Rng.int rng 2) (fun _ -> Rng.int rng j)))
  in
  let dag = DS.create ~costs ~deps in
  let work = Array.fold_left ( +. ) 0.0 costs in
  let cp = DS.critical_path dag in
  List.iter
    (fun p ->
      let m = DS.makespan dag ~num_threads:p in
      Alcotest.(check bool) "lower bound" true
        (m >= Float.max cp (work /. float_of_int p) -. 1e-9);
      Alcotest.(check bool) "upper bound" true (m <= work +. 1e-9))
    [ 1; 2; 4; 8; 16 ]

let test_dag_rejects_forward_deps () =
  Alcotest.(check bool) "forward dependency rejected" true
    (match DS.create ~costs:[| 1.0; 1.0 |] ~deps:[| [ 1 ]; [] |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Virtual-time Block-STM ----------------------------------------------- *)

let sim ~num_threads ?(accounts = 100) ?(block = 300) () =
  let w =
    P2p.generate
      { P2p.default_spec with num_accounts = accounts; block_size = block }
  in
  let result, stats = Harness.sim_blockstm ~num_threads ~storage:w.storage
      w.txns in
  (w, result, stats)

let test_sim_result_correct () =
  let w, result, _ = sim ~num_threads:8 () in
  let seq = Harness.run_sequential ~storage:w.storage w.txns in
  Alcotest.(check bool) "snapshot equal" true
    (Harness.equal_snapshot seq.snapshot result.snapshot);
  Alcotest.(check bool) "outputs equal" true
    (Harness.equal_outputs seq.outputs result.outputs)

let test_sim_deterministic () =
  let _, r1, s1 = sim ~num_threads:8 () in
  let _, r2, s2 = sim ~num_threads:8 () in
  Alcotest.(check bool) "same makespan" true
    (s1.makespan_us = s2.makespan_us);
  Alcotest.(check int) "same steps" s1.steps s2.steps;
  Alcotest.(check bool) "same snapshot" true
    (Harness.equal_snapshot r1.snapshot r2.snapshot)

let test_sim_scales_when_uncontended () =
  let _, _, s1 = sim ~num_threads:1 ~accounts:10_000 ~block:400 () in
  let _, _, s8 = sim ~num_threads:8 ~accounts:10_000 ~block:400 () in
  let speedup = s1.makespan_us /. s8.makespan_us in
  Alcotest.(check bool)
    (Fmt.str "speedup %.1fx in [4, 8]" speedup)
    true
    (speedup > 4.0 && speedup <= 8.001)

let test_sim_sequential_workload_bounded_overhead () =
  (* 2 accounts: inherently sequential; Block-STM must stay within ~1.5x of
     sequential time even with many threads (paper: at most 30% overhead;
     our virtual-time model is coarser, so we allow a looser bound). *)
  let w =
    P2p.generate { P2p.default_spec with num_accounts = 2; block_size = 200 }
  in
  let seq_us = Harness.sim_sequential_makespan ~storage:w.storage w.txns in
  let _, stats = Harness.sim_blockstm ~num_threads:16 ~storage:w.storage
      w.txns in
  let overhead = stats.makespan_us /. seq_us in
  Alcotest.(check bool)
    (Fmt.str "overhead %.2fx <= 1.5x" overhead)
    true (overhead <= 1.5)

let test_sim_busy_plus_idle_bounded () =
  let _, _, s = sim ~num_threads:4 () in
  Alcotest.(check bool) "busy+idle >= makespan" true
    (s.busy_us +. s.idle_us >= s.makespan_us -. 1e-6);
  Alcotest.(check bool) "busy+idle <= threads * makespan" true
    (s.busy_us +. s.idle_us <= (4.0 *. s.makespan_us) +. 1e-6)

let test_sim_counts_match_engine_metrics () =
  let _, result, stats = sim ~num_threads:8 ~accounts:20 () in
  Alcotest.(check int) "executions" result.metrics.incarnations
    stats.executions;
  Alcotest.(check int) "validations" result.metrics.validations
    stats.validations;
  Alcotest.(check int) "aborts" result.metrics.validation_aborts
    stats.validation_aborts;
  Alcotest.(check int) "dependency aborts" result.metrics.dependency_aborts
    stats.dependency_aborts

let test_sim_bohm_and_litm_models () =
  let w =
    P2p.generate { P2p.default_spec with num_accounts = 1000;
                   block_size = 300 }
  in
  let seq = Harness.sim_sequential_makespan ~storage:w.storage w.txns in
  let bohm1 = Harness.sim_bohm_makespan ~num_threads:1 ~storage:w.storage
      w.txns in
  let bohm8 = Harness.sim_bohm_makespan ~num_threads:8 ~storage:w.storage
      w.txns in
  (* One-thread BOHM = sequential work; more threads help. *)
  Alcotest.(check bool) "bohm(1) = sequential" true
    (Float.abs (bohm1 -. seq) < 1e-6);
  Alcotest.(check bool) "bohm(8) much faster" true (bohm8 < seq /. 4.0);
  let litm8, r =
    Harness.sim_litm_makespan ~num_threads:8 ~storage:w.storage
      ~reads_per_txn:21 ~writes_per_txn:4 w.txns
  in
  Alcotest.(check bool) "litm rounds >= 1" true (r.rounds >= 1);
  Alcotest.(check bool) "litm slower than bohm" true (litm8 >= bohm8)

let test_virtual_exec_rejects_zero_threads () =
  let w = P2p.generate { P2p.default_spec with block_size = 5 } in
  Alcotest.(check bool) "rejected" true
    (match Harness.sim_blockstm ~num_threads:0 ~storage:w.storage w.txns with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "cost model calibration" `Quick
      test_cost_model_calibration;
    Alcotest.test_case "cost model monotonicity" `Quick
      test_cost_model_monotone;
    Alcotest.test_case "dag: no deps scale perfectly" `Quick
      test_dag_no_deps_perfect_scaling;
    Alcotest.test_case "dag: chain cannot scale" `Quick
      test_dag_chain_no_scaling;
    Alcotest.test_case "dag: diamond" `Quick test_dag_diamond;
    Alcotest.test_case "dag: brent bounds on random dags" `Quick
      test_dag_bounds;
    Alcotest.test_case "dag: rejects forward deps" `Quick
      test_dag_rejects_forward_deps;
    Alcotest.test_case "sim: result equals sequential" `Quick
      test_sim_result_correct;
    Alcotest.test_case "sim: deterministic" `Quick test_sim_deterministic;
    Alcotest.test_case "sim: scales on low contention" `Quick
      test_sim_scales_when_uncontended;
    Alcotest.test_case "sim: bounded overhead on sequential workload" `Quick
      test_sim_sequential_workload_bounded_overhead;
    Alcotest.test_case "sim: time accounting sane" `Quick
      test_sim_busy_plus_idle_bounded;
    Alcotest.test_case "sim: counters match engine metrics" `Quick
      test_sim_counts_match_engine_metrics;
    Alcotest.test_case "sim: bohm and litm models" `Quick
      test_sim_bohm_and_litm_models;
    Alcotest.test_case "sim: rejects zero threads" `Quick
      test_virtual_exec_rejects_zero_threads;
  ]
