(** Stress and liveness tests: larger blocks, adversarial contention
    patterns, repeated runs under real domain parallelism, and engine
    quiescence invariants. These are the "does it ever hang, lose a task
    count, or corrupt state under load" checks backing the paper's liveness
    theorem (Theorem 2). *)

open Tutil

let domains_cfg ?(rolling_commit = false) n =
  { Bstm.default_config with num_domains = n; rolling_commit }

(* Repeated real-domain runs on a contended block: every repetition must
   terminate and agree with the sequential result. *)
let test_repeated_contended_runs () =
  let rng = Blockstm_workload.Rng.create 404 in
  let txns =
    Array.init 300 (fun _ ->
        let a = Blockstm_workload.Rng.int rng 4 in
        let b = Blockstm_workload.Rng.int rng 4 in
        rmw ~src:a ~dst:b (fun v -> (v * 13) + 1))
  in
  let seq = Seq.run ~storage:zero_storage txns in
  for rep = 1 to 10 do
    let par = Bstm.run ~config:(domains_cfg 4) ~storage:zero_storage txns in
    Alcotest.(check bool)
      (Printf.sprintf "rep %d snapshot" rep)
      true
      (Seq.same_snapshot par.snapshot seq.snapshot)
  done

(* A large p2p block across many domains. *)
let test_large_p2p_block () =
  let w =
    Blockstm_workload.P2p.generate
      { Blockstm_workload.P2p.default_spec with
        num_accounts = 50; block_size = 3_000 }
  in
  let module H = Blockstm_workload.Harness in
  let c =
    H.check_blockstm
      ~config:{ H.Bstm.default_config with num_domains = 6 }
      ~storage:w.storage w.txns
  in
  Alcotest.(check bool) "3000 txns, 6 domains" true (H.check_ok c)

(* Long dependency chain with maximal domains: a cascade where every
   transaction must be re-executed; checks the scheduler never wedges. *)
let test_long_chain_many_domains () =
  let n = 400 in
  let txns =
    Array.init n (fun i -> rmw ~src:i ~dst:(i + 1) (fun v -> v + 1))
  in
  let par = Bstm.run ~config:(domains_cfg 8) ~storage:zero_storage txns in
  (* Location n holds the chain's length. *)
  match List.assoc_opt n par.snapshot with
  | Some v -> Alcotest.(check int) "chain propagated" n v
  | None -> Alcotest.fail "chain tail missing"

(* All domains fight over one counter: dependency aborts and re-executions
   across domains, repeatedly. *)
let test_hotspot_many_domains () =
  let n = 200 in
  let txns = Array.init n (fun _ -> incr_txn 0) in
  for _ = 1 to 5 do
    let par =
      Bstm.run ~config:(domains_cfg 6) ~storage:zero_storage txns
    in
    Alcotest.(check (list (pair int int))) "exact count" [ (0, n) ]
      par.snapshot
  done

(* Mixed failure storm: a third of transactions abort deterministically
   based on what they read. *)
let test_failure_storm () =
  let rng = Blockstm_workload.Rng.create 7_001 in
  let txns =
    Array.init 300 (fun i : itxn ->
        let a = Blockstm_workload.Rng.int rng 5 in
        fun e ->
          let v = match e.read a with Some v -> v | None -> 0 in
          if (v + i) mod 3 = 0 then failwith "storm";
          e.write a (v + 1);
          v)
  in
  ignore
    (assert_equiv ~msg:"failure storm" ~config:(domains_cfg 4)
       ~storage:zero_storage txns)

(* Engine quiescence after heavy contention: zero active tasks, every status
   EXECUTED, no ESTIMATE survives (snapshot would assert). *)
let test_quiescence_under_stress () =
  let rng = Blockstm_workload.Rng.create 31337 in
  let txns =
    Array.init 500 (fun _ ->
        let a = Blockstm_workload.Rng.int rng 3 in
        incr_txn a)
  in
  let inst =
    Bstm.create_instance ~config:(domains_cfg 5) ~storage:zero_storage txns
  in
  let workers =
    Array.init 4 (fun _ -> Domain.spawn (fun () -> Bstm.worker_loop inst))
  in
  Bstm.worker_loop inst;
  Array.iter Domain.join workers;
  Alcotest.(check int) "active tasks zero" 0
    (Scheduler.num_active_tasks (Bstm.sched inst));
  let all_executed = ref true in
  Array.iteri
    (fun i _ ->
      let _, kind = Scheduler.status (Bstm.sched inst) i in
      if kind <> Scheduler.Executed then all_executed := false)
    txns;
  Alcotest.(check bool) "all executed" true !all_executed;
  let r = Bstm.finalize inst in
  Alcotest.(check bool) "snapshot computable" true (r.snapshot <> [])

(* Rolling commit under real contention: while workers run, a monitor domain
   polls the committed prefix — it must only ever grow — and the on_commit
   stream must be exactly 0..n-1 in preset order. *)
let test_rolling_commit_stress () =
  let rng = Blockstm_workload.Rng.create 909 in
  let n = 400 in
  let txns =
    Array.init n (fun _ ->
        let a = Blockstm_workload.Rng.int rng 4 in
        let b = Blockstm_workload.Rng.int rng 4 in
        rmw ~src:a ~dst:b (fun v -> (v * 7) + 3))
  in
  let seq = Seq.run ~storage:zero_storage txns in
  for rep = 1 to 3 do
    let order = ref [] in
    let config = domains_cfg ~rolling_commit:true 4 in
    let inst =
      Bstm.create_instance ~config
        ~on_commit:(fun j _ -> order := j :: !order)
        ~storage:zero_storage txns
    in
    let stop = Atomic.make false in
    let monotone = Atomic.make true in
    let monitor =
      Domain.spawn (fun () ->
          let last = ref 0 in
          while not (Atomic.get stop) do
            let p = Bstm.committed_prefix inst in
            if p < !last then Atomic.set monotone false;
            last := max !last p;
            Domain.cpu_relax ()
          done)
    in
    let workers =
      Array.init 3 (fun _ -> Domain.spawn (fun () -> Bstm.worker_loop inst))
    in
    Bstm.worker_loop inst;
    Array.iter Domain.join workers;
    let r = Bstm.finalize inst in
    Atomic.set stop true;
    Domain.join monitor;
    Alcotest.(check bool)
      (Printf.sprintf "rep %d: prefix monotone" rep)
      true (Atomic.get monotone);
    Alcotest.(check int)
      (Printf.sprintf "rep %d: prefix complete" rep)
      n
      (Bstm.committed_prefix inst);
    Alcotest.(check bool)
      (Printf.sprintf "rep %d: snapshot" rep)
      true
      (Seq.same_snapshot r.snapshot seq.snapshot);
    Alcotest.(check (list int))
      (Printf.sprintf "rep %d: commit order" rep)
      (List.init n Fun.id) (List.rev !order)
  done

(* Virtual-time liveness at scale: a huge thread count against a tiny,
   fully-conflicting block must still converge (idle fast-forward path). *)
let test_sim_more_threads_than_work () =
  let g = Blockstm_workload.Synthetic.hotspot ~block_size:30 in
  let result, stats =
    Blockstm_workload.Harness.sim_blockstm ~num_threads:64
      ~storage:g.storage g.txns
  in
  let seq =
    Blockstm_workload.Harness.run_sequential ~storage:g.storage g.txns
  in
  Alcotest.(check bool) "correct" true
    (Blockstm_workload.Harness.equal_snapshot seq.snapshot result.snapshot);
  Alcotest.(check bool) "finite steps" true (stats.steps < 1_000_000)

(* Zipfian skew sweep: correctness across the contention spectrum. *)
let test_zipfian_sweep () =
  List.iter
    (fun theta ->
      let g =
        Blockstm_workload.Synthetic.zipfian ~block_size:400 ~num_accounts:50
          ~theta ~seed:9
      in
      let module H = Blockstm_workload.Harness in
      let c =
        H.check_blockstm
          ~config:{ H.Bstm.default_config with num_domains = 4 }
          ~storage:g.storage g.txns
      in
      Alcotest.(check bool)
        (Printf.sprintf "theta %.2f" theta)
        true (H.check_ok c))
    [ 0.0; 0.5; 0.9; 1.2 ]

let suite =
  [
    Alcotest.test_case "repeated contended runs" `Quick
      test_repeated_contended_runs;
    Alcotest.test_case "large p2p block (3000 txns, 6 domains)" `Quick
      test_large_p2p_block;
    Alcotest.test_case "long dependency chain" `Quick
      test_long_chain_many_domains;
    Alcotest.test_case "hotspot across many domains" `Quick
      test_hotspot_many_domains;
    Alcotest.test_case "failure storm" `Quick test_failure_storm;
    Alcotest.test_case "quiescence under stress" `Quick
      test_quiescence_under_stress;
    Alcotest.test_case "rolling commit under contention" `Quick
      test_rolling_commit_stress;
    Alcotest.test_case "64 virtual threads, 30 txns" `Quick
      test_sim_more_threads_than_work;
    Alcotest.test_case "zipfian contention sweep" `Quick test_zipfian_sweep;
  ]
