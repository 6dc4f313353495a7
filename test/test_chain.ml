(** Tests for the chain manager: replicas running different executors (and
    different domain counts) must commit identical state roots at every
    height — the repository's end-to-end "every entity arrives at the same
    final state" check — and every root a commit records must equal the
    Merkle store's from-scratch recompute over the state it leaves. *)

open Tutil
module Chain = Blockstm_chain.Chain.Make (IntLoc) (IntVal)

let genesis () =
  let s = Chain.Store.create () in
  for i = 0 to 9 do
    Chain.Store.set s i (100 + i)
  done;
  s

let block_of_seed seed : itxn array =
  let rng = Blockstm_workload.Rng.create seed in
  Array.init 50 (fun _ ->
      let a = Blockstm_workload.Rng.int rng 10 in
      let b = Blockstm_workload.Rng.int rng 10 in
      rmw ~src:a ~dst:b (fun v -> (v * 3) + 1))

(* Checks the committed root after every block, not only the last. *)
let run_chain executor n_blocks =
  let chain = Chain.create ~executor ~genesis:(genesis ()) () in
  for seed = 1 to n_blocks do
    let c = Chain.execute_block chain (block_of_seed seed) in
    Alcotest.(check int64)
      (Fmt.str "root = recompute at height %d" c.height)
      (Chain.Mstore.recompute_root (Chain.merkle_state chain))
      c.state_root
  done;
  chain

let test_replicas_agree () =
  let seq = run_chain Chain.Sequential 6 in
  let par1 =
    run_chain (Chain.Block_stm Chain.Bstm.default_config) 6
  in
  let par4 =
    run_chain
      (Chain.Block_stm { Chain.Bstm.default_config with num_domains = 4 })
      6
  in
  Alcotest.(check (option int)) "seq = 1 domain" None
    (Chain.first_divergence seq par1);
  Alcotest.(check (option int)) "seq = 4 domains" None
    (Chain.first_divergence seq par4);
  Alcotest.(check int) "height" 6 (Chain.height seq);
  Alcotest.(check int) "commit count" 6 (List.length (Chain.commits seq))

let test_rolling_replica_agrees () =
  let seq = run_chain Chain.Sequential 4 in
  List.iter
    (fun num_domains ->
      let roll =
        run_chain
          (Chain.Block_stm
             (Chain.Bstm.optimistic_config ~num_domains (fun o ->
                  { o with rolling_commit = true })))
          4
      in
      Alcotest.(check (option int))
        (Fmt.str "no divergence, %d domains" num_domains)
        None
        (Chain.first_divergence seq roll))
    [ 1; 4 ]

let blocks_of n_blocks = List.init n_blocks (fun i -> block_of_seed (i + 1))

let test_execute_blocks_matches_loop () =
  let a = run_chain Chain.Sequential 3 in
  let b = Chain.create ~executor:Chain.Sequential ~genesis:(genesis ()) () in
  let commits = Chain.execute_blocks b (blocks_of 3) in
  Alcotest.(check int) "three commits returned" 3 (List.length commits);
  Alcotest.(check (option int)) "same commits" None
    (Chain.first_divergence a b)

let test_divergence_detected () =
  let a = run_chain Chain.Sequential 3 in
  (* A replica that runs a different third block must diverge at height 3. *)
  let b = Chain.create ~executor:Chain.Sequential ~genesis:(genesis ()) () in
  ignore (Chain.execute_block b (block_of_seed 1));
  ignore (Chain.execute_block b (block_of_seed 2));
  ignore (Chain.execute_block b (block_of_seed 99));
  Alcotest.(check (option int)) "diverges at 3" (Some 3)
    (Chain.first_divergence a b);
  (* Different lengths diverge at the extra height. *)
  let c = run_chain Chain.Sequential 2 in
  Alcotest.(check (option int)) "length mismatch" (Some 3)
    (Chain.first_divergence a c)

let test_state_root_changes_per_block () =
  let chain = run_chain Chain.Sequential 5 in
  let roots =
    List.map (fun c -> c.Chain.state_root) (Chain.commits chain)
  in
  let distinct = List.sort_uniq compare roots in
  Alcotest.(check int) "all roots distinct" 5 (List.length distinct)

let test_empty_block_keeps_root () =
  let chain = run_chain Chain.Sequential 1 in
  let r1 = (Option.get (Chain.last_commit chain)).Chain.state_root in
  ignore (Chain.execute_block chain [||]);
  let r2 = (Option.get (Chain.last_commit chain)).Chain.state_root in
  Alcotest.(check bool) "empty block preserves root" true
    (Int64.equal r1 r2)

(* Bounded history retention: only the newest [retain_outputs] commits keep
   their outputs arrays; older commits keep roots and metrics but are pruned
   to empty outputs and marked [outputs_retained = false]. *)
let test_bounded_retention () =
  let chain =
    Chain.create ~retain_outputs:2 ~executor:Chain.Sequential
      ~genesis:(genesis ()) ()
  in
  for seed = 1 to 5 do
    ignore (Chain.execute_block chain (block_of_seed seed))
  done;
  let commits = Chain.commits chain in
  Alcotest.(check int) "all commits kept" 5 (List.length commits);
  List.iter
    (fun (c : _ Chain.block_commit) ->
      let recent = c.height > 3 in
      Alcotest.(check bool)
        (Fmt.str "height %d outputs_retained" c.height)
        recent c.outputs_retained;
      Alcotest.(check int)
        (Fmt.str "height %d outputs length" c.height)
        (if recent then 50 else 0)
        (Array.length c.outputs))
    commits;
  (* Roots survive pruning: an unbounded replica agrees at every height. *)
  let full = run_chain Chain.Sequential 5 in
  Alcotest.(check (option int)) "pruned replica roots intact" None
    (Chain.first_divergence full chain)

let test_retention_window_zero () =
  let chain =
    Chain.create ~retain_outputs:0 ~executor:Chain.Sequential
      ~genesis:(genesis ()) ()
  in
  for seed = 1 to 3 do
    ignore (Chain.execute_block chain (block_of_seed seed))
  done;
  List.iter
    (fun (c : _ Chain.block_commit) ->
      Alcotest.(check bool)
        (Fmt.str "height %d pruned" c.height)
        false c.outputs_retained)
    (Chain.commits chain);
  Alcotest.(check bool) "negative window rejected" true
    (try
       ignore
         (Chain.create ~retain_outputs:(-1) ~executor:Chain.Sequential
            ~genesis:(genesis ()) ());
       false
     with Invalid_argument _ -> true)

let test_metrics_presence () =
  let seq = run_chain Chain.Sequential 1 in
  let par = run_chain (Chain.Block_stm Chain.Bstm.default_config) 1 in
  Alcotest.(check bool) "sequential has no metrics" true
    ((Option.get (Chain.last_commit seq)).Chain.metrics = None);
  Alcotest.(check bool) "block-stm has metrics" true
    ((Option.get (Chain.last_commit par)).Chain.metrics <> None)

let suite =
  [
    Alcotest.test_case "replicas with different executors agree" `Quick
      test_replicas_agree;
    Alcotest.test_case "rolling-commit replica agrees" `Quick
      test_rolling_replica_agrees;
    Alcotest.test_case "execute_blocks = per-block loop" `Quick
      test_execute_blocks_matches_loop;
    Alcotest.test_case "divergence detected at first bad height" `Quick
      test_divergence_detected;
    Alcotest.test_case "state roots change per block" `Quick
      test_state_root_changes_per_block;
    Alcotest.test_case "empty block preserves root" `Quick
      test_empty_block_keeps_root;
    Alcotest.test_case "bounded retention prunes old outputs" `Quick
      test_bounded_retention;
    Alcotest.test_case "retention window zero" `Quick
      test_retention_window_zero;
    Alcotest.test_case "metrics presence per executor" `Quick
      test_metrics_presence;
  ]
