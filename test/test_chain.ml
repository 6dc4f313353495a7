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
             {
               Chain.Bstm.default_config with
               num_domains;
               rolling_commit = true;
             })
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

(* --- The commit job ----------------------------------------------------- *)

exception Hash_failed

(* A value whose [hash] raises at its k-th call once [fuse] is set to k,
   counting calls across domains, and notes the domain it raised on. *)
module Fuse_val = struct
  include IntVal

  let fuse = Atomic.make max_int
  let raised_on = Atomic.make None

  let hash v =
    if Atomic.fetch_and_add fuse (-1) = 1 then begin
      Atomic.set raised_on (Some (Domain.self ()));
      raise Hash_failed
    end;
    IntVal.hash v
end

module FChain = Blockstm_chain.Chain.Make (IntLoc) (Fuse_val)

(* A part of the commit job that raises, on the calling domain or on the
   helper, re-raises from [execute_block], and the chain keeps its height
   and its commits. Each 2-domain block writes 400 locations, so its commit
   hashes at least 400 values, and the fuse burns at a random one of them.
   The trials outnumber the runtime's 128 domains, so a helper left
   unjoined makes a later [Domain.spawn] fail instead of [Hash_failed]. *)
let test_failing_commit_job () =
  let trials = 150 in
  let genesis = FChain.Store.create () in
  for l = 0 to 999 do
    FChain.Store.set genesis l 1_000
  done;
  let block shift : itxn array =
    Array.init 200 (fun i ->
        transfer ~from_:(2 * i) ~to_:((2 * i) + 1) ~amount:(1 + shift))
  in
  let executor =
    FChain.Block_stm { FChain.Bstm.default_config with num_domains = 2 }
  in
  let rng = Random.State.make [| 36 |] in
  let outcome =
    with_timeout ~secs:60. (fun () ->
        let caller = Domain.self () and on_caller = ref 0 in
        for trial = 1 to trials do
          let chain = FChain.create ~executor ~genesis () in
          let first = FChain.execute_block chain (block 0) in
          Atomic.set Fuse_val.raised_on None;
          Atomic.set Fuse_val.fuse (1 + Random.State.int rng 400);
          (match FChain.execute_block chain (block 1) with
          | _ -> Alcotest.failf "trial %d: the commit did not raise" trial
          | exception Hash_failed -> ());
          Atomic.set Fuse_val.fuse max_int;
          if Atomic.get Fuse_val.raised_on = Some caller then incr on_caller;
          Alcotest.(check int) "height kept" 1 (FChain.height chain);
          Alcotest.(check bool) "commits kept" true
            (match FChain.commits chain with
            | [ c ] -> c == first
            | _ -> false)
        done;
        !on_caller)
  in
  match outcome with
  | Error e -> raise e
  | Ok on_caller ->
      if on_caller = 0 || on_caller = trials then
        Alcotest.failf
          "a part raised on the calling domain in %d of %d trials: both \
           domains must be seen raising"
          on_caller trials

(* The helper leaves after the commit job, which reaches the instance, so
   [run_into] clears the job from the crew before the release: the
   helper's exit collection then promotes what the block leaves live (its
   commit, outputs and the values it wrote into the state), and not its
   bookkeeping. One 2-domain chain block of 200 lean transfers fits in the
   minor heaps, so the exit collection is its only promotion; a warm-up
   block first grows the store's staging arrays. It read 8.3 words per
   transaction in every run (OCaml 5.1.1 without flambda); the bound leaves
   3.7 words of margin. With the job left in the crew at the release, it
   read 73.4. *)
let chain_promoted_words_per_txn_bound = 12.

let test_chain_commit_promotes_result_only () =
  let module H = Blockstm_workload.Harness in
  let module B = Blockstm_workload.Bigstate in
  let w seed = B.transfers ~block_size:200 ~num_accounts:10_000 ~seed () in
  let warm = w 3 and block = w 4 in
  let chain =
    H.ChainX.create
      ~executor:
        (H.ChainX.Block_stm { H.Bstm.default_config with num_domains = 2 })
      ~genesis:warm.storage ()
  in
  ignore (H.ChainX.execute_block chain warm.txns);
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).promoted_words in
  let c = H.ChainX.execute_block chain block.txns in
  let per_txn = ((Gc.quick_stat ()).promoted_words -. p0) /. 200. in
  Alcotest.(check int) "all outputs" 200 (Array.length c.outputs);
  if per_txn > chain_promoted_words_per_txn_bound then
    Alcotest.failf "%.1f promoted words per transaction (bound %.0f)" per_txn
      chain_promoted_words_per_txn_bound

(* The commit phase allocates nothing per binding: on one domain, from the
   first part's apply to [finish_parts], a 1,000-transaction p2p block
   allocates per part a copy of the part's counters and two closures, and
   nothing else once a warm-up block has grown the staging arrays. It read
   0.46 minor words per binding over 3,620 bindings (OCaml 5.1.1 without
   flambda). *)
let test_commit_phase_allocation () =
  let module H = Blockstm_workload.Harness in
  let module P2p = Blockstm_workload.P2p in
  let module M = H.ChainX.Mstore in
  let w =
    P2p.generate
      { P2p.default_spec with num_accounts = 10_000; block_size = 1_000 }
  in
  let bindings =
    List.length (H.run_sequential ~storage:w.storage w.txns).snapshot
  in
  let m = M.of_store w.storage in
  let commit () =
    let parts = M.parts m in
    let start = ref 0. and stop = ref 0. in
    let apply part bindings =
      if part = 0 then start := Gc.minor_words ();
      M.apply_part m ~part bindings;
      if part = parts - 1 then stop := Gc.minor_words ()
    in
    ignore (H.Bstm.run_into ~storage:(M.reader m) ~parts ~apply w.txns);
    let w0 = Gc.minor_words () in
    ignore (M.finish_parts m);
    !stop -. !start +. (Gc.minor_words () -. w0)
  in
  ignore (commit ());
  let per_binding = commit () /. float_of_int bindings in
  if per_binding > 1. then
    Alcotest.failf "%.2f minor words per binding over %d bindings (bound 1)"
      per_binding bindings

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
    Alcotest.test_case "a failing commit job raises, chain kept" `Quick
      test_failing_commit_job;
    Alcotest.test_case "helper exit after the commit promotes only the result"
      `Quick test_chain_commit_promotes_result_only;
    Alcotest.test_case "commit phase allocates nothing per binding" `Quick
      test_commit_phase_allocation;
  ]
