(* Multi-block pipeline: chains Block-STM executions the way a blockchain
   validator does — each block's MVMemory snapshot is folded into storage and
   becomes the pre-state of the next block. Demonstrates the paper's
   observation that "the state is updated per block": commit is lazy and
   per-block, and the multi-version structure is discarded between blocks
   (trivial garbage collection).

   Run with: dune exec examples/block_pipeline.exe *)

open Blockstm_workload

let () =
  let num_accounts = 200 in
  let block_size = 500 in
  let num_blocks = 8 in
  let state = Ledger.genesis ~num_accounts () in
  let reference = Ledger.Store.copy state in
  let config = { Harness.Bstm.default_config with num_domains = 4 } in
  let next_seq = Array.make num_accounts 0 in
  let rng = Rng.create 1234 in

  (* Build one block continuing each account's sequence numbers. *)
  let build_block () =
    Array.init block_size (fun _ ->
        let s, r = Rng.distinct_pair rng num_accounts in
        let amount = 1 + Rng.int rng 50 in
        let exp_seqno = next_seq.(s) in
        next_seq.(s) <- exp_seqno + 1;
        P2p.standard_txn ~work:0
          { P2p.sender = s; recipient = r; amount; exp_seqno })
  in

  for block = 1 to num_blocks do
    let txns = build_block () in
    (* Parallel chain. *)
    let par = Harness.run_blockstm ~config ~storage:state txns in
    Ledger.Store.apply_delta state par.snapshot;
    (* Sequential reference chain. *)
    let seq = Harness.run_sequential ~storage:reference txns in
    Ledger.Store.apply_delta reference seq.snapshot;
    let failed =
      Array.fold_left
        (fun n -> function Blockstm_kernel.Txn.Failed _ -> n + 1 | _ -> n)
        0 par.outputs
    in
    Fmt.pr "block %d: %d txns, %d failed, aborts=%d, states agree: %b@."
      block block_size failed par.metrics.validation_aborts
      (Ledger.Store.equal state reference)
  done;

  (* Global invariant: total balance is conserved across all blocks. *)
  let total store =
    List.fold_left
      (fun acc (loc, v) ->
        match Ledger.Loc.view loc with
        | Ledger.Loc.Account { field = Ledger.Balance; _ } ->
            acc + Ledger.Value.as_int v
        | _ -> acc)
      0
      (Ledger.Store.to_alist store)
  in
  let expected = num_accounts * Ledger.default_initial_balance in
  Fmt.pr "total balance after %d blocks: %d (expected %d)@." num_blocks
    (total state) expected;
  if total state <> expected || not (Ledger.Store.equal state reference) then
    exit 1
