(* MiniMove demo: compile the stdlib coin contract, build a block of p2p
   transfer transactions, execute it with Block-STM on 4 domains and check
   the result against sequential execution.

   Run with: dune exec examples/minimove_coin.exe *)

open Blockstm_minimove
open Mv_value

let () =
  let coin = Interp.compile Stdlib_contracts.coin_source in
  let num_accounts = 50 in
  let block_size = 400 in
  let storage = Runtime.coin_genesis ~num_accounts () in

  (* Deterministic block of transfers with correct sequence numbers. *)
  let rng = Blockstm_workload.Rng.create 7 in
  let next_seq = Array.make (num_accounts + 1) 0 in
  let txns =
    Array.init block_size (fun _ ->
        let s, r = Blockstm_workload.Rng.distinct_pair rng num_accounts in
        let sender = s + 1 and recipient = r + 1 in
        let amount = 1 + Blockstm_workload.Rng.int rng 50 in
        let seq = next_seq.(sender) in
        next_seq.(sender) <- seq + 1;
        Interp.txn coin
          ~args:
            [
              Value.Addr sender;
              Value.Addr recipient;
              Value.Int amount;
              Value.Int seq;
            ])
  in

  let config = { Runtime.Bstm.default_config with num_domains = 4 } in
  let par =
    Runtime.Bstm.run ~config ~storage:(Runtime.Store.reader storage) txns
  in
  let seq = Runtime.Seq.run ~storage:(Runtime.Store.reader storage) txns in

  let failed =
    Array.fold_left
      (fun n -> function Blockstm_kernel.Txn.Failed _ -> n + 1 | _ -> n)
      0 par.outputs
  in
  let same = Runtime.Seq.same_snapshot par.snapshot seq.snapshot in
  Fmt.pr "MiniMove coin: %d transfers over %d accounts@." block_size
    num_accounts;
  Fmt.pr "  Block-STM metrics: %a@." Runtime.Bstm.pp_metrics par.metrics;
  Fmt.pr "  failed txns: %d, snapshot matches sequential: %b@." failed same;
  (* Show one account's final state. *)
  (match
     List.find_opt
       (fun (l, _) -> Loc.equal l (Loc.make ~addr:1 ~resource:"Coin"))
       par.snapshot
   with
  | Some (_, v) -> Fmt.pr "  account @1 Coin: %a@." Value.pp v
  | None -> Fmt.pr "  account @1 untouched by the block@.");
  if not same then exit 1
