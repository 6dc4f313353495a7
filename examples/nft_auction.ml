(* Contended MiniMove contracts under Block-STM: an English auction (every
   bid reads and conditionally writes the same resource) and an NFT mint
   (sequential ids from one registry counter). Both are worst cases for
   optimistic execution — the demo shows Block-STM still commits the exact
   preset-order outcome, and prints the abort metrics the contention
   causes.

   Run with: dune exec examples/nft_auction.exe *)

open Blockstm_minimove
open Mv_value

let pp_output = Blockstm_kernel.Txn.pp_output Value.pp

let run_auction () =
  let auction = Interp.compile Stdlib_contracts.auction_source in
  let house = 777 in
  let num_bidders = 20 in
  let store =
    Runtime.auction_genesis ~num_bidders ~auction_house:house ()
  in
  let rng = Blockstm_workload.Rng.create 2026 in
  let txns =
    Array.init 100 (fun _ ->
        let bidder = 1 + Blockstm_workload.Rng.int rng num_bidders in
        let bid = 1 + Blockstm_workload.Rng.int rng 1000 in
        Interp.txn auction
          ~args:[ Value.Addr house; Value.Addr bidder; Value.Int bid ])
  in
  let config = { Runtime.Bstm.default_config with num_domains = 4 } in
  let par =
    Runtime.Bstm.run ~config ~storage:(Runtime.Store.reader store) txns
  in
  let seq = Runtime.Seq.run ~storage:(Runtime.Store.reader store) txns in
  let lead_changes =
    Array.fold_left
      (fun n -> function
        | Blockstm_kernel.Txn.Success (Value.Int 1) -> n + 1
        | _ -> n)
      0 par.outputs
  in
  Fmt.pr "auction: %d bids, %d lead changes@." (Array.length txns)
    lead_changes;
  Fmt.pr "  metrics: %a@." Runtime.Bstm.pp_metrics par.metrics;
  (match
     List.find_opt
       (fun (l, _) -> Loc.equal l (Loc.make ~addr:house ~resource:"Auction"))
       par.snapshot
   with
  | Some (_, v) -> Fmt.pr "  final auction state: %a@." Value.pp v
  | None -> assert false);
  let same = Runtime.Seq.same_snapshot par.snapshot seq.snapshot in
  Fmt.pr "  matches sequential: %b@." same;
  same

let run_nft () =
  let nft = Interp.compile Stdlib_contracts.nft_source in
  let registry = 999 in
  let num_minters = 10 in
  let store = Runtime.nft_genesis ~num_minters ~registry () in
  let txns =
    Array.init 50 (fun i ->
        Interp.txn nft
          ~args:[ Value.Addr registry; Value.Addr ((i mod num_minters) + 1) ])
  in
  let config = { Runtime.Bstm.default_config with num_domains = 4 } in
  let par =
    Runtime.Bstm.run ~config ~storage:(Runtime.Store.reader store) txns
  in
  (* Despite parallel speculative execution over one shared counter, the
     preset order forces ids 0, 1, 2, ... *)
  let ids_ok = ref true in
  Array.iteri
    (fun i o ->
      match o with
      | Blockstm_kernel.Txn.Success (Value.Int id) when id = i -> ()
      | o ->
          ids_ok := false;
          Fmt.pr "  unexpected output %d: %a@." i pp_output o)
    par.outputs;
  Fmt.pr "nft: %d mints, ids strictly sequential: %b@." (Array.length txns)
    !ids_ok;
  Fmt.pr "  metrics: %a@." Runtime.Bstm.pp_metrics par.metrics;
  !ids_ok

let () =
  let a = run_auction () in
  let b = run_nft () in
  if not (a && b) then exit 1
