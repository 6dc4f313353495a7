(* State machine replication: three "validators" execute the same chain of
   blocks with different executors and thread counts — sequential, Block-STM
   with 2 domains, Block-STM with 4 domains and rolling commit — and must
   commit identical state roots at every height. This is the paper's §1
   requirement ("every entity that executes the block of transactions must
   arrive at the same final state") made executable.

   Run with: dune exec examples/validator_replicas.exe *)

open Blockstm_workload
module Chain = Blockstm_chain.Chain.Make (Ledger.Loc) (Ledger.Value)

let num_accounts = 100
let block_size = 300
let num_blocks = 5

(* Deterministic block stream shared by all replicas. *)
let blocks =
  let rng = Rng.create 777 in
  let next_seq = Array.make num_accounts 0 in
  List.init num_blocks (fun _ ->
      Array.init block_size (fun _ ->
          let s, r = Rng.distinct_pair rng num_accounts in
          let exp_seqno = next_seq.(s) in
          next_seq.(s) <- exp_seqno + 1;
          P2p.standard_txn ~work:0
            {
              P2p.sender = s;
              recipient = r;
              amount = 1 + Rng.int rng 40;
              exp_seqno;
            }))

let () =
  let genesis = Ledger.genesis ~num_accounts () in
  let replicas =
    [
      ("validator-A (sequential)", Chain.create ~executor:Chain.Sequential
         ~genesis ());
      ( "validator-B (block-stm x2)",
        Chain.create
          ~executor:
            (Chain.Block_stm
               { Chain.Bstm.default_config with num_domains = 2 })
          ~genesis () );
      ( "validator-C (block-stm x4, rolling commit)",
        Chain.create
          ~executor:
            (Chain.Block_stm
               {
                 Chain.Bstm.default_config with
                 num_domains = 4;
                 rolling_commit = true;
               })
          ~genesis () );
    ]
  in
  List.iteri
    (fun i block ->
      Fmt.pr "block %d:@." (i + 1);
      List.iter
        (fun (name, chain) ->
          let c = Chain.execute_block chain block in
          Fmt.pr "  %-44s root=%Lx@." name c.Chain.state_root)
        replicas)
    blocks;
  (* Consensus check: no divergence between any pair. *)
  let chains = List.map snd replicas in
  let ok = ref true in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            match Chain.first_divergence a b with
            | None -> ()
            | Some h ->
                ok := false;
                Fmt.pr "DIVERGENCE between replicas %d and %d at height %d@."
                  i j h)
        chains)
    chains;
  Fmt.pr "consensus across %d replicas over %d blocks: %s@."
    (List.length chains) num_blocks
    (if !ok then "OK" else "BROKEN");
  if not !ok then exit 1
