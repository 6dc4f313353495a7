(** Canonical executor instantiations over the MiniMove location/value
    types, so contracts, examples and tests all share one set of applied
    functors (and hence compatible types).

    Also provides genesis-state builders for the stdlib contracts. *)

open Mv_value

module Store = Blockstm_storage.Memstore.Make (Loc) (Value)
module Bstm = Blockstm_core.Block_stm.Make (Loc) (Value)
module Seq = Blockstm_baselines.Sequential.Make (Loc) (Value)
module BohmX = Blockstm_baselines.Bohm.Make (Loc) (Value)
module LitmX = Blockstm_baselines.Litm.Make (Loc) (Value)

let loc ~addr ~resource = Loc.make ~addr ~resource

(** {2 VM selection}

    Workloads and tools pick the VM once per block; both VMs run the same
    checked AST with identical observable behaviour (see {!Compile}). *)

type vm = Tree_walk | Compiled

let vm_name = function Tree_walk -> "tree-walk" | Compiled -> "compiled"

let vm_of_string = function
  | "tree-walk" | "tree_walk" | "interp" -> Some Tree_walk
  | "compiled" | "closure" -> Some Compiled
  | _ -> None

(** A script loaded for one of the two VMs. *)
type script =
  | S_interp of Interp.compiled
  | S_compiled of Compile.compiled

(** Parse, check and load [src] for the chosen VM. [vm] (default
    [Compiled]) selects the execution engine: [Tree_walk] runs the checked
    AST directly through {!Interp} (simpler, slower — the reference
    semantics), [Compiled] lowers it once through {!Compile} into closure
    code shared read-only by every incarnation and domain. Both produce
    identical outputs, read/write/delta logs and gas at every effect point;
    the vm-cost experiment and the differential test suite exercise the
    pair against each other. [intern_addrs] sizes the compiled VM's
    interned location-key tables (ignored by [Tree_walk]); workloads pass
    their account count so every hot key is preallocated. *)
let load ?(vm = Compiled) ?intern_addrs (src : string) : script =
  match vm with
  | Tree_walk -> S_interp (Interp.compile src)
  | Compiled -> S_compiled (Compile.compile ?intern_addrs src)

(** Package a loaded script as a transaction for any executor. *)
let script_txn ?entry ?gas_limit (s : script) ~args :
    (Loc.t, Value.t, Value.t) Blockstm_kernel.Txn.t =
  match s with
  | S_interp c -> Interp.txn ?entry ?gas_limit c ~args
  | S_compiled c -> Compile.txn ?entry ?gas_limit c ~args

(** Transaction variant whose output is [(result, gas_used)]. *)
let script_txn_with_gas ?entry ?gas_limit (s : script) ~args :
    (Loc.t, Value.t, Value.t * int) Blockstm_kernel.Txn.t =
  match s with
  | S_interp c -> Interp.txn_with_gas ?entry ?gas_limit c ~args
  | S_compiled c -> Compile.txn_with_gas ?entry ?gas_limit c ~args

(** Genesis for the {!Stdlib_contracts.coin_source} contract: on-chain
    config at address 0, [num_accounts] funded accounts (addresses 1..n). *)
let coin_genesis ?(initial_balance = 1_000_000_000) ~num_accounts () : Store.t
    =
  let store = Store.create ~initial_size:((num_accounts * 2) + 16) () in
  Store.set store
    (loc ~addr:0 ~resource:"Config")
    (Value.Struct
       ("Config", [ ("chain_id", Value.Int 1); ("block_time", Value.Int 1719) ]));
  Store.set store
    (loc ~addr:0 ~resource:"GasSchedule")
    (Value.Struct ("GasSchedule", [ ("unit_price", Value.Int 1) ]));
  for a = 1 to num_accounts do
    Store.set store
      (loc ~addr:a ~resource:"Coin")
      (Value.Struct ("Coin", [ ("value", Value.Int initial_balance) ]));
    Store.set store
      (loc ~addr:a ~resource:"Account")
      (Value.Struct
         ("Account", [ ("seq", Value.Int 0); ("frozen", Value.Bool false) ]))
  done;
  store

(** Genesis for the auction contract: an open auction at [auction_house]
    plus funded bidder accounts (reuses the coin layout). *)
let auction_genesis ?(initial_balance = 1_000_000_000) ~num_bidders
    ~auction_house () : Store.t =
  let store = coin_genesis ~initial_balance ~num_accounts:num_bidders () in
  Store.set store
    (loc ~addr:auction_house ~resource:"Auction")
    (Value.Struct
       ( "Auction",
         [
           ("highest_bid", Value.Int 0);
           ("highest_bidder", Value.Addr 0);
           ("closed", Value.Bool false);
         ] ));
  store

(** Genesis for the AMM contract: a pool with the given reserves plus funded
    trader accounts. *)
let amm_genesis ?(initial_balance = 1_000_000_000) ?(reserve1 = 10_000_000)
    ?(reserve2 = 10_000_000) ~num_traders ~pool () : Store.t =
  let store = coin_genesis ~initial_balance ~num_accounts:num_traders () in
  Store.set store
    (loc ~addr:pool ~resource:"Pool")
    (Value.Struct
       ( "Pool",
         [ ("reserve1", Value.Int reserve1); ("reserve2", Value.Int reserve2) ]
       ));
  store

(** Genesis for the {!Stdlib_contracts.vault_source} contract: bare-integer
    [Vault] balances (the aggregator's operand type) for [num_accounts]
    payers (addresses 1..n) plus an empty treasury vault, and the usual
    [Account] records carrying sequence numbers. *)
let vault_genesis ?(initial_balance = 1_000_000_000) ~num_accounts ~treasury
    () : Store.t =
  let store = Store.create ~initial_size:((num_accounts * 2) + 16) () in
  for a = 1 to num_accounts do
    Store.set store (loc ~addr:a ~resource:"Vault") (Value.Int initial_balance);
    Store.set store
      (loc ~addr:a ~resource:"Account")
      (Value.Struct
         ("Account", [ ("seq", Value.Int 0); ("frozen", Value.Bool false) ]))
  done;
  Store.set store (loc ~addr:treasury ~resource:"Vault") (Value.Int 0);
  store

(** Genesis for the NFT registry contract. *)
let nft_genesis ~num_minters ~registry () : Store.t =
  let store = coin_genesis ~num_accounts:num_minters () in
  Store.set store
    (loc ~addr:registry ~resource:"Registry")
    (Value.Struct ("Registry", [ ("next_id", Value.Int 0) ]));
  store
