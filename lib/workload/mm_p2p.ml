(** Peer-to-peer payments executed by the real MiniMove VM (as opposed to
    {!P2p}'s hand-written OCaml transactions): the workload behind the
    [vm-cost] experiment, comparing the tree-walk interpreter against the
    compiled VM on the same scripts.

    Two script flavors mirror {!P2p.flavor}:
    - {e standard} — {!Blockstm_minimove.Stdlib_contracts.coin_source}:
      prologue verification against on-chain config plus the transfer
      (7 reads, 3 writes);
    - {e simplified} —
      {!Blockstm_minimove.Stdlib_contracts.coin_simplified_source}: just
      the transfer (4 reads, 3 writes).

    Accounts use MiniMove addresses [1..num_accounts] (address 0 holds the
    global config), so the generated [sender]/[recipient] fields in the
    reused {!P2p.transfer} records are 1-based here. The script is parsed,
    checked and compiled {e once per block} and shared read-only by every
    transaction, incarnation and domain; the compiled VM's interned
    location-key tables are sized to the account range so the per-access
    read/write keys are preallocated. *)

open Blockstm_minimove
open Mv_value

type spec = {
  num_accounts : int;
  block_size : int;
  flavor : P2p.flavor;
  seed : int;
  vm : Runtime.vm;  (** Which MiniMove VM executes the scripts. *)
}

let default_spec =
  {
    num_accounts = 1000;
    block_size = 1000;
    flavor = P2p.Standard;
    seed = 42;
    vm = Runtime.Compiled;
  }

type t = {
  spec : spec;
  storage : Runtime.Store.t;
  script : Runtime.script;
  txns : (Loc.t, Value.t, Value.t) Blockstm_kernel.Txn.t array;
  transfers : P2p.transfer array;
  specs : Loc.t Blockstm_kernel.Access_spec.t array;
      (** Per-transaction static access specs, inferred from the script's
          AST by {!Access.infer} and specialized to each transfer's
          arguments (DESIGN.md §15). Sound over-approximations of the
          dynamic read/write sets. *)
}

let source_of_flavor = function
  | P2p.Standard -> Stdlib_contracts.coin_source
  | P2p.Simplified -> Stdlib_contracts.coin_simplified_source

(** Generate a block of MiniMove p2p transfers. Same shape as
    {!P2p.generate}: distinct sender/recipient pairs, amounts in
    [1..{!P2p.amount_max}], per-sender sequence numbers matching sequential
    execution order. *)
let generate (spec : spec) : t =
  let rng = Rng.create spec.seed in
  let script =
    Runtime.load ~vm:spec.vm
      ~intern_addrs:(spec.num_accounts + 1)
      (source_of_flavor spec.flavor)
  in
  let next_seqno = Array.make (spec.num_accounts + 1) 0 in
  let transfers =
    Array.init spec.block_size (fun _ ->
        let s, r = Rng.distinct_pair rng spec.num_accounts in
        let sender = s + 1 and recipient = r + 1 in
        let exp_seqno = next_seqno.(sender) in
        next_seqno.(sender) <- exp_seqno + 1;
        {
          P2p.sender;
          recipient;
          amount = 1 + Rng.int rng P2p.amount_max;
          exp_seqno;
        })
  in
  let txns =
    Array.map
      (fun { P2p.sender; recipient; amount; exp_seqno } ->
        Runtime.script_txn script
          ~args:
            [
              Value.Addr sender;
              Value.Addr recipient;
              Value.Int amount;
              Value.Int exp_seqno;
            ])
      transfers
  in
  let storage = Runtime.coin_genesis ~num_accounts:spec.num_accounts () in
  let specs =
    (* One inference pass over the source; specialization per transfer is a
       cheap substitution of address arguments into [Param_addr] entries. *)
    let prog = Parser.parse (source_of_flavor spec.flavor) in
    match Access.infer_func prog "main" with
    | None -> invalid_arg "Mm_p2p.generate: script has no main function"
    | Some fspec ->
        Array.map
          (fun { P2p.sender; recipient; amount; exp_seqno } ->
            Access.specialize fspec
              ~args:
                [
                  Value.Addr sender;
                  Value.Addr recipient;
                  Value.Int amount;
                  Value.Int exp_seqno;
                ])
          transfers
  in
  { spec; storage; script; txns; transfers; specs }
