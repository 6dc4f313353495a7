(** Large-state generators: blocks over 10^5–10^6-account ledgers for the
    state-scale experiment (DESIGN.md §13).

    At these account counts the block's write set is a vanishing fraction of
    the state, which is exactly the regime where a whole-state root fold
    dominates block latency and the incremental Merkle substrate pays off.
    Genesis here is deliberately lean — one balance entry per account rather
    than {!Ledger.genesis}'s five fields — so a million-account state stays
    around one million bindings. *)

open Blockstm_kernel
open Ledger

type generated = {
  storage : Store.t;
  txns : (Loc.t, Value.t, int) Txn.t array;
  declared_writes : Loc.t array array;
  specs : Loc.t Access_spec.t array;
      (** All-exact static footprints (each transfer touches exactly two
          balances) — the partitioning oracle for sharded execution lanes. *)
}

(** One funded balance entry per account (no seqno/frozen/auth-key tiers, no
    globals): the minimal state that still exercises per-account hashing at
    scale. *)
let lean_genesis ?(initial_balance = Ledger.default_initial_balance)
    ~num_accounts () : Store.t =
  let store = Store.create ~initial_size:(num_accounts + 64) () in
  for a = 0 to num_accounts - 1 do
    Store.set store (balance a) (Value.Int initial_balance)
  done;
  store

(** A block of two-party transfers over a [num_accounts]-sized state, sender
    and receiver drawn uniformly. With [lanes > 1] each pair is drawn by
    {!P2p.draw_laned_pair}: inside one of [lanes] contiguous account ranges
    unless the [cross_fraction] coin flips. Each transaction moves
    [1 + i mod 7] units; the output is the sender's post-balance. *)
let transfers ?(lanes = 1) ?(cross_fraction = 0.) ~block_size ~num_accounts
    ~seed () : generated =
  if num_accounts < 2 then invalid_arg "Bigstate.transfers: need >= 2 accounts";
  if lanes < 1 then invalid_arg "Bigstate.transfers: lanes must be >= 1";
  if cross_fraction < 0. || cross_fraction > 1. then
    invalid_arg "Bigstate.transfers: cross_fraction must be in [0, 1]";
  if cross_fraction > 0. && lanes < 2 then
    invalid_arg "Bigstate.transfers: cross_fraction requires lanes > 1";
  if lanes > 1 && num_accounts < 2 * lanes then
    invalid_arg "Bigstate.transfers: need >= 2 accounts per lane";
  let rng = Rng.create seed in
  let pairs =
    Array.init block_size (fun _ ->
        if lanes > 1 then
          P2p.draw_laned_pair rng ~num_accounts ~lanes ~cross_fraction
        else
          let src = Rng.int rng num_accounts in
          let dst = ref (Rng.int rng num_accounts) in
          while !dst = src do
            dst := Rng.int rng num_accounts
          done;
          (src, !dst))
  in
  let storage = lean_genesis ~num_accounts () in
  let txn i : (Loc.t, Value.t, int) Txn.t =
   fun e ->
    let src, dst = pairs.(i) in
    let amount = 1 + (i mod 7) in
    let sb = read_int e (balance src) in
    let db = read_int e (balance dst) in
    e.write (balance src) (Value.Int (sb - amount));
    e.write (balance dst) (Value.Int (db + amount));
    sb - amount
  in
  {
    storage;
    txns = Array.init block_size txn;
    declared_writes =
      Array.init block_size (fun i ->
          let src, dst = pairs.(i) in
          [| balance src; balance dst |]);
    specs =
      Array.init block_size (fun i ->
          let src, dst = pairs.(i) in
          let locs =
            [ Access_spec.Exact (balance src); Access_spec.Exact (balance dst) ]
          in
          { Access_spec.reads = locs; writes = locs });
  }
