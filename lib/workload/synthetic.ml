(** Synthetic workloads beyond p2p, for contention sweeps, ablations and
    property tests: hotspot counters (inherently sequential), independent
    transfers (perfectly parallel), Zipfian-skewed access, read-heavy
    analytics, and read-modify-write chains. All use the {!Ledger} location
    space so they run through every executor unchanged. *)

open Blockstm_kernel
open Ledger

type generated = {
  storage : Store.t;
  txns : (Loc.t, Value.t, int) Txn.t array;
  declared_writes : Loc.t array array;
}

(* ------------------------------------------------------------------------ *)

(** Every transaction increments the same global counter: a worst-case,
    fully sequential block (like a single hot DEX pool). Output: the value
    this transaction wrote. *)
let hotspot ~block_size : generated =
  let counter = balance 0 in
  let storage = genesis ~num_accounts:1 () in
  let txn _i : (Loc.t, Value.t, int) Txn.t =
   fun e ->
    let v = read_int e counter in
    e.write counter (Value.Int (v + 1));
    v + 1
  in
  {
    storage;
    txns = Array.init block_size txn;
    declared_writes = Array.make block_size [| counter |];
  }

(** Transaction [i] touches only account [i]: zero conflicts, perfect
    parallelism. *)
let independent ~block_size : generated =
  let storage = genesis ~num_accounts:block_size () in
  let txn i : (Loc.t, Value.t, int) Txn.t =
   fun e ->
    let b = read_int e (balance i) in
    let s = read_int e (seqno i) in
    e.write (balance i) (Value.Int (b + i));
    e.write (seqno i) (Value.Int (s + 1));
    b + i
  in
  {
    storage;
    txns = Array.init block_size txn;
    declared_writes =
      Array.init block_size (fun i -> [| balance i; seqno i |]);
  }

(** Read-modify-write over Zipfian-skewed accounts: tunable contention via
    [theta] (0 = uniform). Each transaction adds its index to one account's
    balance. *)
let zipfian ~block_size ~num_accounts ~theta ~seed : generated =
  let rng = Rng.create seed in
  let accts = Array.init block_size (fun _ -> Rng.zipf rng ~n:num_accounts ~theta) in
  let storage = genesis ~num_accounts () in
  let txn i : (Loc.t, Value.t, int) Txn.t =
   fun e ->
    let a = accts.(i) in
    let b = read_int e (balance a) in
    e.write (balance a) (Value.Int (b + i));
    b + i
  in
  {
    storage;
    txns = Array.init block_size txn;
    declared_writes = Array.init block_size (fun i -> [| balance accts.(i) |]);
  }

(** Mostly-read analytics: each transaction sums [reads] random balances and
    writes one result cell of its own. Conflicts only via the rare [writers]
    transactions that also update a random balance. *)
let read_heavy ~block_size ~num_accounts ~reads ~writer_every ~seed : generated
    =
  let rng = Rng.create seed in
  let plans =
    Array.init block_size (fun i ->
        let targets = Array.init reads (fun _ -> Rng.int rng num_accounts) in
        let write_target =
          if writer_every > 0 && i mod writer_every = 0 then
            Some (Rng.int rng num_accounts)
          else None
        in
        (targets, write_target))
  in
  let storage = genesis ~num_accounts:(num_accounts + block_size) () in
  let txn i : (Loc.t, Value.t, int) Txn.t =
   fun e ->
    let targets, write_target = plans.(i) in
    let sum = Array.fold_left (fun acc a -> acc + read_int e (balance a)) 0
        targets in
    (match write_target with
    | Some a ->
        let b = read_int e (balance a) in
        e.write (balance a) (Value.Int (b + 1))
    | None -> ());
    (* Result cell: account index num_accounts + i, private to this txn. *)
    e.write (balance (num_accounts + i)) (Value.Int sum);
    sum
  in
  {
    storage;
    txns = Array.init block_size txn;
    declared_writes =
      Array.init block_size (fun i ->
          let _, write_target = plans.(i) in
          let own = balance (num_accounts + i) in
          match write_target with
          | Some a -> [| balance a; own |]
          | None -> [| own |]);
  }

(** Dependency chains: transaction [i] reads account [i] and writes account
    [i+1] (mod n): every transaction depends on its predecessor's write once
    wrapped — long cascade stress for the scheduler. *)
let chain ~block_size : generated =
  let n = block_size in
  let storage = genesis ~num_accounts:(n + 1) () in
  let txn i : (Loc.t, Value.t, int) Txn.t =
   fun e ->
    let v = read_int e (balance i) in
    e.write (balance (i + 1)) (Value.Int (v + 1));
    v + 1
  in
  {
    storage;
    txns = Array.init block_size txn;
    declared_writes = Array.init block_size (fun i -> [| balance (i + 1) |]);
  }

(** Gas accounting workloads (paper §7: "if there is a single memory location
    for gas updates, it could make any block inherently sequential ... this
    issue is typically avoided by ... sharded implementation").

    [gas ~shards] runs otherwise-independent transactions that each also
    charge gas to a counter. [shards = 1] reproduces the pathology: every
    transaction reads and writes the same location. Larger [shards] spreads
    charges round-robin (a sharded gas meter); total gas is the sum over
    shards, checked by tests. Gas counters live on reserved accounts above
    the workload's own. *)
let gas ~block_size ~shards ~seed : generated =
  if shards < 1 then invalid_arg "Synthetic.gas: shards must be >= 1";
  let rng = Rng.create seed in
  let gas_costs = Array.init block_size (fun _ -> 1 + Rng.int rng 20) in
  let storage = genesis ~num_accounts:(block_size + shards) () in
  let gas_acct i = block_size + (i mod shards) in
  let txn i : (Loc.t, Value.t, int) Txn.t =
   fun e ->
    (* Independent payload: bump own account. *)
    let b = read_int e (balance i) in
    e.write (balance i) (Value.Int (b + 1));
    (* Gas charge: the contention point. *)
    let g = gas_acct i in
    let burned = read_int e (balance g) in
    e.write (balance g) (Value.Int (burned + gas_costs.(i)));
    burned + gas_costs.(i)
  in
  {
    storage;
    txns = Array.init block_size txn;
    declared_writes =
      Array.init block_size (fun i ->
          [| balance i; balance (gas_acct i) |]);
  }

(** Static access specs for {!gas}: every entry exact (the footprint is
    fully determined by the transaction index), so the block is perfectly
    lane-partitionable along the gas shards. *)
let gas_specs ~block_size ~shards : Loc.t Access_spec.t array =
  if shards < 1 then invalid_arg "Synthetic.gas_specs: shards must be >= 1";
  let e l = Access_spec.Exact l in
  Array.init block_size (fun i ->
      let locs = [ e (balance i); e (balance (block_size + (i mod shards))) ] in
      { Access_spec.reads = locs; writes = locs })

(** Lane of a location for the {!gas} workload: transaction [i]'s own
    account and its gas shard land in the same lane ([i mod shards], folded
    onto [lanes]), so with [lanes <= shards] every transaction is
    single-lane. *)
let gas_lane ~block_size ~shards ~lanes : Loc.t -> int =
  if lanes < 1 then invalid_arg "Synthetic.gas_lane: lanes must be >= 1";
  fun loc ->
    if Loc.is_global loc then 0
    else
      let acct = Loc.acct loc in
      if acct >= block_size then (acct - block_size) mod lanes
      else acct mod shards mod lanes

(** Write-set churn: each transaction writes a location chosen by the value
    it reads, so consecutive incarnations write {e different} locations —
    exercising the [wrote_new_location] path and ESTIMATE cleanup. *)
let churn ~block_size ~num_accounts ~seed : generated =
  let rng = Rng.create seed in
  let bases = Array.init block_size (fun _ -> Rng.int rng num_accounts) in
  let storage = genesis ~num_accounts:(num_accounts * 2) () in
  let txn i : (Loc.t, Value.t, int) Txn.t =
   fun e ->
    let a = bases.(i) in
    let v = read_int e (balance a) in
    (* Target depends on the value read: re-executions may move the write. *)
    let target = num_accounts + ((a + v) mod num_accounts) in
    let t = read_int e (balance target) in
    e.write (balance target) (Value.Int (t + 1));
    e.write (balance a) (Value.Int (v + 1));
    v + 1
  in
  {
    storage;
    txns = Array.init block_size txn;
    (* Declared writes are deliberately imperfect for churn (the target
       depends on runtime values); BOHM comparisons use other workloads. *)
    declared_writes = Array.init block_size (fun i -> [| balance bases.(i) |]);
  }
