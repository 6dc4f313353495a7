(** Peer-to-peer payment workloads: the paper's benchmark transactions
    (Section 4.1).

    Each transaction picks two distinct accounts and transfers a small
    amount. The {e standard} flavor performs exactly 21 reads and 4 writes
    per transaction; the {e simplified} flavor 12 reads and 4 writes —
    matching the Diem standard-library peer-to-peer scripts the paper
    measures. Reads beyond the account fields hit read-only global
    configuration entries (block time, chain id, gas schedule, ...), so the
    number of accounts alone controls the conflict rate: 2 accounts make the
    block inherently sequential, 10^4 accounts make it almost conflict-free.

    Transactions carry real assertions (sequence-number check, sufficient
    balance, frozen flags): any executor that violates sequential semantics
    produces [Failed] outputs or wrong balances, which the test suite
    detects. *)

open Blockstm_kernel
open Ledger

type flavor = Standard | Simplified

let flavor_name = function
  | Standard -> "standard"
  | Simplified -> "simplified"

(** Dynamic reads / writes per transaction, as in the paper. *)
let reads_per_txn = function Standard -> 21 | Simplified -> 12
let writes_per_txn (_ : flavor) = 4

type spec = {
  num_accounts : int;
  block_size : int;
  flavor : flavor;
  seed : int;
  work : int;
      (** Artificial per-transaction compute (spin iterations), to emulate
          VM interpretation cost in real-execution mode. 0 = none. *)
  lanes_hint : int;
      (** Lane-skew knob (DESIGN.md §16): when [> 1], accounts are treated
          as [lanes_hint] contiguous ranges and each transfer stays inside
          one range unless the [cross_fraction] coin says otherwise. [1]
          (default) reproduces the unconstrained draw bit-for-bit. *)
  cross_fraction : float;
      (** Probability a transfer straddles two lanes (requires
          [lanes_hint > 1]). *)
}

(** Transfer amounts are drawn uniformly from [1..amount_max]. *)
let amount_max = 100

let default_spec =
  {
    num_accounts = 1000;
    block_size = 1000;
    flavor = Standard;
    seed = 42;
    work = 0;
    lanes_hint = 1;
    cross_fraction = 0.;
  }

(** One laned transfer pair over [num_accounts] accounts cut into [lanes]
    contiguous ranges: pick a lane uniformly and keep the pair inside it,
    or — with probability [cross_fraction] — span two distinct lanes. Only
    drawn when [lanes > 1], so an unlaned draw's RNG stream is untouched. *)
let draw_laned_pair rng ~num_accounts ~lanes ~cross_fraction : int * int =
  let lo l = l * num_accounts / lanes in
  let size l = lo (l + 1) - lo l in
  if cross_fraction > 0. && Rng.float rng < cross_fraction then begin
    let l1 = Rng.int rng lanes in
    let l2 = ref (Rng.int rng lanes) in
    while !l2 = l1 do
      l2 := Rng.int rng lanes
    done;
    (lo l1 + Rng.int rng (size l1), lo !l2 + Rng.int rng (size !l2))
  end
  else begin
    let l = Rng.int rng lanes in
    let s, r = Rng.distinct_pair rng (size l) in
    (lo l + s, lo l + r)
  end

type transfer = { sender : int; recipient : int; amount : int; exp_seqno : int }

type t = {
  spec : spec;
  storage : Store.t;
  txns : (Loc.t, Value.t, int) Txn.t array;
  declared_writes : Loc.t array array;  (** Perfect write-sets (for BOHM). *)
  transfers : transfer array;
}

(* Deterministic artificial compute; survives the optimizer via
   [Sys.opaque_identity]. *)
let spin n =
  if n > 0 then begin
    let x = ref n in
    for i = 1 to n do
      x := !x lxor (i * 0x9E3779B1)
    done;
    ignore (Sys.opaque_identity !x)
  end

(* The standard p2p script: 21 reads, 4 writes. Read breakdown:
   13 global-config reads (prologue verification: block time, chain id, gas
   schedule, ...), then sender balance/seqno/frozen/auth_key and recipient
   balance/seqno/frozen/exists. *)
let standard_txn ~work { sender; recipient; amount; exp_seqno } :
    (Loc.t, Value.t, int) Txn.t =
 fun e ->
  let cfg = ref 0 in
  for g = 0 to 12 do
    cfg := !cfg + read_int e (global g)
  done;
  check (!cfg > 0) "bad on-chain config";
  let s_frozen = read_bool e (frozen sender) in
  check (not s_frozen) "sender frozen";
  (match e.read (auth_key sender) with
  | Some (Value.Bytes _) -> ()
  | _ -> raise (Invariant_violation "sender auth key missing"));
  let s_seq = read_int e (seqno sender) in
  check (s_seq = exp_seqno) "sequence number mismatch";
  let s_bal = read_int e (balance sender) in
  check (s_bal >= amount) "insufficient balance";
  let r_exists = read_bool e (exists recipient) in
  check r_exists "recipient does not exist";
  let r_frozen = read_bool e (frozen recipient) in
  check (not r_frozen) "recipient frozen";
  let r_bal = read_int e (balance recipient) in
  let r_seq = read_int e (seqno recipient) in
  spin work;
  e.write (balance sender) (Value.Int (s_bal - amount));
  e.write (seqno sender) (Value.Int (s_seq + 1));
  e.write (balance recipient) (Value.Int (r_bal + amount));
  e.write (seqno recipient) (Value.Int r_seq);
  s_bal - amount

(* The simplified p2p script: 12 reads, 4 writes (6 global-config reads, no
   auth-key / existence verification). *)
let simplified_txn ~work { sender; recipient; amount; exp_seqno } :
    (Loc.t, Value.t, int) Txn.t =
 fun e ->
  let cfg = ref 0 in
  for g = 0 to 5 do
    cfg := !cfg + read_int e (global g)
  done;
  check (!cfg > 0) "bad on-chain config";
  let s_frozen = read_bool e (frozen sender) in
  check (not s_frozen) "sender frozen";
  let s_seq = read_int e (seqno sender) in
  check (s_seq = exp_seqno) "sequence number mismatch";
  let s_bal = read_int e (balance sender) in
  check (s_bal >= amount) "insufficient balance";
  let r_frozen = read_bool e (frozen recipient) in
  check (not r_frozen) "recipient frozen";
  let r_bal = read_int e (balance recipient) in
  let r_seq = read_int e (seqno recipient) in
  spin work;
  e.write (balance sender) (Value.Int (s_bal - amount));
  e.write (seqno sender) (Value.Int (s_seq + 1));
  e.write (balance recipient) (Value.Int (r_bal + amount));
  e.write (seqno recipient) (Value.Int r_seq);
  s_bal - amount

let txn_writes { sender; recipient; _ } =
  [| balance sender; seqno sender; balance recipient; seqno recipient |]

(** Static access specification of one transfer (DESIGN.md §15): the p2p
    scripts touch exactly the two accounts' fields plus read-only config
    entries, all known at block-formation time, so every entry is [Exact] —
    transfers over disjoint account pairs are provably independent. *)
let txn_spec (flavor : flavor) { sender; recipient; _ } :
    Loc.t Access_spec.t =
  let e l = Access_spec.Exact l in
  let globals n = List.init n (fun g -> e (global g)) in
  let reads =
    match flavor with
    | Standard ->
        globals 13
        @ [
            e (frozen sender); e (auth_key sender); e (seqno sender);
            e (balance sender); e (exists recipient); e (frozen recipient);
            e (balance recipient); e (seqno recipient);
          ]
    | Simplified ->
        globals 6
        @ [
            e (frozen sender); e (seqno sender); e (balance sender);
            e (frozen recipient); e (balance recipient); e (seqno recipient);
          ]
  in
  {
    Access_spec.reads;
    writes =
      [
        e (balance sender); e (seqno sender); e (balance recipient);
        e (seqno recipient);
      ];
  }

let txn_specs (t : t) : Loc.t Access_spec.t array =
  Array.map (txn_spec t.spec.flavor) t.transfers

(* --- Hotspot flavor: commutative payments into few hot accounts --------- *)

(* The hotspot script models fee sinks / bridge vaults / popular AMM pools:
   every transfer lands in one of a handful of hot accounts. Balance updates
   go through [Txn.effects.delta] (bounded add/sub), so the same workload
   runs in both engine modes: with [delta_ops] off the deltas fall back to
   read-modify-write and the hot balances serialize the block (the
   contention cliff); with [delta_ops] on they commute. *)

type hotspot_spec = {
  h_num_accounts : int;  (** Total accounts; cold senders are drawn here. *)
  h_hot_accounts : int;  (** Accounts [0, h_hot_accounts) receive everything. *)
  h_block_size : int;
  h_seed : int;
  h_work : int;  (** Spin iterations, as in {!spec.work}. *)
}

let default_hotspot_spec =
  {
    h_num_accounts = 1000;
    h_hot_accounts = 2;
    h_block_size = 1000;
    h_seed = 42;
    h_work = 0;
  }

type hotspot = {
  h_spec : hotspot_spec;
  h_storage : Store.t;
  h_txns : (Loc.t, Value.t, int) Txn.t array;
  h_declared_writes : Loc.t array array;
  h_transfers : transfer array;
}

(* 6 global-config reads, sender seqno check + bump, then two bounded
   balance deltas: sub on the cold sender (floor 0 = the insufficient-funds
   check), add on the hot recipient. Output is the transferred amount —
   identical whichever path the engine routes the deltas through. *)
let hotspot_txn ~work { sender; recipient; amount; exp_seqno } :
    (Loc.t, Value.t, int) Txn.t =
 fun e ->
  let cfg = ref 0 in
  for g = 0 to 5 do
    cfg := !cfg + read_int e (global g)
  done;
  check (!cfg > 0) "bad on-chain config";
  let s_seq = read_int e (seqno sender) in
  check (s_seq = exp_seqno) "sequence number mismatch";
  spin work;
  e.write (seqno sender) (Value.Int (s_seq + 1));
  (match e.delta (balance sender) (Delta.sub amount) with
  | Txn.Applied -> ()
  | Txn.Bounds_violation -> raise (Invariant_violation "insufficient balance")
  | Txn.Not_a_counter -> raise (Invariant_violation "sender balance corrupt"));
  (match e.delta (balance recipient) (Delta.add amount) with
  | Txn.Applied -> ()
  | Txn.Bounds_violation -> raise (Invariant_violation "recipient overflow")
  | Txn.Not_a_counter ->
      raise (Invariant_violation "recipient balance corrupt"));
  amount

let hotspot_txn_writes { sender; recipient; _ } =
  [| balance sender; seqno sender; balance recipient |]

(** Hotspot analogue of {!txn_spec}. The balance deltas are declared
    read+write — sound for both delta routes the engine may take (the
    read-modify-write fallback and the delta-entry publication). *)
let hotspot_txn_spec { sender; recipient; _ } : Loc.t Access_spec.t =
  let e l = Access_spec.Exact l in
  {
    Access_spec.reads =
      List.init 6 (fun g -> e (global g))
      @ [ e (seqno sender); e (balance sender); e (balance recipient) ];
    writes = [ e (seqno sender); e (balance sender); e (balance recipient) ];
  }

let hotspot_txn_specs (h : hotspot) : Loc.t Access_spec.t array =
  Array.map hotspot_txn_spec h.h_transfers

(** [nblocks] consecutive blocks of commutative payments into the hot
    accounts, sender sequence numbers threaded across the stream. All
    blocks share one genesis. *)
let generate_hotspot_stream (spec : hotspot_spec) ~(nblocks : int) :
    hotspot list =
  if spec.h_hot_accounts < 1 then
    invalid_arg "P2p.generate_hotspot_stream: need at least 1 hot account";
  if spec.h_num_accounts <= spec.h_hot_accounts then
    invalid_arg "P2p.generate_hotspot_stream: need cold accounts to send from";
  if nblocks < 1 then invalid_arg "P2p.generate_hotspot_stream: nblocks >= 1";
  let rng = Rng.create spec.h_seed in
  let ncold = spec.h_num_accounts - spec.h_hot_accounts in
  let next_seqno = Array.make spec.h_num_accounts 0 in
  let storage = genesis ~num_accounts:spec.h_num_accounts () in
  List.init nblocks (fun _ ->
      let transfers =
        Array.init spec.h_block_size (fun _ ->
            let sender = spec.h_hot_accounts + Rng.int rng ncold in
            let recipient = Rng.int rng spec.h_hot_accounts in
            let amount = 1 + Rng.int rng amount_max in
            let exp_seqno = next_seqno.(sender) in
            next_seqno.(sender) <- exp_seqno + 1;
            { sender; recipient; amount; exp_seqno })
      in
      {
        h_spec = spec;
        h_storage = storage;
        h_txns = Array.map (hotspot_txn ~work:spec.h_work) transfers;
        h_declared_writes = Array.map hotspot_txn_writes transfers;
        h_transfers = transfers;
      })

(** One block of hotspot payments: the first block of
    {!generate_hotspot_stream}. *)
let generate_hotspot (spec : hotspot_spec) : hotspot =
  List.hd (generate_hotspot_stream spec ~nblocks:1)

(** Generate [nblocks] consecutive blocks of [spec] with sequence numbers
    threaded across the whole stream: block [k+1]'s transfers expect the
    seqnos block [k] left behind, so the blocks only execute correctly {e in
    order against the evolving state} — exactly what a block stream must
    preserve. All blocks share one genesis ([(List.hd l).storage]);
    [txns]/[transfers]/[declared_writes] differ per block. *)
let generate_stream (spec : spec) ~(nblocks : int) : t list =
  if spec.num_accounts < 2 then
    invalid_arg "P2p.generate_stream: need at least 2 accounts";
  if nblocks < 1 then invalid_arg "P2p.generate_stream: nblocks >= 1";
  if spec.lanes_hint < 1 then
    invalid_arg "P2p.generate_stream: lanes_hint must be >= 1";
  if spec.cross_fraction < 0. || spec.cross_fraction > 1. then
    invalid_arg "P2p.generate_stream: cross_fraction must be in [0, 1]";
  if spec.cross_fraction > 0. && spec.lanes_hint < 2 then
    invalid_arg "P2p.generate_stream: cross_fraction requires lanes_hint > 1";
  if spec.lanes_hint > 1 && spec.num_accounts < 2 * spec.lanes_hint then
    invalid_arg "P2p.generate_stream: need >= 2 accounts per lane";
  let rng = Rng.create spec.seed in
  let next_seqno = Array.make spec.num_accounts 0 in
  let storage = genesis ~num_accounts:spec.num_accounts () in
  let mk =
    match spec.flavor with
    | Standard -> standard_txn ~work:spec.work
    | Simplified -> simplified_txn ~work:spec.work
  in
  List.init nblocks (fun _ ->
      let transfers =
        Array.init spec.block_size (fun _ ->
            let sender, recipient =
              if spec.lanes_hint > 1 then
                draw_laned_pair rng ~num_accounts:spec.num_accounts
                  ~lanes:spec.lanes_hint ~cross_fraction:spec.cross_fraction
              else Rng.distinct_pair rng spec.num_accounts
            in
            let amount = 1 + Rng.int rng amount_max in
            let exp_seqno = next_seqno.(sender) in
            next_seqno.(sender) <- exp_seqno + 1;
            { sender; recipient; amount; exp_seqno })
      in
      {
        spec;
        storage;
        txns = Array.map mk transfers;
        declared_writes = Array.map txn_writes transfers;
        transfers;
      })

(** One block of transfers: the first block of {!generate_stream}. *)
let generate (spec : spec) : t = List.hd (generate_stream spec ~nblocks:1)

let balance_delta_of_transfers ~num_accounts transfers : int array =
  let delta = Array.make num_accounts 0 in
  Array.iter
    (fun tr ->
      delta.(tr.sender) <- delta.(tr.sender) - tr.amount;
      delta.(tr.recipient) <- delta.(tr.recipient) + tr.amount)
    transfers;
  delta

(** Total amount each account should gain/lose — used by conservation
    tests. *)
let expected_balance_delta (t : t) : int array =
  balance_delta_of_transfers ~num_accounts:t.spec.num_accounts t.transfers

let expected_hotspot_balance_delta (h : hotspot) : int array =
  balance_delta_of_transfers ~num_accounts:h.h_spec.h_num_accounts
    h.h_transfers
