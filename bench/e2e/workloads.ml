(** The benchmark's four workloads: the traffic each sends and the loop that
    sends it. Every parameter is a constant here; a run chooses only the
    workload, the seed, the length of the timed part and the smoke
    scale. *)

open Blockstm_workload
open Blockstm_minimove
module Lb = Drive.Make (Ledger.Loc) (Ledger.Value)
module Mb = Drive.Make (Mv_value.Loc) (Mv_value.Value)

let block_size = 1000
let warmup_blocks ~smoke = if smoke then 1 else 20

(** The transfer draw of [P2p.generate_stream] (standard flavour: uniform
    distinct pair, amount 1..100, sender sequence numbers threaded across
    blocks), produced one block at a time so a run holds only the block in
    flight. Accounts are numbered from [base]: MiniMove keeps address 0 for
    on-chain config, so its first block equals [Mm_p2p.generate]'s. *)
let transfers ~accounts ~base seed =
  let rng = Rng.create seed and next_seqno = Array.make (accounts + base) 0 in
  fun () ->
    Array.init block_size (fun _ ->
        let s, r = Rng.distinct_pair rng accounts in
        let sender = s + base and recipient = r + base in
        let amount = 1 + Rng.int rng 100 in
        let exp_seqno = next_seqno.(sender) in
        next_seqno.(sender) <- exp_seqno + 1;
        { P2p.sender; recipient; amount; exp_seqno })

(** The paper's standard p2p transaction (21 reads, 4 writes, no extra
    compute) between the first [accounts] accounts of a 10^4-account
    [Ledger.genesis]. Both p2p workloads share that state, so set-up is the
    same size on both; over a 10-account state it would be a 0.3 ms
    measurement of page faults, whose median moved by 44% between two
    10-run batches. *)
let p2p ~accounts ~smoke : int Lb.closed =
  {
    c_setup =
      (fun () ->
        ( Ledger.genesis ~num_accounts:10_000 (),
          fun seed ->
            let gen = transfers ~accounts ~base:0 seed in
            fun () -> Array.map (P2p.standard_txn ~work:0) (gen ()) ));
    c_hash = Fun.id;
    c_warmup = warmup_blocks ~smoke;
  }

(** The same transfers as MiniMove [coin_source] scripts on the compiled VM;
    set-up includes loading (parsing, checking, compiling) the script. *)
let coin ~accounts ~smoke : Mv_value.Value.t Mb.closed =
  {
    c_setup =
      (fun () ->
        let genesis = Runtime.coin_genesis ~num_accounts:accounts () in
        let script =
          Runtime.load ~vm:Runtime.Compiled ~intern_addrs:(accounts + 1)
            Stdlib_contracts.coin_source
        in
        ( genesis,
          fun seed ->
            let gen = transfers ~accounts ~base:1 seed in
            fun () ->
              Array.map
                (fun { P2p.sender; recipient; amount; exp_seqno } ->
                  Runtime.script_txn script
                    ~args:
                      Mv_value.Value.
                        [ Addr sender; Addr recipient; Int amount; Int exp_seqno ])
                (gen ()) ));
    c_hash = Mv_value.Value.hash;
    c_warmup = warmup_blocks ~smoke;
  }

(** [Bigstate.transfers]' transaction (2 reads, 2 writes): move [1 + i mod 7]
    units between two balances; the output is the sender's new balance. *)
let big_transfer ~src ~dst i : (Ledger.Loc.t, Ledger.Value.t, int) Blockstm_kernel.Txn.t =
 fun e ->
  let amount = 1 + (i mod 7) in
  let sb = Ledger.read_int e (Ledger.balance src) in
  let db = Ledger.read_int e (Ledger.balance dst) in
  e.write (Ledger.balance src) (Ledger.Value.Int (sb - amount));
  e.write (Ledger.balance dst) (Ledger.Value.Int (db + amount));
  sb - amount

(** Uniform transfers over a lean [Bigstate] genesis of 10^6 accounts (10^4
    at smoke scale), arriving as a Poisson process and cut into blocks by
    the mempool. *)
let big_poisson ~smoke : int Lb.open_ =
  let accounts = if smoke then 10_000 else 1_000_000 in
  {
    o_genesis = (fun () -> Bigstate.lean_genesis ~num_accounts:accounts ());
    o_arrival =
      (fun rng i ->
        let src = Rng.int rng accounts in
        let rec dst () =
          let d = Rng.int rng accounts in
          if d = src then dst () else d
        in
        big_transfer ~src ~dst:(dst ()) i);
    o_hash = Fun.id;
    o_rate = 20_000.;
    o_warmup_s = (if smoke then 0.1 else 1.0);
    o_max_txns = block_size;
    o_deadline_ns = 10_000_000;
  }

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
type t = {
  name : string;
  run :
    smoke:bool -> seconds:float -> seed:int -> trace:string option -> Drive.outcome;
}

(* The timed part lasts [seconds]. Set-up is timed 15 times, or 5 times on
   the 10^6-account state, whose set-up takes about a second: its first
   set-up pays the page faults of a fresh heap, and the median of five lands
   past them. Smoke scale: 0.2 s and one set-up. *)
let scale ~reps ~smoke ~seconds ~trace : Drive.scale =
  if smoke then { seconds = 0.2; setup_reps = 1; trace }
  else { seconds; setup_reps = reps; trace }

let all =
  [
    {
      name = "p2p-low";
      run =
        (fun ~smoke ~seconds ~seed ~trace ->
          Lb.run_closed (p2p ~accounts:10_000 ~smoke)
            (scale ~reps:15 ~smoke ~seconds ~trace)
            ~seed);
    };
    {
      name = "p2p-hot";
      run =
        (fun ~smoke ~seconds ~seed ~trace ->
          Lb.run_closed (p2p ~accounts:10 ~smoke)
            (scale ~reps:15 ~smoke ~seconds ~trace)
            ~seed);
    };
    {
      name = "coin-mm";
      run =
        (fun ~smoke ~seconds ~seed ~trace ->
          Mb.run_closed (coin ~accounts:10_000 ~smoke)
            (scale ~reps:15 ~smoke ~seconds ~trace)
            ~seed);
    };
    {
      name = "big-poisson";
      run =
        (fun ~smoke ~seconds ~seed ~trace ->
          Lb.run_open
            (big_poisson ~smoke)
            (scale ~reps:5 ~smoke ~seconds ~trace)
            ~seed);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
