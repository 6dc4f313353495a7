(** Tests for the workload generators: the p2p transactions must have
    exactly the read/write footprint the paper specifies, perfect declared
    write-sets, and conservation invariants. *)

open Blockstm_workload

let profile spec =
  let w = P2p.generate spec in
  (w, Harness.Prof.run ~storage:(Ledger.Store.reader w.storage) w.txns)

let test_standard_footprint () =
  let _, profiles =
    profile { P2p.default_spec with flavor = Standard; block_size = 50 }
  in
  Array.iter
    (fun (p : Harness.Prof.txn_profile) ->
      Alcotest.(check int) "21 reads" 21 p.reads;
      Alcotest.(check int) "4 writes" 4 p.writes)
    profiles

let test_simplified_footprint () =
  let _, profiles =
    profile { P2p.default_spec with flavor = Simplified; block_size = 50 }
  in
  Array.iter
    (fun (p : Harness.Prof.txn_profile) ->
      Alcotest.(check int) "12 reads" 12 p.reads;
      Alcotest.(check int) "4 writes" 4 p.writes)
    profiles

let test_footprint_constants () =
  Alcotest.(check int) "standard reads" 21 (P2p.reads_per_txn Standard);
  Alcotest.(check int) "simplified reads" 12 (P2p.reads_per_txn Simplified);
  Alcotest.(check int) "writes" 4 (P2p.writes_per_txn Standard)

let test_deterministic_generation () =
  let spec = { P2p.default_spec with seed = 123; block_size = 100 } in
  let a = P2p.generate spec and b = P2p.generate spec in
  Array.iteri
    (fun i (ta : P2p.transfer) ->
      let tb = b.transfers.(i) in
      Alcotest.(check int) "sender" ta.sender tb.sender;
      Alcotest.(check int) "recipient" ta.recipient tb.recipient;
      Alcotest.(check int) "amount" ta.amount tb.amount;
      Alcotest.(check int) "seq" ta.exp_seqno tb.exp_seqno)
    a.transfers

let test_sender_differs_from_recipient () =
  let w = P2p.generate { P2p.default_spec with num_accounts = 2;
                         block_size = 200 } in
  Array.iter
    (fun (t : P2p.transfer) ->
      Alcotest.(check bool) "distinct" true (t.sender <> t.recipient))
    w.transfers

let test_sequence_numbers_consistent () =
  let w = P2p.generate { P2p.default_spec with block_size = 300;
                         num_accounts = 5 } in
  let counts = Array.make 5 0 in
  Array.iter
    (fun (t : P2p.transfer) ->
      Alcotest.(check int) "expected seqno tracks sends" counts.(t.sender)
        t.exp_seqno;
      counts.(t.sender) <- counts.(t.sender) + 1)
    w.transfers

let test_no_failures_sequentially () =
  let w = P2p.generate { P2p.default_spec with block_size = 500;
                         num_accounts = 10 } in
  let r = Harness.run_sequential ~storage:w.storage w.txns in
  Array.iter
    (function
      | Blockstm_kernel.Txn.Success _ -> ()
      | Blockstm_kernel.Txn.Failed m -> Alcotest.failf "failed: %s" m)
    r.outputs

(* The paper's block size (10^4 transactions), larger than any other engine
   test: 2048-slot shard tables, and per-transaction arrays whose stores
   alone pass the remembered set's collection threshold. *)
let test_paper_block_size_equals_sequential () =
  let w = P2p.generate { P2p.default_spec with block_size = 10_000 } in
  List.iter
    (fun (mode, rolling_commit) ->
      let config =
        Harness.Bstm.optimistic_config ~num_domains:2 (fun o ->
            { o with rolling_commit })
      in
      let c = Harness.check_blockstm ~config ~storage:w.storage w.txns in
      Alcotest.(check bool) (mode ^ ": snapshot = sequential") true
        c.snapshot_ok;
      Alcotest.(check bool) (mode ^ ": outputs = sequential") true
        c.outputs_ok)
    [ ("lazy", false); ("rolling", true) ]

let test_declared_writes_are_perfect () =
  let w = P2p.generate { P2p.default_spec with block_size = 200 } in
  (* BOHM with these declared write-sets must record zero undeclared
     writes and agree with sequential execution. *)
  let b =
    Harness.run_bohm ~num_domains:2 ~storage:w.storage
      ~declared_writes:w.declared_writes w.txns
  in
  Alcotest.(check int) "no undeclared writes" 0 b.undeclared_writes;
  let c =
    Harness.check_bohm ~storage:w.storage ~declared_writes:w.declared_writes
      w.txns
  in
  Alcotest.(check bool) "bohm = sequential" true (Harness.check_ok c)

(* The check behind [blockstm run --verify]: a result whose snapshot is
   right but one of whose outputs is wrong is refused, and so is a wrong
   snapshot. *)
let test_check_against_refuses_wrong_output () =
  let w = P2p.generate { P2p.default_spec with block_size = 50 } in
  let seq = Harness.run_sequential ~storage:w.storage w.txns in
  let ok c = Harness.check_ok c in
  Alcotest.(check bool) "reference accepted" true
    (ok (Harness.check_against seq ~outputs:seq.outputs seq.snapshot));
  let wrong = Array.copy seq.outputs in
  wrong.(17) <- Blockstm_kernel.Txn.Failed "injected";
  let c = Harness.check_against seq ~outputs:wrong seq.snapshot in
  Alcotest.(check bool) "snapshot right" true c.snapshot_ok;
  Alcotest.(check bool) "one wrong output refused" false (ok c);
  Alcotest.(check bool) "wrong snapshot refused" false
    (ok
       (Harness.check_against seq ~outputs:seq.outputs
          (List.tl seq.snapshot)))

let test_balance_conservation () =
  let spec =
    { P2p.default_spec with block_size = 400; num_accounts = 20; seed = 9 }
  in
  let w = P2p.generate spec in
  let delta = P2p.expected_balance_delta w in
  let r = Harness.run_sequential ~storage:w.storage w.txns in
  (* Total delta must be zero (conservation) ... *)
  Alcotest.(check int) "conservation" 0 (Array.fold_left ( + ) 0 delta);
  (* ... and each account's final balance = initial + delta. *)
  List.iter
    (fun (loc, v) ->
      match Ledger.Loc.view loc with
      | Ledger.Loc.Account { acct; field = Ledger.Balance } ->
          Alcotest.(check int)
            (Printf.sprintf "balance of %d" acct)
            (Ledger.default_initial_balance + delta.(acct))
            (Ledger.Value.as_int v)
      | _ -> ())
    r.snapshot

(* --- Location encoding ----------------------------------------------------- *)

(* A location as the boxed variant spelled it, with that variant's hash,
   order and printer: the immediate encoding must keep all three, since the
   hash feeds every root and MVMemory shard placement, the order every
   snapshot, and the printer every table. *)
type boxed_loc = G of int | A of int * Ledger.field

let boxed_hash =
  let mix_int x =
    let x = (x lxor (x lsr 16)) * 0x45d9f3b in
    let x = (x lxor (x lsr 16)) * 0x45d9f3b in
    x lxor (x lsr 16)
  in
  function
  | G g -> mix_int (g lxor 0x55aa55)
  | A (acct, f) -> mix_int ((acct * 8) + Ledger.field_index f)

let boxed_compare a b =
  match (a, b) with
  | G x, G y -> Int.compare x y
  | G _, A _ -> -1
  | A _, G _ -> 1
  | A (a, f), A (b, g) -> (
      match Int.compare a b with
      | 0 -> Int.compare (Ledger.field_index f) (Ledger.field_index g)
      | c -> c)

let boxed_pp = function
  | G g -> Printf.sprintf "global/%d" g
  | A (acct, f) -> Printf.sprintf "acct/%d/%s" acct (Ledger.field_name f)

let encode = function
  | G g -> Ledger.global g
  | A (acct, f) ->
      let mk =
        match f with
        | Balance -> Ledger.balance
        | Seqno -> Ledger.seqno
        | Frozen -> Ledger.frozen
        | Auth_key -> Ledger.auth_key
        | Exists -> Ledger.exists
      in
      mk acct

let gen_boxed_loc =
  QCheck2.Gen.(
    oneof
      [
        map (fun g -> G g) (int_bound (Ledger.n_globals - 1));
        map2
          (fun acct f -> A (acct, f))
          (int_bound 10_000_000)
          (oneofl Ledger.[ Balance; Seqno; Frozen; Auth_key; Exists ]);
      ])

let prop_loc_encoding =
  QCheck2.Test.make ~count:2000
    ~name:"ledger locations: immediate, boxed hash/order/pp kept"
    ~print:(fun (a, b) -> boxed_pp a ^ " vs " ^ boxed_pp b)
    QCheck2.Gen.(pair gen_boxed_loc gen_boxed_loc)
    (fun (a, b) ->
      let la = encode a and lb = encode b in
      let kept s l =
        Obj.is_int (Obj.repr l)
        && (match (Ledger.Loc.view l, s) with
           | Global g, G g' -> g = g'
           | Account { acct; field }, A (acct', field') ->
               acct = acct' && field = field'
           | _ -> false)
        && Ledger.Loc.hash l = boxed_hash s
        && Fmt.str "%a" Ledger.Loc.pp l = boxed_pp s
        && Ledger.Loc.namespace l
           = (match s with G _ -> "global" | A (_, f) -> Ledger.field_name f)
      in
      kept a la && kept b lb
      && Int.compare (Ledger.Loc.compare la lb) 0
         = Int.compare (boxed_compare a b) 0
      && Ledger.Loc.equal la lb = (a = b))

(* The lean genesis allocates each binding's [Value.Int] box (2 words) on
   the minor heap and nothing else: a location is an immediate, and the
   store's two arrays, sized up front, are made on the major heap. *)
let test_lean_genesis_words () =
  let n = 100_000 in
  let w0 = Gc.minor_words () in
  let s = Bigstate.lean_genesis ~num_accounts:n () in
  let per_binding = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "bindings" n (Ledger.Store.cardinal s);
  Alcotest.(check string)
    "minor words per binding" "2.00"
    (Printf.sprintf "%.2f" per_binding)

let test_genesis_contents () =
  let s = Ledger.genesis ~num_accounts:3 () in
  Alcotest.(check int) "cardinality"
    ((3 * 5) + Ledger.n_globals)
    (Ledger.Store.cardinal s);
  (match Ledger.Store.get s (Ledger.balance 0) with
  | Some (Ledger.Value.Int b) ->
      Alcotest.(check int) "funded" Ledger.default_initial_balance b
  | _ -> Alcotest.fail "missing balance");
  match Ledger.Store.get s (Ledger.global 0) with
  | Some (Ledger.Value.Int _) -> ()
  | _ -> Alcotest.fail "missing global config"

(* --- Synthetic workloads -------------------------------------------------- *)

let run_both (g : Synthetic.generated) =
  let c =
    Harness.check_blockstm
      ~config:{ Harness.Bstm.default_config with num_domains = 3 }
      ~storage:g.storage g.txns
  in
  Alcotest.(check bool) "blockstm = sequential" true (Harness.check_ok c)

let test_synthetic_hotspot () = run_both (Synthetic.hotspot ~block_size:80)

let test_synthetic_independent () =
  run_both (Synthetic.independent ~block_size:80)

let test_synthetic_zipfian () =
  run_both (Synthetic.zipfian ~block_size:100 ~num_accounts:20 ~theta:0.9
              ~seed:4)

let test_synthetic_read_heavy () =
  run_both
    (Synthetic.read_heavy ~block_size:60 ~num_accounts:30 ~reads:10
       ~writer_every:5 ~seed:8)

let test_synthetic_chain () = run_both (Synthetic.chain ~block_size:60)

let test_synthetic_churn () =
  run_both (Synthetic.churn ~block_size:80 ~num_accounts:10 ~seed:14)

let test_synthetic_gas_correct () =
  List.iter
    (fun shards ->
      run_both (Synthetic.gas ~block_size:100 ~shards ~seed:5))
    [ 1; 4; 16 ]

let test_gas_total_independent_of_sharding () =
  (* Total gas burned must not depend on how the meter is sharded. *)
  let total shards =
    let g = Synthetic.gas ~block_size:150 ~shards ~seed:5 in
    let r = Harness.run_sequential ~storage:g.storage g.txns in
    List.fold_left
      (fun acc (loc, v) ->
        match Ledger.Loc.view loc with
        | Ledger.Loc.Account { acct; field = Ledger.Balance }
          when acct >= 150 ->
            (* Gas accounts live above the workload accounts; subtract the
               genesis balance to get the burned amount. *)
            acc + Ledger.Value.as_int v - Ledger.default_initial_balance
        | _ -> acc)
      0 r.snapshot
  in
  let t1 = total 1 in
  Alcotest.(check bool) "non-trivial gas" true (t1 > 0);
  Alcotest.(check int) "4 shards same total" t1 (total 4);
  Alcotest.(check int) "16 shards same total" t1 (total 16)

let test_gas_single_shard_is_sequential_dag () =
  let g = Synthetic.gas ~block_size:40 ~shards:1 ~seed:5 in
  let profiles =
    Harness.Prof.run ~storage:(Ledger.Store.reader g.storage) g.txns
  in
  (* With one shard, every transaction depends on its predecessor through
     the gas counter: the §7 pathology. *)
  Array.iteri
    (fun i (p : Harness.Prof.txn_profile) ->
      if i > 0 then
        Alcotest.(check bool) "depends on predecessor" true
          (List.mem (i - 1) p.deps))
    profiles

let test_gas_sharding_restores_parallelism () =
  let inherent shards =
    let g = Synthetic.gas ~block_size:160 ~shards ~seed:5 in
    let profiles =
      Harness.Prof.run ~storage:(Ledger.Store.reader g.storage) g.txns
    in
    let costs = Array.map (fun (_ : Harness.Prof.txn_profile) -> 1.0)
        profiles in
    let deps = Array.map (fun (p : Harness.Prof.txn_profile) -> p.deps)
        profiles in
    let dag = Harness.Dag_sim.create ~costs ~deps in
    160.0 /. Harness.Dag_sim.critical_path dag
  in
  Alcotest.(check bool) "single shard sequential" true (inherent 1 <= 1.01);
  Alcotest.(check bool) "16 shards ~16x" true (inherent 16 > 8.0)

let test_hotspot_is_sequential_dag () =
  let g = Synthetic.hotspot ~block_size:20 in
  let profiles =
    Harness.Prof.run ~storage:(Ledger.Store.reader g.storage) g.txns
  in
  (* Every transaction (except the first) depends on its predecessor. *)
  Array.iteri
    (fun i (p : Harness.Prof.txn_profile) ->
      if i > 0 then
        Alcotest.(check (list int)) "chain dep" [ i - 1 ] p.deps)
    profiles

let test_independent_has_no_deps () =
  let g = Synthetic.independent ~block_size:20 in
  let profiles =
    Harness.Prof.run ~storage:(Ledger.Store.reader g.storage) g.txns
  in
  Array.iter
    (fun (p : Harness.Prof.txn_profile) ->
      Alcotest.(check (list int)) "no deps" [] p.deps)
    profiles

(* --- RNG ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    Alcotest.(check bool) "unit interval" true (f >= 0. && f < 1.)
  done

let test_rng_distinct_pair () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let a, b = Rng.distinct_pair rng 5 in
    Alcotest.(check bool) "distinct" true (a <> b);
    Alcotest.(check bool) "in range" true
      (a >= 0 && a < 5 && b >= 0 && b < 5)
  done

let test_rng_zipf () =
  let rng = Rng.create 11 in
  let n = 100 in
  let counts = Array.make n 0 in
  for _ = 1 to 10_000 do
    let v = Rng.zipf rng ~n ~theta:1.0 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < n);
    counts.(v) <- counts.(v) + 1
  done;
  (* Skew: rank 0 must be sampled much more often than rank 50. *)
  Alcotest.(check bool) "skewed" true (counts.(0) > 5 * (counts.(50) + 1))

let test_rng_zipf_theta0_uniformish () =
  let rng = Rng.create 11 in
  let counts = Array.make 4 0 in
  for _ = 1 to 8000 do
    counts.(Rng.zipf rng ~n:4 ~theta:0.) <- 1 + counts.(Rng.zipf rng ~n:4 ~theta:0.)
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 500))
    counts

(* --- Pinned roots ---------------------------------------------------------- *)

(* Absolute roots of two fixed chains. Every other root test compares two
   executors, or a root with its from-scratch recompute, so a change to
   [Ledger.Loc.hash], [Ledger.Value.hash] or the digests would pass them
   unseen. These values were read while locations were still boxed
   variants; the immediate encoding keeps every hash, so they must not
   move. *)
let hex = Printf.sprintf "0x%016Lx"

let check_roots ctx ~state ~delta commits =
  Alcotest.(check int)
    (ctx ^ ": blocks") (List.length state) (List.length commits);
  List.iteri
    (fun i (c : _ Harness.ChainX.block_commit) ->
      Alcotest.(check string)
        (Fmt.str "%s: state root @ %d" ctx c.height)
        (List.nth state i) (hex c.state_root);
      Alcotest.(check string)
        (Fmt.str "%s: delta root @ %d" ctx c.height)
        (List.nth delta i) (hex c.delta_root))
    commits

let test_pinned_p2p_roots () =
  let blocks =
    P2p.generate_stream
      { P2p.default_spec with num_accounts = 100; block_size = 200 }
      ~nblocks:3
  in
  let genesis = (List.hd blocks).storage in
  List.iter
    (fun (ctx, executor) ->
      let chain = Harness.ChainX.create ~executor ~genesis () in
      check_roots ctx
        ~state:
          [ "0x2cc5d0259e212d3d"; "0x0b33944345331938"; "0x19aa02e057055031" ]
        ~delta:
          [ "0x1669b894d9393c2b"; "0x94a6063bd790b0e4"; "0xba655ac4002b95d6" ]
        (Harness.ChainX.execute_blocks chain
           (List.map (fun (b : P2p.t) -> b.txns) blocks)))
    [
      ("sequential", Harness.ChainX.Sequential);
      ( "block-stm, 2 domains",
        Harness.ChainX.Block_stm
          { Harness.Bstm.default_config with num_domains = 2 } );
    ]

let test_pinned_bigstate_roots () =
  let g = Bigstate.transfers ~block_size:500 ~num_accounts:5000 ~seed:7 () in
  let chain =
    Harness.ChainX.create ~executor:Harness.ChainX.Sequential
      ~genesis:g.storage ()
  in
  check_roots "bigstate" ~state:[ "0xc7505baf17daa609" ]
    ~delta:[ "0xaee7896084cb8985" ]
    [ Harness.ChainX.execute_block chain g.txns ]

let suite =
  [
    Alcotest.test_case "standard p2p: 21 reads / 4 writes" `Quick
      test_standard_footprint;
    Alcotest.test_case "simplified p2p: 12 reads / 4 writes" `Quick
      test_simplified_footprint;
    Alcotest.test_case "footprint constants" `Quick test_footprint_constants;
    Alcotest.test_case "deterministic generation" `Quick
      test_deterministic_generation;
    Alcotest.test_case "sender <> recipient" `Quick
      test_sender_differs_from_recipient;
    Alcotest.test_case "sequence numbers track sends" `Quick
      test_sequence_numbers_consistent;
    Alcotest.test_case "no failures under sequential run" `Quick
      test_no_failures_sequentially;
    Alcotest.test_case "declared write-sets are perfect" `Quick
      test_declared_writes_are_perfect;
    Alcotest.test_case "10^4-txn p2p block = sequential, 2 domains" `Quick
      test_paper_block_size_equals_sequential;
    Alcotest.test_case "verify check refuses a wrong output" `Quick
      test_check_against_refuses_wrong_output;
    Alcotest.test_case "balance conservation" `Quick test_balance_conservation;
    Alcotest.test_case "genesis contents" `Quick test_genesis_contents;
    Tutil.qcheck_to_alcotest prop_loc_encoding;
    Alcotest.test_case "lean genesis: 2 minor words per binding" `Quick
      test_lean_genesis_words;
    Alcotest.test_case "synthetic: hotspot" `Quick test_synthetic_hotspot;
    Alcotest.test_case "synthetic: independent" `Quick
      test_synthetic_independent;
    Alcotest.test_case "synthetic: zipfian" `Quick test_synthetic_zipfian;
    Alcotest.test_case "synthetic: read-heavy" `Quick test_synthetic_read_heavy;
    Alcotest.test_case "synthetic: chain" `Quick test_synthetic_chain;
    Alcotest.test_case "synthetic: churn" `Quick test_synthetic_churn;
    Alcotest.test_case "synthetic: gas meter (1/4/16 shards)" `Quick
      test_synthetic_gas_correct;
    Alcotest.test_case "gas total independent of sharding" `Quick
      test_gas_total_independent_of_sharding;
    Alcotest.test_case "single gas shard is the §7 pathology" `Quick
      test_gas_single_shard_is_sequential_dag;
    Alcotest.test_case "gas sharding restores parallelism" `Quick
      test_gas_sharding_restores_parallelism;
    Alcotest.test_case "hotspot profiles to a chain DAG" `Quick
      test_hotspot_is_sequential_dag;
    Alcotest.test_case "independent profiles to empty DAG" `Quick
      test_independent_has_no_deps;
    Alcotest.test_case "rng: determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng: bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng: distinct pairs" `Quick test_rng_distinct_pair;
    Alcotest.test_case "rng: zipf skew" `Quick test_rng_zipf;
    Alcotest.test_case "rng: zipf theta=0 uniform" `Quick
      test_rng_zipf_theta0_uniformish;
    Alcotest.test_case "pinned roots: p2p chain, sequential and 2 domains"
      `Quick test_pinned_p2p_roots;
    Alcotest.test_case "pinned roots: bigstate block" `Quick
      test_pinned_bigstate_roots;
  ]
