(** Tests for sharded execution lanes (DESIGN.md §16).

    The centerpiece is the lane-identity matrix: over laned p2p and hotspot
    workloads, every (lanes × domains × deltas on/off) grid point must
    commit snapshots and outputs bit-identical to the sequential reference
    (and hence to the single-instance engine, which the rest of the suite
    pins to the same reference). A chain matrix repeats the check at the
    state-root level across flat and Merkle stores.

    Coordinator unit tests pin the greedy planner's batch shapes
    (cross-lane park, conflict-forced batch close); partitioner tests
    check totality (every location maps to
    exactly one lane, uniformly across an account's fields) and — over the
    same 600-program corpus the access-analysis suite uses — that whenever
    a transaction is classified single-lane, every location it dynamically
    touches that lies in the block's write-set falls inside that lane. *)

open Blockstm_kernel
open Blockstm_minimove
module P2p = Blockstm_workload.P2p
module Synthetic = Blockstm_workload.Synthetic
module Bigstate = Blockstm_workload.Bigstate
module Ledger = Blockstm_workload.Ledger
module Harness = Blockstm_workload.Harness
module Bstm = Harness.Bstm
module LanesX = Harness.LanesX
module Chain = Harness.ChainX

let check_same label (seq : int Harness.Seq.result) (r : int LanesX.result) =
  Alcotest.(check bool)
    (label ^ ": snapshot matches sequential")
    true
    (Harness.equal_snapshot seq.Harness.Seq.snapshot r.LanesX.snapshot);
  Alcotest.(check bool)
    (label ^ ": outputs match sequential")
    true
    (Harness.equal_outputs seq.Harness.Seq.outputs r.LanesX.outputs)

(* --- Lane-identity matrix ------------------------------------------------ *)

(* Laned p2p (10% deliberate cross-lane transfers) through every
   lanes × domains × engine config grid point (the paper engine and
   rolling commit): snapshots, outputs and the
   metrics-visible committed count must be bit-identical to the sequential
   reference. *)
let test_identity_matrix () =
  let spec =
    {
      P2p.default_spec with
      num_accounts = 240;
      block_size = 300;
      lanes_hint = 4;
      cross_fraction = 0.1;
    }
  in
  let w = P2p.generate spec in
  let specs = P2p.txn_specs w in
  let seq = Harness.run_sequential ~storage:w.P2p.storage w.P2p.txns in
  let configs =
    [
      ("paper", fun num_domains -> { Bstm.default_config with num_domains });
      ( "rolling",
        fun num_domains ->
          { Bstm.default_config with num_domains; rolling_commit = true } );
    ]
  in
  List.iter
    (fun ((cname, config), lanes) ->
      let partition = Harness.account_partition ~num_accounts:240 ~lanes in
      List.iter
        (fun num_domains ->
          let config = config num_domains in
          let r =
            Harness.run_lanes ~config ~partition ~specs ~storage:w.P2p.storage
              w.P2p.txns
          in
          let label =
            Fmt.str "p2p %s %d lanes @ %d domains" cname lanes num_domains
          in
          check_same label seq r;
          let m = r.LanesX.metrics in
          Alcotest.(check int)
            (label ^ ": lane counts + cross tile the block")
            300
            (Array.fold_left ( + ) m.LanesX.cross_lane_txns
               m.LanesX.lane_txn_counts))
        [ 1; 4; 8 ])
    (List.concat_map
       (fun c -> List.map (fun lanes -> (c, lanes)) [ 1; 2; 4 ])
       configs)

(* The deltas axis: hotspot blocks whose balance updates ride the
   commutative-delta machinery when [delta_ops] is on. Cold senders spread
   across lanes, hot recipients all land in lane 0, so most transactions are
   cross-lane — a coordinator stress test. *)
let test_identity_deltas () =
  let h =
    P2p.generate_hotspot { P2p.default_hotspot_spec with h_block_size = 200 }
  in
  let num_accounts = h.P2p.h_spec.P2p.h_num_accounts in
  let specs = P2p.hotspot_txn_specs h in
  let seq = Harness.run_sequential ~storage:h.P2p.h_storage h.P2p.h_txns in
  List.iter
    (fun lanes ->
      let partition = Harness.account_partition ~num_accounts ~lanes in
      List.iter
        (fun delta_ops ->
          let config =
            { Bstm.default_config with num_domains = 4; delta_ops }
          in
          let r =
            Harness.run_lanes ~config ~partition ~specs
              ~storage:h.P2p.h_storage h.P2p.h_txns
          in
          check_same
            (Fmt.str "hotspot %d lanes deltas=%b" lanes delta_ops)
            seq r)
        [ false; true ])
    [ 1; 2; 4 ]

(* State-root identity through the chain: lanes replicas must agree with
   the sequential replica on every committed root. *)
let test_chain_roots () =
  let spec =
    {
      P2p.default_spec with
      num_accounts = 160;
      block_size = 200;
      lanes_hint = 2;
      cross_fraction = 0.15;
      seed = 7;
    }
  in
  let blocks = P2p.generate_stream spec ~nblocks:3 in
  let genesis = (List.hd blocks).P2p.storage in
  let run executor =
    let chain = Chain.create ~executor ~genesis () in
    List.iter
      (fun (w : P2p.t) ->
        ignore (Chain.execute_block ~specs:(P2p.txn_specs w) chain w.P2p.txns))
      blocks;
    chain
  in
  let seq = run Chain.Sequential in
  List.iter
    (fun lanes ->
      let executor =
        Chain.Lanes
          {
            config = { Bstm.default_config with num_domains = 4 };
            partition = Harness.account_partition ~num_accounts:160 ~lanes;
            namespace = Some Ledger.Loc.namespace;
          }
      in
      Alcotest.(check (option int))
        (Fmt.str "chain %d lanes: no root divergence" lanes)
        None
        (Chain.first_divergence seq (run executor)))
    [ 1; 2; 4 ]

(* Bigstate laned transfers carry their own generated specs. *)
let test_bigstate_lanes () =
  let g =
    Bigstate.transfers ~lanes:4 ~cross_fraction:0.1 ~block_size:200
      ~num_accounts:400 ~seed:3 ()
  in
  let partition = Harness.account_partition ~num_accounts:400 ~lanes:4 in
  let seq = Harness.run_sequential ~storage:g.Bigstate.storage g.Bigstate.txns in
  let r =
    Harness.run_lanes ~partition ~specs:g.Bigstate.specs
      ~storage:g.Bigstate.storage g.Bigstate.txns
  in
  check_same "bigstate 4 lanes" seq r

(* Perfectly lane-partitionable gas workload: with lanes dividing the gas
   shards the whole block must plan into a single cross-lane-free batch. *)
let test_gas_partition () =
  let block_size = 64 and shards = 8 in
  let g = Synthetic.gas ~block_size ~shards ~seed:11 in
  let specs = Synthetic.gas_specs ~block_size ~shards in
  let partition =
    {
      LanesX.lanes = 4;
      loc_lane = Synthetic.gas_lane ~block_size ~shards ~lanes:4;
    }
  in
  let pl = LanesX.plan ~namespace:Ledger.Loc.namespace partition specs in
  Alcotest.(check int) "gas: no cross-lane txns" 0 pl.LanesX.cross_lane_txns;
  Alcotest.(check int)
    "gas: single batch" 1
    (List.length pl.LanesX.batches);
  let seq = Harness.run_sequential ~storage:g.Synthetic.storage g.Synthetic.txns in
  let r =
    Harness.run_lanes
      ~config:{ Bstm.default_config with num_domains = 4 }
      ~partition ~specs ~storage:g.Synthetic.storage g.Synthetic.txns
  in
  check_same "gas 4 lanes" seq r

(* --- Coordinator unit tests --------------------------------------------- *)

(* Order-sensitive read-increment transactions over a 4-account ledger
   partitioned into 2 lanes (accounts 0,1 -> lane 0; 2,3 -> lane 1). *)
let bump locs : (Ledger.Loc.t, Ledger.Value.t, int) Txn.t =
 fun e ->
  List.fold_left
    (fun acc l ->
      let v = Ledger.read_int e l in
      e.Txn.write l (Ledger.Value.Int (v + 1));
      acc + v)
    0 locs

let sp ?(reads = []) locs : Ledger.Loc.t Access_spec.t =
  let e l = Access_spec.Exact l in
  { Access_spec.reads = List.map e (reads @ locs); writes = List.map e locs }

let two_lane_fixture () =
  let storage = Ledger.genesis ~num_accounts:4 () in
  let partition = Harness.account_partition ~num_accounts:4 ~lanes:2 in
  (storage, partition)

let check_batch label (b : LanesX.batch) ~lo ~hi ~lanes ~stragglers =
  Alcotest.(check int) (label ^ ": lo") lo b.LanesX.lo;
  Alcotest.(check int) (label ^ ": hi") hi b.LanesX.hi;
  Alcotest.(check (list (list int)))
    (label ^ ": lane sub-blocks")
    lanes
    (Array.to_list (Array.map Array.to_list b.LanesX.lane_txns));
  Alcotest.(check (list int))
    (label ^ ": stragglers")
    stragglers
    (Array.to_list b.LanesX.stragglers)

(* Park: a cross-lane transaction parks; a later single-lane transaction
   that is spec-disjoint from it keeps the batch open. *)
let test_coordinator_park () =
  let _, partition = two_lane_fixture () in
  let b = Ledger.balance in
  let specs = [| sp [ b 0 ]; sp [ b 0; b 2 ]; sp [ b 3 ] |] in
  let assignment = LanesX.classify partition specs in
  Alcotest.(check bool)
    "assignment" true
    (assignment = [| LanesX.Lane 0; LanesX.Cross; LanesX.Lane 1 |]);
  let pl = LanesX.plan ~namespace:Ledger.Loc.namespace partition specs in
  Alcotest.(check int) "one batch" 1 (List.length pl.LanesX.batches);
  check_batch "park" (List.hd pl.LanesX.batches) ~lo:0 ~hi:3
    ~lanes:[ [ 0 ]; [ 2 ] ] ~stragglers:[ 1 ];
  Alcotest.(check int) "cross count" 1 pl.LanesX.cross_lane_txns

(* Park: a later single-lane transaction conflicting with a parked
   straggler forces the batch closed at that point. *)
let test_coordinator_conflict_close () =
  let _, partition = two_lane_fixture () in
  let b = Ledger.balance in
  let specs = [| sp [ b 0 ]; sp [ b 0; b 2 ]; sp [ b 2 ] |] in
  let pl = LanesX.plan ~namespace:Ledger.Loc.namespace partition specs in
  match pl.LanesX.batches with
  | [ b1; b2 ] ->
      check_batch "batch 1" b1 ~lo:0 ~hi:2 ~lanes:[ [ 0 ]; [] ]
        ~stragglers:[ 1 ];
      check_batch "batch 2" b2 ~lo:2 ~hi:3 ~lanes:[ []; [ 2 ] ]
        ~stragglers:[]
  | bs -> Alcotest.failf "expected 2 batches, got %d" (List.length bs)

(* A transaction touching no block-written location balances round-robin. *)
let test_coordinator_round_robin () =
  let _, partition = two_lane_fixture () in
  let b = Ledger.balance in
  let specs =
    [|
      sp [ b 0 ];
      sp [ b 3 ];
      sp ~reads:[ Ledger.global 0 ] [] (* index 2: read-only, 2 mod 2 = 0 *);
      sp ~reads:[ Ledger.global 1 ] [] (* index 3: 3 mod 2 = 1 *);
    |]
  in
  let assignment = LanesX.classify partition specs in
  Alcotest.(check bool)
    "round-robin placement" true
    (assignment
    = [| LanesX.Lane 0; LanesX.Lane 1; LanesX.Lane 0; LanesX.Lane 1 |])

(* Execution identity on the handcrafted block, through both lane drivers
   (real domains and virtual time): outputs are old values read, so any
   ordering violation shows up. *)
let test_coordinator_execution () =
  let storage, partition = two_lane_fixture () in
  let b = Ledger.balance in
  let specs =
    [| sp [ b 0 ]; sp [ b 0; b 2 ]; sp [ b 2 ]; sp [ b 3 ]; sp [ b 1; b 3 ] |]
  in
  let txns =
    Array.map
      (fun (s : Ledger.Loc.t Access_spec.t) ->
        bump
          (List.filter_map
             (function Access_spec.Exact l -> Some l | _ -> None)
             s.Access_spec.writes))
      specs
  in
  let seq = Harness.run_sequential ~storage txns in
  check_same "handcrafted" seq
    (Harness.run_lanes ~partition ~specs ~storage txns);
  let s = Harness.sim_lanes ~num_threads:2 ~partition ~specs ~storage txns in
  Alcotest.(check bool)
    "handcrafted, virtual time: snapshot and outputs match sequential" true
    (Harness.equal_snapshot seq.Harness.Seq.snapshot s.Harness.sl_snapshot
    && Harness.equal_outputs seq.Harness.Seq.outputs s.Harness.sl_outputs)

(* Empty block: trivially valid plan, empty result. *)
let test_empty_block () =
  let storage, partition = two_lane_fixture () in
  let r = Harness.run_lanes ~partition ~specs:[||] ~storage [||] in
  Alcotest.(check int) "no outputs" 0 (Array.length r.LanesX.outputs);
  Alcotest.(check (list unit))
    "empty snapshot" []
    (List.map ignore r.LanesX.snapshot)

(* --- Streaming hooks and observability ----------------------------------- *)

(* on_commit must fire once per transaction, in preset order, across
   batches. *)
let test_on_commit_order () =
  let spec =
    {
      P2p.default_spec with
      num_accounts = 120;
      block_size = 150;
      lanes_hint = 3;
      cross_fraction = 0.2;
    }
  in
  let w = P2p.generate spec in
  let specs = P2p.txn_specs w in
  let partition = Harness.account_partition ~num_accounts:120 ~lanes:3 in
  let order = ref [] in
  let _r =
    Harness.run_lanes ~partition ~specs
      ~on_commit:(fun j _ -> order := j :: !order)
      ~storage:w.P2p.storage w.P2p.txns
  in
  Alcotest.(check (list int))
    "preset commit order"
    (List.init 150 Fun.id)
    (List.rev !order)

(* The coordinator's counts on a block with cross-lane traffic. *)
let test_lane_metrics () =
  let spec =
    {
      P2p.default_spec with
      num_accounts = 120;
      block_size = 150;
      lanes_hint = 2;
      cross_fraction = 0.3;
      seed = 9;
    }
  in
  let w = P2p.generate spec in
  let specs = P2p.txn_specs w in
  let partition = Harness.account_partition ~num_accounts:120 ~lanes:2 in
  let r =
    Harness.run_lanes ~partition ~specs ~storage:w.P2p.storage w.P2p.txns
  in
  let m = r.LanesX.metrics in
  Alcotest.(check bool)
    "some cross-lane traffic" true
    (m.LanesX.cross_lane_txns > 0);
  Alcotest.(check bool)
    "imbalance within [0, lanes]" true
    (m.LanesX.imbalance >= 0. && m.LanesX.imbalance <= 2.)

(* Virtual-time lane simulator commits the same state as the references. *)
let test_sim_lanes_identity () =
  let spec =
    {
      P2p.default_spec with
      num_accounts = 200;
      block_size = 200;
      lanes_hint = 4;
      cross_fraction = 0.05;
      seed = 13;
    }
  in
  let w = P2p.generate spec in
  let specs = P2p.txn_specs w in
  let partition = Harness.account_partition ~num_accounts:200 ~lanes:4 in
  let seq = Harness.run_sequential ~storage:w.P2p.storage w.P2p.txns in
  List.iter
    (fun num_threads ->
      let s =
        Harness.sim_lanes ~num_threads ~partition ~specs
          ~storage:w.P2p.storage w.P2p.txns
      in
      let label = Fmt.str "sim_lanes @ %d threads" num_threads in
      Alcotest.(check bool)
        (label ^ ": snapshot") true
        (Harness.equal_snapshot seq.Harness.Seq.snapshot s.Harness.sl_snapshot);
      Alcotest.(check bool)
        (label ^ ": outputs") true
        (Harness.equal_outputs seq.Harness.Seq.outputs s.Harness.sl_outputs);
      Alcotest.(check bool)
        (label ^ ": positive makespan") true
        (s.Harness.sl_makespan_us > 0.))
    [ 1; 4; 8 ]

(* --- Partitioner properties ---------------------------------------------- *)

(* Totality: every location maps to exactly one lane in range, uniformly
   across an account's fields, and lane boundaries are monotone. *)
let test_partitioner_total () =
  let num_accounts = 97 in
  List.iter
    (fun lanes ->
      let p = Harness.account_partition ~num_accounts ~lanes in
      let seen = Array.make lanes false in
      for acct = 0 to num_accounts - 1 do
        let want = Ledger.account_lane ~num_accounts ~lanes acct in
        Alcotest.(check bool)
          (Fmt.str "lane of acct %d in range (%d lanes)" acct lanes)
          true
          (want >= 0 && want < lanes);
        seen.(want) <- true;
        if acct > 0 then
          Alcotest.(check bool)
            "lane boundaries monotone" true
            (want >= Ledger.account_lane ~num_accounts ~lanes (acct - 1));
        List.iter
          (fun loc ->
            Alcotest.(check int)
              "every field of an account shares its lane" want
              (p.LanesX.loc_lane (loc acct)))
          Ledger.[ balance; seqno; frozen; auth_key; exists ]
      done;
      Alcotest.(check bool)
        (Fmt.str "all %d lanes populated" lanes)
        true
        (Array.for_all Fun.id seen);
      Alcotest.(check int)
        "globals stay in lane 0" 0
        (p.LanesX.loc_lane (Ledger.global 3)))
    [ 1; 2; 4; 8 ]

(* Spec-based partition coverage over the 600-program differential corpus:
   if classification puts a program in lane [l], every location it
   dynamically accesses that belongs to the block's exact write-set must map
   to lane [l] — i.e. lane confinement derived from static specs covers the
   dynamic footprint. *)
module LanesMM = Blockstm_lanes.Lanes.Make (Mv_value.Loc) (Mv_value.Value)

let main_spec (ic : Interp.compiled) : Mv_value.Loc.t Access_spec.t =
  match Access.infer_func (Interp.ast ic) "main" with
  | None -> Alcotest.fail "generated program has no main"
  | Some fspec -> Access.specialize fspec ~args:[]

let prop_partition_covers_dynamic =
  QCheck2.Test.make
    ~name:"lane classification covers every dynamic access (600 programs)"
    ~count:600 ~print:Test_vm_diff.gen_source
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let ic = Interp.compile (Test_vm_diff.gen_source seed) in
      let spec = main_spec ic in
      let part =
        {
          LanesMM.lanes = 4;
          loc_lane = (fun l -> (Mv_value.Loc.hash l land max_int) mod 4);
        }
      in
      match (LanesMM.classify part [| spec |]).(0) with
      | LanesMM.Cross -> true (* conservatively coordinated, always sound *)
      | LanesMM.Lane l ->
          let exact_writes =
            List.filter_map
              (function Access_spec.Exact x -> Some x | _ -> None)
              spec.Access_spec.writes
          in
          let in_w loc = List.exists (Mv_value.Loc.equal loc) exact_writes in
          let log =
            Test_vm_diff.exec
              (fun ~gas_limit e -> Interp.run_with_gas ~gas_limit ic ~args:[] e)
              ~gas_limit:1_000_000
          in
          let confined (loc, _) =
            (not (in_w loc)) || part.LanesMM.loc_lane loc = l
          in
          (* All dynamic writes must be in the exact write-set (single-lane
             classification demands an all-exact spec, whose soundness the
             access suite proves), and every access to a written location
             must stay in the assigned lane. *)
          List.for_all (fun (loc, _) -> in_w loc) log.Test_vm_diff.writes
          && List.for_all confined log.Test_vm_diff.reads
          && List.for_all confined log.Test_vm_diff.writes)

let suite =
  [
    Alcotest.test_case "identity matrix: laned p2p, lanes x domains" `Quick
      test_identity_matrix;
    Alcotest.test_case "identity matrix: hotspot deltas on/off" `Quick
      test_identity_deltas;
    Alcotest.test_case "chain roots: lanes = sequential" `Quick
      test_chain_roots;
    Alcotest.test_case "bigstate laned transfers" `Quick test_bigstate_lanes;
    Alcotest.test_case "gas workload: single cross-free batch" `Quick
      test_gas_partition;
    Alcotest.test_case "coordinator: cross-lane park" `Quick
      test_coordinator_park;
    Alcotest.test_case "coordinator: conflict closes batch" `Quick
      test_coordinator_conflict_close;
    Alcotest.test_case "coordinator: round-robin read-only txns" `Quick
      test_coordinator_round_robin;
    Alcotest.test_case "coordinator: execution identity both drivers" `Quick
      test_coordinator_execution;
    Alcotest.test_case "empty block" `Quick test_empty_block;
    Alcotest.test_case "on_commit preset order" `Quick test_on_commit_order;
    Alcotest.test_case "lane metrics: cross-lane traffic" `Quick
      test_lane_metrics;
    Alcotest.test_case "sim_lanes virtual-time identity" `Quick
      test_sim_lanes_identity;
    Alcotest.test_case "partitioner totality" `Quick test_partitioner_total;
    Tutil.qcheck_to_alcotest prop_partition_covers_dynamic;
  ]
