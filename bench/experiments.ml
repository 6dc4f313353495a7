(** The paper's evaluation, experiment by experiment (DESIGN.md §5).

    Every figure/table of Section 4.1 has a function here that regenerates
    its rows on the {!Grid} runner. Thread-scaling numbers come from the
    virtual-time executor: the committed tables' wall-clock rows were
    measured on a 1-core host, later ones on a 2-core host, and neither can
    show scaling past its core count (DESIGN.md §3 explains why the virtual
    shape is preserved). The wall-clock tables report real domains on the
    machine they run on.

    [mode] selects grid size: [`Quick] (default, used by `dune exec
    bench/main.exe`) keeps the full structure with a reduced grid; [`Full]
    runs the paper's complete parameter grid. *)

open Blockstm_workload
module CM = Blockstm_simexec.Cost_model
module D = Blockstm_stats.Descriptive
module G = Grid
module C = Harness.ChainX

type mode = Quick | Full

let threads_grid = function
  | Quick -> [ 1; 4; 16; 32 ]
  | Full -> [ 1; 2; 4; 8; 16; 32 ]

let blocks_grid = function Quick -> [ 1_000 ] | Full -> [ 1_000; 10_000 ]

(* Number of repetitions per data point (the paper averages 10; the virtual
   executor is deterministic given a seed, so we vary seeds instead). *)
let reps = function Quick -> 2 | Full -> 5

let fmt_tps = G.fmt_tps
let fmt_x = G.fmt_x

let rolling_config domains =
  {
    Harness.Bstm.default_config with
    num_domains = domains;
    rolling_commit = true;
  }

let p2p_spec ~flavor ~accounts ~block ~seed =
  {
    P2p.default_spec with
    flavor;
    num_accounts = accounts;
    block_size = block;
    seed;
  }

let seq_tps ~flavor =
  (* Sequential throughput under the cost model depends only on the per-txn
     footprint. *)
  let c =
    CM.exec_cost CM.default
      ~reads:(P2p.reads_per_txn flavor)
      ~writes:(P2p.writes_per_txn flavor)
  in
  1e6 /. c

(* A virtual-time p2p point averaged over seeds: [run ~point block] on each
   seed's block, recorded under [algo]'s label for the point. *)
let p2p_point ~algo ~flavor ~accounts ~block ~threads mode run =
  G.seeds
    ~label:
      (Printf.sprintf "%s/%s/accounts=%d/block=%d/threads=%d" algo
         (P2p.flavor_name flavor) accounts block threads)
    ~n:(reps mode)
    (fun ~point seed ->
      run ~point (G.p2p (p2p_spec ~flavor ~accounts ~block ~seed)))

let bstm_tps ~flavor ~accounts ~block ~threads mode =
  p2p_point ~algo:"bstm_tps" ~flavor ~accounts ~block ~threads mode
    (fun ~point b -> fst (G.sim ~point ~threads b))

(* --- Figures 3 and 4: BSTM vs LiTM vs BOHM vs Sequential ------------------ *)

let fig_comparison ~flavor ~fig mode =
  List.iter
    (fun block ->
      G.table
        ~title:
          (Printf.sprintf "Figure %d: %s p2p, block size %d (throughput, tps)"
             fig (P2p.flavor_name flavor) block)
        ~header:[ "accounts"; "threads"; "Sequential"; "BSTM"; "BOHM"; "LiTM" ]
        (G.cross [ 1_000; 10_000 ] (threads_grid mode))
        (fun (accounts, threads) ->
          let point algo run =
            p2p_point ~algo ~flavor ~accounts ~block ~threads mode run
          in
          let seq = seq_tps ~flavor in
          let bstm = bstm_tps ~flavor ~accounts ~block ~threads mode in
          let bohm =
            point "bohm_tps" (fun ~point:_ b -> G.sim_bohm ~threads b)
          in
          let litm =
            point "litm_tps" (fun ~point:_ ->
                G.sim_litm ~threads ~reads:(P2p.reads_per_txn flavor)
                  ~writes:(P2p.writes_per_txn flavor))
          in
          [
            [
              string_of_int accounts;
              string_of_int threads;
              fmt_tps seq;
              fmt_tps bstm;
              fmt_tps bohm;
              fmt_tps litm;
            ];
          ]))
    (blocks_grid mode)

let fig3 mode = fig_comparison ~flavor:P2p.Standard ~fig:3 mode
let fig4 mode = fig_comparison ~flavor:P2p.Simplified ~fig:4 mode

(* --- Figure 5: highly contended workloads --------------------------------- *)

let fig5 mode =
  List.iter
    (fun (flavor, block) ->
      G.table
        ~title:
          (Printf.sprintf "Figure 5: high contention, %s p2p, block size %d"
             (P2p.flavor_name flavor) block)
        ~header:[ "accounts"; "threads"; "Sequential"; "BSTM"; "speedup" ]
        (G.cross [ 2; 10; 100 ] (threads_grid mode))
        (fun (accounts, threads) ->
          let seq = seq_tps ~flavor in
          let bstm = bstm_tps ~flavor ~accounts ~block ~threads mode in
          [
            [
              string_of_int accounts;
              string_of_int threads;
              fmt_tps seq;
              fmt_tps bstm;
              fmt_x (bstm /. seq);
            ];
          ]))
    (G.cross [ P2p.Standard; P2p.Simplified ] (blocks_grid mode))

(* --- Figure 6: maximum throughput vs batch size ---------------------------- *)

let fig6 mode =
  let batches =
    match mode with
    | Quick -> [ 1_000; 5_000; 10_000 ]
    | Full -> [ 1_000; 5_000; 10_000; 20_000; 50_000 ]
  in
  List.iter
    (fun flavor ->
      G.table
        ~title:
          (Printf.sprintf "Figure 6: BSTM throughput vs batch size, %s p2p"
             (P2p.flavor_name flavor))
        ~header:[ "batch"; "threads"; "BSTM tps"; "speedup vs seq" ]
        (G.cross batches [ 16; 32 ])
        (fun (block, threads) ->
          let bstm = bstm_tps ~flavor ~accounts:10_000 ~block ~threads mode in
          [
            [
              string_of_int block;
              string_of_int threads;
              fmt_tps bstm;
              fmt_x (bstm /. seq_tps ~flavor);
            ];
          ]))
    [ P2p.Standard; P2p.Simplified ]

(* --- Sequential-overhead table (§4.1 "at most 30% overhead") --------------- *)

let seq_overhead mode =
  G.table
    ~title:
      "Sequential workload overhead (2 accounts, standard p2p): BSTM vs \
       sequential"
    ~header:[ "threads"; "Sequential tps"; "BSTM tps"; "overhead" ]
    (threads_grid mode)
    (fun threads ->
      let seq = seq_tps ~flavor:P2p.Standard in
      let bstm =
        bstm_tps ~flavor:P2p.Standard ~accounts:2 ~block:1_000 ~threads mode
      in
      [
        [
          string_of_int threads;
          fmt_tps seq;
          fmt_tps bstm;
          Printf.sprintf "%.0f%%" (((seq /. bstm) -. 1.) *. 100.);
        ];
      ])

(* --- Abort-rate analysis (§4.1 discussion) --------------------------------- *)

let aborts mode =
  let block = 1_000 in
  G.table
    ~title:
      "Abort analysis: re-executions and validation failures vs contention \
       (standard p2p, 32 threads)"
    ~header:
      [
        "accounts";
        "incarnations/txn";
        "val-aborts/txn";
        "dep-aborts/txn";
        "validations/txn";
      ]
    (match mode with
    | Quick -> [ 10; 100; 1_000; 10_000 ]
    | Full -> [ 2; 10; 100; 1_000; 10_000 ])
    (fun accounts ->
      let _, m =
        G.sim
          ~point:(Printf.sprintf "aborts/accounts=%d" accounts)
          ~threads:32
          (G.p2p (p2p_spec ~flavor:P2p.Standard ~accounts ~block ~seed:42))
      in
      let per = G.per ~txns:block in
      [
        [
          string_of_int accounts;
          per m.incarnations;
          per m.validation_aborts;
          per m.dependency_aborts;
          per m.validations;
        ];
      ])

(* --- Ablations -------------------------------------------------------------- *)

let ablations _mode =
  let block = 1_000 in
  let threads = 16 in
  let w =
    P2p.generate (p2p_spec ~flavor:P2p.Standard ~accounts:100 ~block ~seed:42)
  in
  let b = G.block ~storage:w.storage w.txns in
  let paper = Harness.Bstm.default_config in
  G.table
    ~title:
      (Printf.sprintf
         "Ablations (standard p2p, %d accounts, block %d, %d threads)" 100
         block threads)
    ~header:[ "variant"; "tps"; "incarnations"; "val-aborts"; "dep-aborts" ]
    [
      ("baseline", paper);
      ( "no ESTIMATE markers (remove on abort)",
        { paper with marking = Remove_on_abort } );
      ( "no read-set pre-check before re-execution",
        { paper with prevalidate_reads = false } );
    ]
    (fun (label, config) ->
      let tps, m = G.sim ~config ~point:("ablations/" ^ label) ~threads b in
      [
        [
          label;
          fmt_tps tps;
          string_of_int m.incarnations;
          string_of_int m.validation_aborts;
          string_of_int m.dependency_aborts;
        ];
      ])

(* Domain counts swept by the real-domain experiments ([scaling], the
   gas-sharding wall-clock table and [sustained]). Overridable (bench
   --domains) so a multi-core host can sweep further than the default. *)
let domains_grid = ref [ 1; 2; 4 ]

let set_domains_grid = function [] -> () | l -> domains_grid := l

let bstm_config domains =
  { Harness.Bstm.default_config with num_domains = domains }

(* --- Gas sharding (§7): a single gas location makes any block sequential -- *)

let gas_block ~block ~shards =
  let g = Synthetic.gas ~block_size:block ~shards ~seed:42 in
  G.block ~storage:g.storage g.txns

let gas_sharding _mode =
  let block = 1_000 in
  G.table
    ~title:
      (Printf.sprintf
         "Gas metering (§7): throughput vs gas-counter shards (block %d, \
          otherwise independent txns)"
         block)
    ~header:[ "shards"; "threads"; "tps"; "val-aborts"; "dep-aborts" ]
    (G.cross [ 1; 2; 4; 8; 16; 32 ] [ 8; 32 ])
    (fun (shards, threads) ->
      let tps, m =
        G.sim
          ~point:
            (Printf.sprintf "gas_sharding/shards=%d/threads=%d" shards threads)
          ~threads (gas_block ~block ~shards)
      in
      [
        [
          string_of_int shards;
          string_of_int threads;
          fmt_tps tps;
          string_of_int m.validation_aborts;
          string_of_int m.dependency_aborts;
        ];
      ]);
  (* Real-domain companion (wall clock, report-only): the same single-vs-
     sharded gas counter measured on actual domains of this machine, plus
     the sharded block routed through execution lanes (§16) — the gas
     shards are exactly lane-partitionable. Thread scaling is bounded by
     the physical core count; the virtual-time table above carries the
     shape. *)
  G.table
    ~title:
      (Printf.sprintf
         "Gas metering (§7): real-domain wall clock on this machine (block %d)"
         block)
    ~header:[ "executor"; "shards"; "domains"; "tps (wall clock)" ]
    [ 1; 8 ]
    (fun shards ->
      let b = gas_block ~block ~shards in
      let row name domains tps =
        [ name; string_of_int shards; string_of_int domains; fmt_tps tps ]
      in
      let label = Printf.sprintf "gas_sharding/real/%s/shards=%d%s" in
      let seq =
        row "Sequential" 1
          (G.wall_tps ~n:3 ~label:(label "seq" shards "") b C.Sequential)
      in
      let domain_rows domains =
        let config = bstm_config domains in
        let at = Printf.sprintf "/domains=%d" domains in
        let bstm =
          row "Block-STM" domains
            (G.wall_tps ~n:3 ~label:(label "bstm" shards at) b
               (C.Block_stm config))
        in
        if shards = 1 then [ bstm ]
        else
          let lanes = min 4 shards in
          let partition =
            {
              Harness.LanesX.lanes;
              loc_lane = Synthetic.gas_lane ~block_size:block ~shards ~lanes;
            }
          in
          let specs = Synthetic.gas_specs ~block_size:block ~shards in
          [
            bstm;
            row (Printf.sprintf "Lanes (%d)" lanes) domains
              (G.wall_tps ~n:3 ~specs
                 ~label:(label (Printf.sprintf "lanes=%d" lanes) shards at)
                 b
                 (C.Lanes
                    {
                      config;
                      partition;
                      namespace = Some Ledger.Loc.namespace;
                    }));
          ]
      in
      seq :: List.concat_map domain_rows !domains_grid)

(* --- Lane scaling (§16): sharded execution lanes --------------------------- *)

(* Lane counts swept by [lane-scaling]; empty = pick per mode. Overridable
   (bench --lanes). *)
let lanes_grid = ref []
let set_lanes_grid = function [] -> () | l -> lanes_grid := l

(* One grid cell per (workload, lanes, threads): run the block through the
   single-instance engine and through [lanes] lane instances under the
   coordinator (both in virtual time); the oracle checks both against the
   block's sequential reference, and the row reports throughput plus the
   coordinator counters. *)
let lane_scaling mode =
  let block = 1_000 in
  let lanes_list =
    if !lanes_grid <> [] then !lanes_grid
    else match mode with Quick -> [ 1; 2; 4; 8 ] | Full -> [ 1; 2; 4; 8; 16 ]
  in
  let thread_grid =
    match mode with Quick -> [ 4; 8 ] | Full -> [ 1; 2; 4; 8; 16; 32 ]
  in
  (* Sharded gas (§7): with lanes dividing the shards every transaction is
     single-lane and each lane is an independent sequential chain — the
     lane-partitionable regime where the coordinator should recover the
     sharding speedup that a single optimistic instance burns on aborts. *)
  let shards = 8 in
  let gas = lazy (gas_block ~block ~shards) in
  let gas_cell lanes =
    ( "gas",
      lanes,
      lazy
        ( Lazy.force gas,
          {
            Harness.LanesX.lanes;
            loc_lane = Synthetic.gas_lane ~block_size:block ~shards ~lanes;
          },
          Synthetic.gas_specs ~block_size:block ~shards ) )
  in
  (* Laned p2p over an account-range partition: every transfer inside one
     lane unless the [cross] coin says otherwise. *)
  let p2p_cell ~workload ~accounts ~cross lanes =
    ( workload,
      lanes,
      lazy
        (let w =
           P2p.generate
             {
               (p2p_spec ~flavor:P2p.Standard ~accounts ~block ~seed:42) with
               P2p.lanes_hint = max lanes 1;
               cross_fraction = (if lanes > 1 then cross else 0.);
             }
         in
         ( G.block ~storage:w.storage w.txns,
           Harness.account_partition ~num_accounts:accounts ~lanes,
           P2p.txn_specs w )) )
  in
  let cells =
    List.map gas_cell (List.filter (fun l -> l <= shards) lanes_list)
    (* Contended-but-partitionable p2p: 16 accounts total, so every lane is
       a hot cluster of two accounts. A single optimistic instance burns
       most of its parallelism on aborts and re-executions here; lanes turn
       the same block into K independent hot clusters with no
       cross-instance conflicts — the headline regime (paper §4.1 high
       contention; tools/ci.sh gates >= 1.5x at 8 threads). *)
    @ List.map (p2p_cell ~workload:"p2p-hot" ~accounts:16 ~cross:0.) lanes_list
    (* Laned p2p sweeping how many transfers deliberately straddle lanes
       (coordinator overhead as cross-lane traffic grows). *)
    @ List.concat_map
        (fun cross ->
          List.map
            (p2p_cell
               ~workload:
                 (Printf.sprintf "p2p/cross=%d%%"
                    (int_of_float (Float.round (100. *. cross))))
               ~accounts:1_000 ~cross)
            lanes_list)
        [ 0.0; 0.05; 0.2 ]
  in
  G.table
    ~title:
      (Printf.sprintf
         "Lane scaling (§16): K lane instances + coordinator vs one engine \
          instance (block %d, virtual time; speedup vs single-instance at \
          the same thread count)"
         block)
    ~header:
      [
        "workload";
        "lanes";
        "threads";
        "tps";
        "speedup";
        "batches";
        "cross-txns";
        "imbalance";
      ]
    (G.cross cells thread_grid)
    (fun ((workload, lanes, cell), threads) ->
      let b, partition, specs = Lazy.force cell in
      let point =
        Printf.sprintf "lane_scaling/%s/lanes=%d/threads=%d" workload lanes
          threads
      in
      let single, _ = G.sim ~point ~threads b in
      let tps, s = G.sim_lanes ~point ~threads ~partition ~specs b in
      let speedup = tps /. single in
      Report.sample ~label:(point ^ "/tps") tps;
      Report.sample ~label:(point ^ "/speedup") speedup;
      [
        [
          workload;
          string_of_int lanes;
          string_of_int threads;
          fmt_tps tps;
          fmt_x speedup;
          string_of_int s.sl_batches;
          string_of_int s.sl_cross_lane_txns;
          Printf.sprintf "%.2f" s.sl_imbalance;
        ];
      ])

(* --- Scaling: real-domain throughput curve (regression surface) ------------ *)

(** The domains-vs-tps curve on real domains, low contention: the workloads
    where Block-STM should scale near-linearly (paper Fig. 3). [p2p-low]
    draws over 10^4 accounts, [p2p-1k] over 10^3; both carry artificial
    per-transaction work, so the measurement is dominated by transaction
    execution rather than harness overhead. Every point records its
    samples under [scaling/<workload>/<executor>/domains=N], making the
    curve a tracked regression surface: tools/ci.sh fails on multi-core
    hosts if p2p-low's 4-domain point drops below its 1-domain point. *)
let scaling mode =
  let block = match mode with Quick -> 2_000 | Full -> 10_000 in
  G.table
    ~title:
      (Printf.sprintf
         "Scaling: real-domain throughput, low contention (wall clock; this \
          host reports %d recommended domains)"
         (Domain.recommended_domain_count ()))
    ~header:[ "workload"; "executor"; "domains"; "tps"; "vs 1-domain" ]
    [ ("p2p-low", 10_000); ("p2p-1k", 1_000) ]
    (fun (workload, accounts) ->
      let w =
        P2p.generate
          {
            (p2p_spec ~flavor:P2p.Standard ~accounts ~block ~seed:42) with
            work = 100_000;
          }
      in
      let b = G.block ~storage:w.storage w.txns in
      let tps executor domains =
        G.wall_tps
          ~label:
            (Printf.sprintf "scaling/%s/%s/domains=%d" workload
               (match executor with C.Sequential -> "seq" | _ -> "bstm")
               domains)
          b executor
      in
      let seq = tps C.Sequential 1 in
      let bstm =
        List.map (fun d -> (d, tps (C.Block_stm (bstm_config d)) d))
          !domains_grid
      in
      let base = snd (List.hd bstm) in
      [ workload; "seq"; "1"; fmt_tps seq; "-" ]
      :: List.map
           (fun (d, v) ->
             [
               workload; "bstm"; string_of_int d; fmt_tps v; fmt_x (v /. base);
             ])
           bstm)

(* --- Rolling commit: time-to-commit latency --------------------------------- *)

let commit_latency mode =
  let block = match mode with Quick -> 1_000 | Full -> 5_000 in
  G.table
    ~title:
      "Rolling commit: per-transaction time-to-commit (wall clock, standard \
       p2p; lazy mode commits everything at the end, so its latency is the \
       block time)"
    ~header:
      [
        "accounts";
        "domains";
        "tps";
        "p50 (us)";
        "p95 (us)";
        "p99 (us)";
        "block (us)";
      ]
    (G.cross [ 100; 1_000 ] [ 1; 4 ])
    (fun (accounts, domains) ->
      let b =
        G.p2p (p2p_spec ~flavor:P2p.Standard ~accounts ~block ~seed:42)
      in
      let label p =
        Printf.sprintf "commit_%s_ns/accounts=%d/domains=%d" p accounts domains
      in
      let commit_ns = ref [||] in
      let ns =
        G.wall
          ~check:(fun (r : int Harness.Bstm.result) ->
            commit_ns := r.commit_ns;
            G.check ~point:(label "latency") b.oracle (r.snapshot, r.outputs))
          ~metric:Fun.id
          (fun _ ->
            Harness.run_blockstm ~config:(rolling_config domains)
              ~storage:b.storage b.txns)
      in
      let s = D.summarize (Array.map float_of_int !commit_ns) in
      Report.sample ~label:(label "p50") s.D.median;
      Report.sample ~label:(label "p95") s.D.p95;
      Report.sample ~label:(label "p99") s.D.p99;
      let us v = Printf.sprintf "%.0f" (v /. 1e3) in
      [
        [
          string_of_int accounts;
          string_of_int domains;
          fmt_tps (G.tps ~txns:block ns);
          us s.D.median;
          us s.D.p95;
          us s.D.p99;
          us ns;
        ];
      ])

(* --- Hotspot deltas: commutative aggregators vs the cliff (DESIGN.md §12) --- *)

let hotspot_delta mode =
  let block = 1_000 in
  let n = reps mode in
  G.table
    ~title:
      (Printf.sprintf
         "Hotspot deltas: paper read-modify-write vs commutative delta \
          entries (hotspot p2p, block %d, virtual time)"
         block)
    ~header:
      [
        "hot";
        "threads";
        "paper";
        "deltas";
        "speedup";
        "paper-aborts/txn";
        "delta-applies/txn";
      ]
    (G.cross [ 2; 10; 100 ] [ 1; 2; 4; 8 ])
    (fun (hot, threads) ->
      (* Same transfer blocks (same seeds) in both modes; only the engine's
         delta routing differs. *)
      let run ~delta_ops =
        let aborts = ref 0 and applies = ref 0 in
        let tps =
          G.seeds
            ~label:
              (Printf.sprintf "hotspot-delta/%s/hot=%d/block=%d/threads=%d"
                 (if delta_ops then "deltas" else "paper")
                 hot block threads)
            ~n
            (fun ~point seed ->
              let h =
                P2p.generate_hotspot
                  {
                    P2p.default_hotspot_spec with
                    h_hot_accounts = hot;
                    h_block_size = block;
                    h_seed = seed;
                  }
              in
              let tps, m =
                G.sim
                  ~config:{ Harness.Bstm.default_config with delta_ops }
                  ~point ~threads
                  (G.block ~storage:h.h_storage h.h_txns)
              in
              aborts := !aborts + m.validation_aborts;
              applies := !applies + m.delta_applies;
              tps)
        in
        (tps, !aborts, !applies)
      in
      let paper, paper_aborts, _ = run ~delta_ops:false in
      let deltas, _, delta_applies = run ~delta_ops:true in
      let per = G.per ~txns:(n * block) in
      [
        [
          string_of_int hot;
          string_of_int threads;
          fmt_tps paper;
          fmt_tps deltas;
          fmt_x (deltas /. paper);
          per paper_aborts;
          per delta_applies;
        ];
      ])

(* --- VM cost: tree-walk vs compiled MiniMove VM (DESIGN.md §11) ------------- *)

(* Read-trace replay harness for the [vm] executor rows: run the block
   sequentially once (untimed), recording the value every read observed;
   the timed runs then replay each transaction against its recorded trace —
   an array index per read, writes discarded. Every transaction executes
   exactly its committed path (MiniMove is deterministic given its read
   values), so the measurement isolates VM execution cost from all
   storage/executor bookkeeping. *)
let mm_read_traces ~storage (txns : (_, _, 'o) Blockstm_kernel.Txn.t array) :
    Blockstm_minimove.Mv_value.Value.t option array array =
  let open Blockstm_kernel in
  let overlay = Hashtbl.create 4096 in
  Array.map
    (fun txn ->
      let buf = ref [] in
      let read loc =
        let v =
          match Hashtbl.find_opt overlay loc with
          | Some _ as v -> v
          | None -> storage loc
        in
        buf := v :: !buf;
        v
      in
      let write loc v = Hashtbl.replace overlay loc v in
      let delta =
        Txn.rmw_delta ~read ~write
          ~as_counter:Blockstm_minimove.Mv_value.Value.as_counter
          ~of_counter:Blockstm_minimove.Mv_value.Value.of_counter
      in
      ignore (txn { Txn.read; write; delta });
      Array.of_list (List.rev !buf))
    txns

let mm_replay (txns : (_, _, 'o) Blockstm_kernel.Txn.t array) traces =
  let open Blockstm_kernel in
  Array.iteri
    (fun j txn ->
      let trace = traces.(j) in
      let i = ref 0 in
      let read _ =
        let v = Array.unsafe_get trace !i in
        incr i;
        v
      in
      let write _ _ = () in
      (* Consumes one trace slot per delta op, mirroring the recording
         side's read-modify-write implementation. *)
      let delta =
        Txn.rmw_delta ~read ~write
          ~as_counter:Blockstm_minimove.Mv_value.Value.as_counter
          ~of_counter:Blockstm_minimove.Mv_value.Value.of_counter
      in
      ignore (txn { Txn.read; write; delta }))
    txns

(* [pairs] ratios time(a) / time(b) of interleaved runs of [a] and [b], the
   first of each pair alternating. *)
let pair_ratios ~pairs a b =
  let time f = Int64.to_float (snd (Blockstm_stats.Clock.time_ns f)) in
  Array.init pairs (fun i ->
      if i mod 2 = 0 then
        let ta = time a in
        ta /. time b
      else
        let tb = time b in
        time a /. tb)

(* Each transaction wrapped to stamp its own VM time into [ns]. Incarnations
   of one transaction run one after another, so after a Block-STM run slot
   [j] holds the time of tx_j's last completed call: its committed
   incarnation. *)
let timed_txns (txns : (_, _, 'o) Blockstm_kernel.Txn.t array) =
  let ns = Array.make (Array.length txns) 0 in
  let now = Blockstm_obs.Trace.now_ns in
  ( Array.mapi
      (fun j txn e ->
        let t0 = now () in
        let o = txn e in
        ns.(j) <- now () - t0;
        o)
      txns,
    ns )

(* One vm-cost table over [accounts]: per (flavor, VM), the pure-VM trace
   replay, the sequential executor and Block-STM at each of [domains], each
   the best of [n] wall-clock runs; every compiled row also reports its
   speedup over the matching tree-walk row. The compiled vm row's speedup
   is instead the median ratio of 21 replay pairs alternating between the
   two VMs: replays within one process agree to about 10% while whole
   processes spread 2.4-7x, and tools/ci.sh gates on that cell. A row
   starts with [key]'s cell for its flavor, under [key]'s header; [prefix]
   starts the sample labels. *)
let vm_cost_table ~title ~key:(key_header, key_cell) ~prefix ~accounts ~flavors
    ~domains ~block ~n =
  let open Blockstm_minimove in
  (* Tree-walk tps per (flavor, executor, domains), so each compiled row can
     report its speedup against the matching tree-walk row, and each
     flavor's tree-walk replay, for the compiled replay to alternate with. *)
  let base = Hashtbl.create 16 and tree_replay = Hashtbl.create 2 in
  G.table ~title
    ~header:[ key_header; "vm"; "executor"; "domains"; "tps"; "vs tree-walk" ]
    (G.cross flavors [ Runtime.Tree_walk; Runtime.Compiled ])
    (fun (flavor, vm) ->
      let fname = P2p.flavor_name flavor in
      let vname = Runtime.vm_name vm in
      let label executor domains =
        Printf.sprintf "%s/%s/%s/%s/domains=%d" prefix fname vname executor
          domains
      in
      let row ?vs executor domains tps =
        let key = (fname, executor, domains) in
        let vs =
          match (vm, vs) with
          | _, Some vs -> vs
          | Runtime.Tree_walk, None ->
              Hashtbl.replace base key tps;
              "-"
          | Runtime.Compiled, None -> (
              match Hashtbl.find_opt base key with
              | Some b -> fmt_x (tps /. b)
              | None -> "-")
        in
        [
          key_cell fname; vname; executor; string_of_int domains; fmt_tps tps;
          vs;
        ]
      in
      (* Same spec (and seed) for both VMs: identical transfer blocks. *)
      let w =
        Mm_p2p.generate
          {
            Mm_p2p.default_spec with
            flavor;
            vm;
            num_accounts = accounts;
            block_size = block;
          }
      in
      let storage () = Runtime.Store.reader w.storage in
      let oracle =
        {
          G.reference =
            lazy
              (let r = Runtime.Seq.run ~storage:(storage ()) w.txns in
               (r.snapshot, r.outputs));
          same =
            G.same_result ~loc:Mv_value.Loc.equal ~value:Mv_value.Value.equal
              ~output:Mv_value.Value.equal;
        }
      in
      let tps ?check executor domains run =
        G.wall ~n ~label:(label executor domains) ?check
          ~metric:(G.tps ~txns:block) run
      in
      let traces = mm_read_traces ~storage:(storage ()) w.txns in
      let replay () = mm_replay w.txns traces in
      let vm_tps = tps "vm" 1 (fun _ -> replay ()) in
      let vm_vs =
        match vm with
        | Runtime.Tree_walk ->
            Hashtbl.replace tree_replay fname replay;
            None
        | Runtime.Compiled ->
            Option.map
              (fun tree ->
                let r = pair_ratios ~pairs:21 tree replay in
                Array.iter (Report.sample ~label:(label "vm_pair_ratio" 1)) r;
                Printf.sprintf "%.2fx" (D.median r))
              (Hashtbl.find_opt tree_replay fname)
      in
      let seq_tps =
        tps "seq" 1
          ~check:(fun (r : _ Runtime.Seq.result) ->
            G.check ~point:(label "seq" 1) oracle (r.snapshot, r.outputs))
          (fun _ -> Runtime.Seq.run ~storage:(storage ()) w.txns)
      in
      let timed, exec_ns = timed_txns w.txns in
      let bstm_row domains =
        let config =
          { Runtime.Bstm.default_config with num_domains = domains }
        in
        let v =
          tps "bstm" domains
            ~check:(fun (r : _ Runtime.Bstm.result) ->
              G.check ~point:(label "bstm" domains) oracle
                (r.snapshot, r.outputs))
            (fun _ -> Runtime.Bstm.run ~config ~storage:(storage ()) timed)
        in
        (* Per-txn VM time of the committed incarnations (last run): the
           per-transaction histogram of the JSON report. *)
        Report.histogram
          ~label:
            (Printf.sprintf "%s/%s/%s/exec_ns/domains=%d" prefix fname vname
               domains)
          (Array.map float_of_int exec_ns);
        row "bstm" domains v
      in
      row ?vs:vm_vs "vm" 1 vm_tps :: row "seq" 1 seq_tps
      :: List.map bstm_row domains)

let vm_cost mode =
  let block = match mode with Quick -> 2_000 | Full -> 5_000 in
  let n = reps mode in
  vm_cost_table
    ~title:
      (Printf.sprintf
         "VM cost: tree-walk interpreter vs compiled closures (MiniMove p2p, \
          1000 accounts, block %d, wall clock, best of %d)"
         block n)
    ~key:("flavor", Fun.id) ~prefix:"vm-cost" ~accounts:1_000
    ~flavors:[ P2p.Standard; P2p.Simplified ]
    ~domains:[ 1; 2; 4; 8 ] ~block ~n;
  (* The contended coin point: standard-flavor transfers among 100
     accounts. Its rows are keyed by the account count, so they never
     match the first table's flavor-keyed rows. *)
  vm_cost_table
    ~title:
      (Printf.sprintf
         "VM cost, contended coin point: tree-walk interpreter vs compiled \
          closures (MiniMove standard p2p, 100 accounts, block %d, wall \
          clock, best of %d)"
         block n)
    ~key:("accounts", fun _ -> "100")
    ~prefix:"vm-cost/accounts=100" ~accounts:100 ~flavors:[ P2p.Standard ]
    ~domains:[ 1; 4 ] ~block ~n

(* --- State scale: incremental Merkle roots vs whole-state fold (§13) -------- *)

let state_scale mode =
  let block = 10_000 in
  let domains = 4 in
  G.table
    ~title:
      (Printf.sprintf
         "State scale: per-block root update, whole-state fold vs \
          incremental Merkle (transfer block %d, wall clock)"
         block)
    ~header:
      [
        "accounts"; "block"; "fold (ms)"; "incr (ms)"; "speedup"; "roots";
        "build (ms)";
      ]
    (match mode with
    | Quick -> [ 1_000; 10_000; 100_000 ]
    | Full -> [ 1_000; 10_000; 100_000; 1_000_000 ])
    (fun accounts ->
      let label k = Printf.sprintf "state-scale/%s/accounts=%d" k accounts in
      let w1 =
        Bigstate.transfers ~block_size:block ~num_accounts:accounts ~seed:42 ()
      in
      (* Same transfer block through sequential and Block-STM (rolling
         commit), both on the Merkle substrate: the authenticated roots must
         agree at every grid point. *)
      let root_after executor =
        let c = C.create ~executor ~genesis:w1.storage () in
        ((C.execute_block c w1.txns).state_root, c)
      in
      let seq_root, seq_chain = root_after C.Sequential in
      G.check ~point:(label "roots")
        { G.reference = lazy seq_root; same = Int64.equal }
        (fst (root_after (C.Block_stm (rolling_config domains))));
      let m = C.merkle_state seq_chain in
      let roots_ok =
        Int64.equal (C.Mstore.root m) (C.Mstore.recompute_root m)
      in
      (* Cost of folding a further block's delta into the post-state and
         producing the new root. The yardstick is a flat copy of the state
         digested from scratch by a sorted fold over every binding; the
         Merkle substrate refreshes only the dirty digest paths. Repetition
         [r] applies one block's delta ([r] even) or the delta that undoes
         it ([r] odd) to both stores, so each repetition rewrites the same
         locations and the stores stay in sync. The sides alternate within
         this process, the first side alternating too, and each side's time
         is the median of its repetitions: per-side minima from separate
         runs swung 20-30% with the host's load. *)
      let flat = Ledger.Store.copy (C.state seq_chain) in
      let deltas =
        let w =
          Bigstate.transfers ~block_size:block ~num_accounts:accounts ~seed:43
            ()
        in
        let d = (Harness.run_sequential ~storage:flat w.txns).snapshot in
        let undo =
          List.map (fun (l, _) -> (l, Option.get (Ledger.Store.get flat l))) d
        in
        [| d; undo |]
      in
      let reps = 11 in
      let time k f rep =
        let ns =
          Int64.to_float (snd (Blockstm_stats.Clock.time_ns (fun () -> f rep)))
        in
        Report.sample ~label:(label k) ns;
        ns
      in
      let fold =
        time "fold_ns" (fun rep ->
            Ledger.Store.apply_delta flat deltas.(rep mod 2);
            C.digest ~hash_loc:Ledger.Loc.hash ~hash_value:Ledger.Value.hash
              (Ledger.Store.to_alist flat))
      and incr =
        time "incr_ns" (fun rep ->
            ignore (C.Mstore.apply_delta m deltas.(rep mod 2));
            C.Mstore.root m)
      in
      let fold_ns = Array.make reps 0. and incr_ns = Array.make reps 0. in
      for rep = 0 to reps - 1 do
        if rep mod 2 = 0 then begin
          fold_ns.(rep) <- fold rep;
          incr_ns.(rep) <- incr rep
        end
        else begin
          incr_ns.(rep) <- incr rep;
          fold_ns.(rep) <- fold rep
        end
      done;
      let fold_ns = D.median fold_ns and incr_ns = D.median incr_ns in
      (* Building the Merkle substrate over the genesis: one copy of the
         table and one hashing sweep (DESIGN.md §13). Report-only. *)
      let build_ns =
        G.wall ~n:3 ~label:(label "build_ns") ~metric:Fun.id (fun _ ->
            C.create ~executor:C.Sequential ~genesis:w1.storage ())
      in
      let speedup = fold_ns /. incr_ns in
      Report.sample ~label:(label "speedup") speedup;
      Report.sample ~label:(label "roots_equal") (if roots_ok then 1. else 0.);
      [
        [
          string_of_int accounts;
          string_of_int block;
          Printf.sprintf "%.2f" (fold_ns /. 1e6);
          Printf.sprintf "%.2f" (incr_ns /. 1e6);
          fmt_x speedup;
          (if roots_ok then "ok" else "MISMATCH");
          Printf.sprintf "%.1f" (build_ns /. 1e6);
        ];
      ])

(* --- Sustained throughput: block streams and the mempool (DESIGN.md §14) ---- *)

(* Knobs for the [sustained] experiment, settable from the command line
   (bench --mempool-rate/--block-size/--block-deadline-ms). Zero means "use
   the mode default". *)
let sustained_rate = ref 0. (* Poisson arrivals/s; 0 = 60% of measured tps *)
let sustained_block_size = ref 0 (* target txns per block cut *)
let sustained_deadline_ms = ref 25. (* block cut deadline *)

let set_sustained_rate r = if r > 0. then sustained_rate := r
let set_sustained_block_size b = if b > 0 then sustained_block_size := b
let set_sustained_deadline_ms d = if d > 0. then sustained_deadline_ms := d

(* A transfer with no cross-transaction assertions: deterministic for any
   serialization, so the Poisson phase can cut blocks at arbitrary
   boundaries (a deadline cut does not care which sender lands where). The
   throughput phase uses the real p2p scripts, whose sequence numbers a
   stream must — and does — preserve. *)
let free_transfer ~work ~sender ~recipient ~amount :
    (Ledger.Loc.t, Ledger.Value.t, int) Blockstm_kernel.Txn.t =
 fun e ->
  let open Ledger in
  let cfg = ref 0 in
  for g = 0 to 5 do
    cfg := !cfg + read_int e (global g)
  done;
  let s_bal = read_int e (balance sender) in
  let r_bal = read_int e (balance recipient) in
  P2p.spin work;
  let amt = min amount s_bal in
  e.write (balance sender) (Value.Int (s_bal - amt));
  e.write (balance recipient) (Value.Int (r_bal + amt));
  amt

let sustained mode =
  let module Mp = Blockstm_chain.Mempool in
  let block =
    if !sustained_block_size > 0 then !sustained_block_size
    else match mode with Quick -> 500 | Full -> 2_000
  in
  let nblocks = match mode with Quick -> 6 | Full -> 12 in
  let work = 50_000 in
  let accounts = 10_000 in
  let spec =
    { (p2p_spec ~flavor:P2p.Standard ~accounts ~block ~seed:42) with work }
  in
  let ws = P2p.generate_stream spec ~nblocks in
  let blocks = List.map (fun w -> w.P2p.txns) ws in
  let genesis = (List.hd ws).P2p.storage in
  let total = nblocks * block in
  (* The oracle of a block stream: the same blocks committed one by one by
     the sequential executor. *)
  let oracle blocks =
    {
      G.reference =
        lazy
          (let c = C.create ~executor:C.Sequential ~genesis () in
           List.iter (fun b -> ignore (C.execute_block c b)) blocks;
           c);
      same = (fun r c -> C.first_divergence r c = None);
    }
  in
  (* Phase B — steady-state committed throughput over a deterministic block
     stream, checked against the per-block sequential reference at every
     grid point. *)
  let stream_oracle = oracle blocks in
  let tps_tbl = Hashtbl.create 16 in
  G.table
    ~title:
      (Printf.sprintf
         "Sustained stream: committed throughput over %d-block streams \
          (standard p2p, %d accounts, block %d, wall clock)"
         nblocks accounts block)
    ~header:[ "domains"; "tps"; "roots" ]
    !domains_grid
    (fun domains ->
      let chain =
        C.create ~executor:(C.Block_stm (rolling_config domains)) ~genesis ()
      in
      let label = Printf.sprintf "sustained/domains=%d" domains in
      let tps =
        G.wall ~label ~metric:(G.tps ~txns:total) (fun _ ->
            C.execute_blocks chain blocks)
      in
      G.check ~point:label stream_oracle chain;
      Hashtbl.replace tps_tbl domains tps;
      Report.sample
        ~label:(Printf.sprintf "sustained/roots_equal/domains=%d" domains)
        1.;
      [ [ string_of_int domains; fmt_tps tps; "ok" ] ]);
  (* Phase A — commit latency under Poisson ingestion: a producer domain
     submits boundary-insensitive transfers through the bounded mempool at
     rate lambda; the driver cuts blocks at [block] txns or the deadline and
     commits continuously. Latency = block-commit wall time - submission.
     The oracle replays the blocks as cut through the sequential
     executor. *)
  let domains = List.fold_left max 1 !domains_grid in
  let rate =
    if !sustained_rate > 0. then !sustained_rate
    else
      let measured = Hashtbl.find_opt tps_tbl domains in
      0.6 *. Option.value ~default:5_000. measured
  in
  let deadline_ns = int_of_float (!sustained_deadline_ms *. 1e6) in
  let lat_nblocks = match mode with Quick -> 4 | Full -> 8 in
  let lat_total = lat_nblocks * block in
  let lat_txns =
    let rng = Rng.create 7 in
    Array.init lat_total (fun _ ->
        let s, r = Rng.distinct_pair rng accounts in
        free_transfer ~work ~sender:s ~recipient:r
          ~amount:(1 + Rng.int rng 100))
  in
  G.table
    ~title:
      (Printf.sprintf
         "Sustained stream: commit latency under Poisson ingestion (rate \
          %.0f tps, block %d or %.0f ms, %d domains)"
         rate block !sustained_deadline_ms domains)
    ~header:
      [ "tps"; "p50 ms"; "p95 ms"; "p99 ms"; "blocks"; "depth p95"; "idle ms" ]
    [ () ]
    (fun () ->
      let mp = Mp.create ~capacity:(4 * block) () in
      let interval_ns = 1e9 /. rate in
      let producer =
        Domain.spawn (fun () ->
            (* Deterministic Poisson process: exponential inter-arrivals
               from the seeded RNG, busy-waiting to each arrival time. *)
            let prng = Rng.create 99 in
            let due = ref (float_of_int (Blockstm_obs.Trace.now_ns ())) in
            Array.iter
              (fun txn ->
                let u =
                  float_of_int (1 + Rng.int prng 1_000_000) /. 1_000_001.
                in
                due := !due -. (Float.log u *. interval_ns);
                while float_of_int (Blockstm_obs.Trace.now_ns ()) < !due do
                  Domain.cpu_relax ()
                done;
                ignore (Mp.submit mp (Blockstm_obs.Trace.now_ns (), txn)))
              lat_txns;
            Mp.close mp)
      in
      let chain =
        C.create ~executor:(C.Block_stm (rolling_config domains)) ~genesis ()
      in
      (* Submission stamps of each cut block, FIFO: commits arrive in cut
         order, so [on_block] pops the matching stamps. The mempool's depth
         is sampled right after each cut. *)
      let submit_q : int array Queue.t = Queue.create () in
      let cut = ref [] in
      let lats = ref [] and depths = ref [] in
      let next () =
        match Mp.next_block mp ~max_txns:block ~deadline_ns with
        | [||] -> None
        | b ->
            depths := float_of_int (Mp.depth mp) :: !depths;
            Queue.push (Array.map fst b) submit_q;
            let txns = Array.map snd b in
            cut := txns :: !cut;
            Some txns
      in
      let on_block (_ : _ C.block_commit) =
        let now = Blockstm_obs.Trace.now_ns () in
        Array.iter
          (fun s -> lats := (float_of_int (now - s) /. 1e6) :: !lats)
          (Queue.pop submit_q)
      in
      let stats = ref None in
      let ns =
        G.wall
          ~check:(fun (_, s) -> stats := Some s)
          ~metric:Fun.id
          (fun _ -> C.execute_stream ~on_block chain ~next)
      in
      Domain.join producer;
      G.check ~point:"sustained/latency" (oracle (List.rev !cut)) chain;
      let stats = Option.get !stats in
      let s = D.summarize (Array.of_list !lats) in
      let label p = Printf.sprintf "sustained/latency/%s_ms" p in
      Report.sample ~label:(label "p50") s.D.median;
      Report.sample ~label:(label "p95") s.D.p95;
      Report.sample ~label:(label "p99") s.D.p99;
      let depth_p95 = D.percentile 95. (Array.of_list !depths) in
      let ms v = Printf.sprintf "%.1f" v in
      [
        [
          fmt_tps (G.tps ~txns:lat_total ns);
          ms s.D.median;
          ms s.D.p95;
          ms s.D.p99;
          string_of_int stats.C.s_blocks;
          Printf.sprintf "%.0f" depth_p95;
          Printf.sprintf "%.1f" (float_of_int stats.C.s_idle_ns /. 1e6);
        ];
      ])

(* --- Registry ---------------------------------------------------------------- *)

let all : (string * string * (mode -> unit)) list =
  [
    ("fig3", "Figure 3: BSTM/LiTM/BOHM/Seq, standard p2p", fig3);
    ("fig4", "Figure 4: BSTM/LiTM/BOHM/Seq, simplified p2p", fig4);
    ("fig5", "Figure 5: high-contention workloads", fig5);
    ("fig6", "Figure 6: throughput vs batch size", fig6);
    ("seq-overhead", "Sequential-workload overhead bound", seq_overhead);
    ("aborts", "Abort-rate analysis vs contention", aborts);
    ("ablations", "Design-choice ablations", ablations);
    ("gas-sharding", "Gas metering: single vs sharded counter (§7)", gas_sharding);
    ("lane-scaling", "Sharded execution lanes vs single instance (§16)", lane_scaling);
    ("scaling", "Real-domain scaling curve, low contention", scaling);
    ("commit-latency", "Rolling commit: time-to-commit percentiles", commit_latency);
    ("hotspot-delta", "Hotspot deltas: commutative aggregators vs RMW (§12)", hotspot_delta);
    ("state-scale", "State scale: incremental Merkle roots vs whole-state fold (§13)", state_scale);
    ("vm-cost", "VM cost: tree-walk vs compiled MiniMove VM (§11)", vm_cost);
    ("sustained", "Sustained: block streams and the mempool (§14)", sustained);
  ]
