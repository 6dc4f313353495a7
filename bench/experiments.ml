(** The paper's evaluation, experiment by experiment (DESIGN.md §5).

    Every figure/table of Section 4.1 has a function here that regenerates
    its rows. Thread-scaling numbers come from the virtual-time executor
    (this host has one physical core — see DESIGN.md §3 for why the shape is
    preserved); a separate experiment reports real-domain wall-clock numbers
    for this machine.

    [mode] selects grid size: [`Quick] (default, used by `dune exec
    bench/main.exe`) keeps the full structure with a reduced grid; [`Full]
    runs the paper's complete parameter grid. *)

open Blockstm_workload
module CM = Blockstm_simexec.Cost_model
module VE = Blockstm_simexec.Virtual_exec
module T = Blockstm_stats.Table
module D = Blockstm_stats.Descriptive

type mode = Quick | Full

let threads_grid = function
  | Quick -> [ 1; 4; 16; 32 ]
  | Full -> [ 1; 2; 4; 8; 16; 32 ]

let blocks_grid = function Quick -> [ 1_000 ] | Full -> [ 1_000; 10_000 ]

(* Number of repetitions per data point (the paper averages 10; the virtual
   executor is deterministic given a seed, so we vary seeds instead). *)
let reps = function Quick -> 2 | Full -> 5

let fmt_tps v =
  if Float.is_finite v then Printf.sprintf "%.0f" v else "inf"

let fmt_x v = Printf.sprintf "%.1fx" v

let rolling_config domains =
  Harness.Bstm.optimistic_config ~num_domains:domains (fun o ->
      { o with rolling_commit = true })

let spec_seeding = Harness.Bstm.Estimates { seed_from_specs = true }

(* Average a measurement over seeds; [label] additionally records each
   per-seed sample in the JSON report (p50/p99 come from these). *)
let avg_over_seeds ?label mode f =
  let n = reps mode in
  let xs = Array.init n (fun i -> f (42 + (1000 * i))) in
  (match label with
  | Some label -> Array.iter (fun v -> Report.sample ~label v) xs
  | None -> ());
  D.mean xs

(* Best-of-n wall-clock measurement: report the fastest of [n] runs (robust
   to scheduler/GC noise on a shared host — the standard methodology for
   speedup claims); every run is still recorded as a raw sample. *)
let best_of ~label n f =
  let best = ref neg_infinity in
  for _ = 1 to n do
    let v = f () in
    Report.sample ~label v;
    if v > !best then best := v
  done;
  !best

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

let sample_label ~algo ~flavor ~accounts ~block ~threads =
  Printf.sprintf "%s/%s/accounts=%d/block=%d/threads=%d" algo
    (P2p.flavor_name flavor) accounts block threads

let bstm_tps ?config ~flavor ~accounts ~block ~threads mode =
  avg_over_seeds
    ~label:(sample_label ~algo:"bstm_tps" ~flavor ~accounts ~block ~threads)
    mode
    (fun seed ->
      let w = P2p.generate (p2p_spec ~flavor ~accounts ~block ~seed) in
      let _, stats =
        Harness.sim_blockstm ?config ~num_threads:threads ~storage:w.storage
          w.txns
      in
      VE.tps ~txns:block stats)

let bohm_tps ~flavor ~accounts ~block ~threads mode =
  avg_over_seeds
    ~label:(sample_label ~algo:"bohm_tps" ~flavor ~accounts ~block ~threads)
    mode
    (fun seed ->
      let w = P2p.generate (p2p_spec ~flavor ~accounts ~block ~seed) in
      let us =
        Harness.sim_bohm_makespan ~num_threads:threads ~storage:w.storage
          w.txns
      in
      Harness.tps_of_makespan ~txns:block us)

let litm_tps ~flavor ~accounts ~block ~threads mode =
  avg_over_seeds
    ~label:(sample_label ~algo:"litm_tps" ~flavor ~accounts ~block ~threads)
    mode
    (fun seed ->
      let w = P2p.generate (p2p_spec ~flavor ~accounts ~block ~seed) in
      let us, _ =
        Harness.sim_litm_makespan ~num_threads:threads ~storage:w.storage
          ~reads_per_txn:(P2p.reads_per_txn flavor)
          ~writes_per_txn:(P2p.writes_per_txn flavor)
          w.txns
      in
      Harness.tps_of_makespan ~txns:block us)

(* --- Figures 3 and 4: BSTM vs LiTM vs BOHM vs Sequential ------------------ *)

let fig_comparison ~flavor ~fig mode =
  let flavor_name = P2p.flavor_name flavor in
  List.iter
    (fun block ->
      let t =
        T.create
          ~title:
            (Printf.sprintf
               "Figure %d: %s p2p, block size %d (throughput, tps)" fig
               flavor_name block)
          ~header:
            [ "accounts"; "threads"; "Sequential"; "BSTM"; "BOHM"; "LiTM" ]
      in
      List.iter
        (fun accounts ->
          List.iter
            (fun threads ->
              let seq = seq_tps ~flavor in
              let bstm = bstm_tps ~flavor ~accounts ~block ~threads mode in
              let bohm = bohm_tps ~flavor ~accounts ~block ~threads mode in
              let litm = litm_tps ~flavor ~accounts ~block ~threads mode in
              T.add_row t
                [
                  string_of_int accounts;
                  string_of_int threads;
                  fmt_tps seq;
                  fmt_tps bstm;
                  fmt_tps bohm;
                  fmt_tps litm;
                ])
            (threads_grid mode))
        [ 1_000; 10_000 ];
      Report.emit_table t)
    (blocks_grid mode)

let fig3 mode = fig_comparison ~flavor:P2p.Standard ~fig:3 mode
let fig4 mode = fig_comparison ~flavor:P2p.Simplified ~fig:4 mode

(* --- Figure 5: highly contended workloads --------------------------------- *)

let fig5 mode =
  List.iter
    (fun flavor ->
      List.iter
        (fun block ->
          let t =
            T.create
              ~title:
                (Printf.sprintf
                   "Figure 5: high contention, %s p2p, block size %d"
                   (P2p.flavor_name flavor) block)
              ~header:
                [ "accounts"; "threads"; "Sequential"; "BSTM"; "speedup" ]
          in
          List.iter
            (fun accounts ->
              List.iter
                (fun threads ->
                  let seq = seq_tps ~flavor in
                  let bstm =
                    bstm_tps ~flavor ~accounts ~block ~threads mode
                  in
                  T.add_row t
                    [
                      string_of_int accounts;
                      string_of_int threads;
                      fmt_tps seq;
                      fmt_tps bstm;
                      fmt_x (bstm /. seq);
                    ])
                (threads_grid mode))
            [ 2; 10; 100 ];
          Report.emit_table t)
        (blocks_grid mode))
    [ P2p.Standard; P2p.Simplified ]

(* --- Figure 6: maximum throughput vs batch size ---------------------------- *)

let fig6 mode =
  let batches =
    match mode with
    | Quick -> [ 1_000; 5_000; 10_000 ]
    | Full -> [ 1_000; 5_000; 10_000; 20_000; 50_000 ]
  in
  List.iter
    (fun flavor ->
      let t =
        T.create
          ~title:
            (Printf.sprintf "Figure 6: BSTM throughput vs batch size, %s p2p"
               (P2p.flavor_name flavor))
          ~header:[ "batch"; "threads"; "BSTM tps"; "speedup vs seq" ]
      in
      List.iter
        (fun block ->
          List.iter
            (fun threads ->
              let bstm =
                bstm_tps ~flavor ~accounts:10_000 ~block ~threads mode
              in
              T.add_row t
                [
                  string_of_int block;
                  string_of_int threads;
                  fmt_tps bstm;
                  fmt_x (bstm /. seq_tps ~flavor);
                ])
            [ 16; 32 ])
        batches;
      Report.emit_table t)
    [ P2p.Standard; P2p.Simplified ]

(* --- Sequential-overhead table (§4.1 "at most 30% overhead") --------------- *)

let seq_overhead mode =
  let t =
    T.create
      ~title:
        "Sequential workload overhead (2 accounts, standard p2p): BSTM vs \
         sequential"
      ~header:[ "threads"; "Sequential tps"; "BSTM tps"; "overhead" ]
  in
  let block = 1_000 in
  List.iter
    (fun threads ->
      let seq = seq_tps ~flavor:P2p.Standard in
      let bstm =
        bstm_tps ~flavor:P2p.Standard ~accounts:2 ~block ~threads mode
      in
      T.add_row t
        [
          string_of_int threads;
          fmt_tps seq;
          fmt_tps bstm;
          Printf.sprintf "%.0f%%" (((seq /. bstm) -. 1.) *. 100.);
        ])
    (threads_grid mode);
  Report.emit_table t

(* --- Abort-rate analysis (§4.1 discussion) --------------------------------- *)

let aborts mode =
  let t =
    T.create
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
  in
  let block = 1_000 in
  List.iter
    (fun accounts ->
      let w =
        P2p.generate
          (p2p_spec ~flavor:P2p.Standard ~accounts ~block ~seed:42)
      in
      let result, _ =
        Harness.sim_blockstm ~num_threads:32 ~storage:w.storage w.txns
      in
      let m = result.metrics in
      let per x = Printf.sprintf "%.3f" (float_of_int x /. float_of_int block) in
      T.add_row t
        [
          string_of_int accounts;
          per m.incarnations;
          per m.validation_aborts;
          per m.dependency_aborts;
          per m.validations;
        ])
    (match mode with
    | Quick -> [ 10; 100; 1_000; 10_000 ]
    | Full -> [ 2; 10; 100; 1_000; 10_000 ]);
  Report.emit_table t

(* --- Ablations -------------------------------------------------------------- *)

let ablation_row ~label ~config ?specs ~threads w block =
  let result, stats =
    Harness.sim_blockstm ~config ?specs ~num_threads:threads
      ~storage:w.P2p.storage w.P2p.txns
  in
  let m = result.metrics in
  [
    label;
    fmt_tps (VE.tps ~txns:block stats);
    string_of_int m.incarnations;
    string_of_int m.validation_aborts;
    string_of_int m.dependency_aborts;
  ]

let ablations _mode =
  let block = 1_000 in
  let threads = 16 in
  let w =
    P2p.generate
      (p2p_spec ~flavor:P2p.Standard ~accounts:100 ~block ~seed:42)
  in
  let base = Harness.Bstm.default_config in
  let t =
    T.create
      ~title:
        (Printf.sprintf
           "Ablations (standard p2p, %d accounts, block %d, %d threads)" 100
           block threads)
      ~header:[ "variant"; "tps"; "incarnations"; "val-aborts"; "dep-aborts" ]
  in
  T.add_row t (ablation_row ~label:"baseline" ~config:base ~threads w block);
  T.add_row t
    (ablation_row ~label:"no ESTIMATE markers (remove on abort)"
       ~config:
         (Harness.Bstm.optimistic_config (fun o ->
              { o with marking = Remove_on_abort }))
       ~threads w block);
  T.add_row t
    (ablation_row ~label:"no read-set pre-check before re-execution"
       ~config:
         (Harness.Bstm.optimistic_config (fun o ->
              { o with prevalidate_reads = false }))
       ~threads w block);
  (* Write-set pre-estimation (§7) is spec seeding over specs that declare
     the exact writes and claim nothing about reads: the same ESTIMATE
     markers, and no transaction provably independent, so no skipped
     validation. *)
  let declared =
    Array.map
      (fun ws ->
        Blockstm_kernel.Access_spec.
          {
            reads = [ Unknown ];
            writes = Array.to_list (Array.map (fun l -> Exact l) ws);
          })
      w.declared_writes
  in
  T.add_row t
    (ablation_row ~label:"write-set pre-estimation (declared writes)"
       ~config:
         (Harness.Bstm.optimistic_config (fun o ->
              { o with marking = spec_seeding }))
       ~specs:declared ~threads w block);
  Report.emit_table t

(* Domain counts swept by the real-domain experiments ([scaling] and the
   gas-sharding wall-clock table). Overridable (bench --domains / blockstm
   exp --domains / BLOCKSTM_BENCH_DOMAINS) so a multi-core host can sweep
   further than this machine's default. *)
let domains_grid = ref [ 1; 2; 4 ]

let set_domains_grid = function [] -> () | l -> domains_grid := l

(* --- Gas sharding (§7): a single gas location makes any block sequential -- *)

let gas_sharding _mode =
  let block = 1_000 in
  let t =
    T.create
      ~title:
        (Printf.sprintf
           "Gas metering (§7): throughput vs gas-counter shards (block %d, \
            otherwise independent txns)"
           block)
      ~header:[ "shards"; "threads"; "tps"; "val-aborts"; "dep-aborts" ]
  in
  List.iter
    (fun shards ->
      List.iter
        (fun threads ->
          let g = Synthetic.gas ~block_size:block ~shards ~seed:42 in
          let result, stats =
            Harness.sim_blockstm ~num_threads:threads ~storage:g.storage
              g.txns
          in
          T.add_row t
            [
              string_of_int shards;
              string_of_int threads;
              fmt_tps (VE.tps ~txns:block stats);
              string_of_int result.metrics.validation_aborts;
              string_of_int result.metrics.dependency_aborts;
            ])
        [ 8; 32 ])
    [ 1; 2; 4; 8; 16; 32 ];
  Report.emit_table t;
  (* Real-domain companion (wall clock, report-only): the same single-vs-
     sharded gas counter measured on actual domains of this machine, plus
     the sharded block routed through execution lanes (§16) — the gas
     shards are exactly lane-partitionable. Thread scaling is bounded by
     the physical core count; the virtual-time table above carries the
     shape. *)
  let rt =
    T.create
      ~title:
        (Printf.sprintf
           "Gas metering (§7): real-domain wall clock on this machine \
            (block %d)"
           block)
      ~header:[ "executor"; "shards"; "domains"; "tps (wall clock)" ]
  in
  let time ~label f =
    best_of ~label 3 (fun () ->
        let _, ns = Blockstm_stats.Clock.time_ns f in
        Blockstm_stats.Clock.tps ~txns:block ~elapsed_ns:ns)
  in
  List.iter
    (fun shards ->
      let g = Synthetic.gas ~block_size:block ~shards ~seed:42 in
      let seq =
        time
          ~label:(Printf.sprintf "gas_sharding/real/seq/shards=%d" shards)
          (fun () ->
            ignore (Harness.run_sequential ~storage:g.storage g.txns))
      in
      T.add_row rt [ "Sequential"; string_of_int shards; "1"; fmt_tps seq ];
      List.iter
        (fun domains ->
          let tps =
            time
              ~label:
                (Printf.sprintf
                   "gas_sharding/real/bstm/shards=%d/domains=%d" shards
                   domains)
              (fun () ->
                ignore
                  (Harness.run_blockstm
                     ~config:
                       {
                         Harness.Bstm.default_config with
                         num_domains = domains;
                       }
                     ~storage:g.storage g.txns))
          in
          T.add_row rt
            [
              "Block-STM";
              string_of_int shards;
              string_of_int domains;
              fmt_tps tps;
            ];
          if shards > 1 then begin
            let lanes = min 4 shards in
            let partition =
              {
                Harness.LanesX.lanes;
                loc_lane =
                  Synthetic.gas_lane ~block_size:block ~shards ~lanes;
              }
            in
            let specs = Synthetic.gas_specs ~block_size:block ~shards in
            let tps =
              time
                ~label:
                  (Printf.sprintf
                     "gas_sharding/real/lanes=%d/shards=%d/domains=%d" lanes
                     shards domains)
                (fun () ->
                  ignore
                    (Harness.run_lanes
                       ~config:
                         {
                           Harness.Bstm.default_config with
                           num_domains = domains;
                         }
                       ~partition ~specs ~storage:g.storage g.txns))
            in
            T.add_row rt
              [
                Printf.sprintf "Lanes (%d)" lanes;
                string_of_int shards;
                string_of_int domains;
                fmt_tps tps;
              ]
          end)
        !domains_grid)
    [ 1; 8 ];
  Report.emit_table rt

(* --- Lane scaling (§16): sharded execution lanes --------------------------- *)

(* Lane counts swept by [lane-scaling]; empty = pick per mode. Overridable
   (bench --lanes / blockstm bench --lanes / BLOCKSTM_BENCH_LANES). *)
let lanes_grid = ref []
let set_lanes_grid = function [] -> () | l -> lanes_grid := l

(* Cross-lane transfer fractions swept on the laned p2p workload. *)
let lane_cross_grid = ref [ 0.0; 0.05; 0.2 ]
let set_lane_cross_grid = function [] -> () | l -> lane_cross_grid := l

(* One grid cell: run the block through the single-instance engine and
   through [lanes] lane instances under the coordinator (both in virtual
   time), assert the committed snapshot and outputs bit-identical, and
   report throughput plus the coordinator counters. The identity assert at
   every cell is the same gate tools/ci.sh sweeps. *)
let lane_scaling_point t ~workload ~block ~lanes ~threads ~partition ~specs
    ~storage ~txns =
  let single_r, single_s =
    Harness.sim_blockstm ~num_threads:threads ~storage txns
  in
  let single_tps = VE.tps ~txns:block single_s in
  let s =
    Harness.sim_lanes ~num_threads:threads ~partition ~specs ~storage txns
  in
  if
    not
      (Harness.equal_snapshot single_r.Harness.Bstm.snapshot
         s.Harness.sl_snapshot)
  then
    Fmt.failwith
      "lane-scaling: snapshot diverged from single instance (%s, lanes=%d, \
       threads=%d)"
      workload lanes threads;
  if
    not
      (Harness.equal_outputs single_r.Harness.Bstm.outputs
         s.Harness.sl_outputs)
  then
    Fmt.failwith
      "lane-scaling: outputs diverged from single instance (%s, lanes=%d, \
       threads=%d)"
      workload lanes threads;
  let tps =
    if s.Harness.sl_makespan_us <= 0. then infinity
    else float_of_int block /. (s.Harness.sl_makespan_us /. 1e6)
  in
  let speedup = tps /. single_tps in
  Report.sample
    ~label:
      (Printf.sprintf "lane_scaling/%s/lanes=%d/threads=%d/tps" workload
         lanes threads)
    tps;
  Report.sample
    ~label:
      (Printf.sprintf "lane_scaling/%s/lanes=%d/threads=%d/speedup" workload
         lanes threads)
    speedup;
  T.add_row t
    [
      workload;
      string_of_int lanes;
      string_of_int threads;
      fmt_tps tps;
      fmt_x speedup;
      string_of_int s.Harness.sl_batches;
      string_of_int s.Harness.sl_cross_lane_txns;
      Printf.sprintf "%.2f" s.Harness.sl_imbalance;
    ]

let lane_scaling mode =
  let block = 1_000 in
  let lanes_list =
    if !lanes_grid <> [] then !lanes_grid
    else match mode with Quick -> [ 1; 2; 4; 8 ] | Full -> [ 1; 2; 4; 8; 16 ]
  in
  let thread_grid =
    match mode with Quick -> [ 4; 8 ] | Full -> [ 1; 2; 4; 8; 16; 32 ]
  in
  let t =
    T.create
      ~title:
        (Printf.sprintf
           "Lane scaling (§16): K lane instances + coordinator vs one \
            engine instance (block %d, virtual time; speedup vs \
            single-instance at the same thread count)"
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
  in
  (* Sharded gas (§7): with lanes dividing the shards every transaction is
     single-lane and each lane is an independent sequential chain — the
     lane-partitionable regime where the coordinator should recover the
     sharding speedup that a single optimistic instance burns on aborts. *)
  let shards = 8 in
  let g = Synthetic.gas ~block_size:block ~shards ~seed:42 in
  let gas_specs = Synthetic.gas_specs ~block_size:block ~shards in
  List.iter
    (fun lanes ->
      let partition =
        {
          Harness.LanesX.lanes;
          loc_lane = Synthetic.gas_lane ~block_size:block ~shards ~lanes;
        }
      in
      List.iter
        (fun threads ->
          lane_scaling_point t ~workload:"gas" ~block ~lanes ~threads
            ~partition ~specs:gas_specs ~storage:g.Synthetic.storage
            ~txns:g.Synthetic.txns)
        thread_grid)
    (List.filter (fun l -> l <= shards) lanes_list);
  (* Contended-but-partitionable p2p: 16 accounts total, so every lane is a
     hot cluster of two accounts. A single optimistic instance burns most
     of its parallelism on aborts and re-executions here; lanes turn the
     same block into K independent hot clusters with no cross-instance
     conflicts — the headline regime (paper §4.1 high contention, ISSUE
     10's >= 1.5x gate at 8 threads). *)
  let hot_accounts = 16 in
  List.iter
    (fun lanes ->
      let spec =
        {
          (p2p_spec ~flavor:P2p.Standard ~accounts:hot_accounts ~block
             ~seed:42)
          with
          P2p.lanes_hint = max lanes 1;
        }
      in
      let w = P2p.generate spec in
      let partition =
        Harness.account_partition ~num_accounts:hot_accounts ~lanes
      in
      List.iter
        (fun threads ->
          lane_scaling_point t ~workload:"p2p-hot" ~block ~lanes ~threads
            ~partition ~specs:(P2p.txn_specs w) ~storage:w.P2p.storage
            ~txns:w.P2p.txns)
        thread_grid)
    lanes_list;
  (* Laned p2p: account-range partition, sweeping how many transfers
     deliberately straddle lanes (coordinator overhead as cross-lane
     traffic grows). *)
  let accounts = 1_000 in
  List.iter
    (fun cross_fraction ->
      let workload =
        Printf.sprintf "p2p/cross=%d%%"
          (int_of_float (Float.round (100. *. cross_fraction)))
      in
      List.iter
        (fun lanes ->
          let spec =
            {
              (p2p_spec ~flavor:P2p.Standard ~accounts ~block ~seed:42) with
              P2p.lanes_hint = max lanes 1;
              cross_fraction = (if lanes > 1 then cross_fraction else 0.);
            }
          in
          let w = P2p.generate spec in
          let partition =
            Harness.account_partition ~num_accounts:accounts ~lanes
          in
          List.iter
            (fun threads ->
              lane_scaling_point t ~workload ~block ~lanes ~threads
                ~partition ~specs:(P2p.txn_specs w) ~storage:w.P2p.storage
                ~txns:w.P2p.txns)
            thread_grid)
        lanes_list)
    !lane_cross_grid;
  Report.emit_table t

(* --- Real-machine measurements (wall clock, actual domains) ---------------- *)

let real mode =
  let t =
    T.create
      ~title:
        "Real execution on this machine (wall clock; thread scaling is \
         limited by the physical core count)"
      ~header:[ "executor"; "domains"; "tps (wall clock)" ]
  in
  let block = match mode with Quick -> 2_000 | Full -> 10_000 in
  (* Artificial per-txn work makes the measurement dominated by transaction
     execution rather than harness overhead, like a real VM would be. *)
  let spec =
    {
      (p2p_spec ~flavor:P2p.Standard ~accounts:1_000 ~block ~seed:42) with
      work = 100_000;
    }
  in
  let w = P2p.generate spec in
  let time f =
    let _, ns = Blockstm_stats.Clock.time_ns f in
    Blockstm_stats.Clock.tps ~txns:block ~elapsed_ns:ns
  in
  let seq =
    time (fun () -> ignore (Harness.run_sequential ~storage:w.storage w.txns))
  in
  T.add_row t [ "Sequential"; "1"; fmt_tps seq ];
  List.iter
    (fun domains ->
      let tps =
        time (fun () ->
            ignore
              (Harness.run_blockstm
                 ~config:
                   { Harness.Bstm.default_config with num_domains = domains }
                 ~storage:w.storage w.txns))
      in
      T.add_row t
        [ "Block-STM"; string_of_int domains; fmt_tps tps ])
    [ 1; 2; 4 ];
  Report.emit_table t

(* --- Scaling: real-domain throughput curve (regression surface) ------------ *)

(** The domains-vs-tps curve on real domains, low contention: the workloads
    where Block-STM should scale near-linearly (paper Fig. 3, 10k accounts).
    Unlike [real]/[minimove] this records per-domain-count samples under
    stable labels ([scaling/<workload>/bstm/domains=N]), making the curve a
    tracked regression surface: tools/ci.sh fails on multi-core hosts if the
    4-domain point drops below the 1-domain point. *)
let scaling mode =
  let t =
    T.create
      ~title:
        (Printf.sprintf
           "Scaling: real-domain throughput, low contention (wall clock; \
            this host reports %d recommended domains)"
           (Domain.recommended_domain_count ()))
      ~header:[ "workload"; "executor"; "domains"; "tps"; "vs 1-domain" ]
  in
  let record ~workload ~executor ~domains ~base tps =
    Report.sample
      ~label:(Printf.sprintf "scaling/%s/%s/domains=%d" workload executor domains)
      tps;
    T.add_row t
      [
        workload;
        executor;
        string_of_int domains;
        fmt_tps tps;
        (match base with None -> "-" | Some b -> fmt_x (tps /. b));
      ]
  in
  (* Low-contention p2p with artificial per-txn work, so the measurement is
     dominated by transaction execution rather than harness overhead. *)
  let block = match mode with Quick -> 2_000 | Full -> 10_000 in
  let spec =
    {
      (p2p_spec ~flavor:P2p.Standard ~accounts:10_000 ~block ~seed:42) with
      work = 100_000;
    }
  in
  let w = P2p.generate spec in
  let time f =
    let _, ns = Blockstm_stats.Clock.time_ns f in
    Blockstm_stats.Clock.tps ~txns:block ~elapsed_ns:ns
  in
  let seq =
    time (fun () -> ignore (Harness.run_sequential ~storage:w.storage w.txns))
  in
  record ~workload:"p2p-low" ~executor:"seq" ~domains:1 ~base:None seq;
  let p2p_base = ref None in
  List.iter
    (fun domains ->
      let tps =
        time (fun () ->
            ignore
              (Harness.run_blockstm
                 ~config:
                   { Harness.Bstm.default_config with num_domains = domains }
                 ~storage:w.storage w.txns))
      in
      if !p2p_base = None then p2p_base := Some tps;
      record ~workload:"p2p-low" ~executor:"bstm" ~domains ~base:!p2p_base tps)
    !domains_grid;
  (* MiniMove coin transfers over many accounts: the real-interpreter
     workload, still low contention. *)
  let open Blockstm_minimove in
  let mblock = match mode with Quick -> 1_000 | Full -> 5_000 in
  let n_accounts = 1_000 in
  let coin = Interp.compile Stdlib_contracts.coin_source in
  let store = Runtime.coin_genesis ~num_accounts:n_accounts () in
  let rng = Rng.create 7 in
  let next_seq = Array.make (n_accounts + 1) 0 in
  let txns =
    Array.init mblock (fun _ ->
        let s, r = Rng.distinct_pair rng n_accounts in
        let sender = s + 1 and recipient = r + 1 in
        let seq = next_seq.(sender) in
        next_seq.(sender) <- seq + 1;
        Interp.txn coin
          ~args:
            Mv_value.
              [
                Value.Addr sender;
                Value.Addr recipient;
                Value.Int (1 + Rng.int rng 10);
                Value.Int seq;
              ])
  in
  let mtime f =
    let _, ns = Blockstm_stats.Clock.time_ns f in
    Blockstm_stats.Clock.tps ~txns:mblock ~elapsed_ns:ns
  in
  let mseq =
    mtime (fun () ->
        ignore (Runtime.Seq.run ~storage:(Runtime.Store.reader store) txns))
  in
  record ~workload:"minimove" ~executor:"seq" ~domains:1 ~base:None mseq;
  let mm_base = ref None in
  List.iter
    (fun domains ->
      let tps =
        mtime (fun () ->
            ignore
              (Runtime.Bstm.run
                 ~config:
                   { Runtime.Bstm.default_config with num_domains = domains }
                 ~storage:(Runtime.Store.reader store) txns))
      in
      if !mm_base = None then mm_base := Some tps;
      record ~workload:"minimove" ~executor:"bstm" ~domains ~base:!mm_base tps)
    !domains_grid;
  Report.emit_table t

(* --- Rolling commit: time-to-commit latency --------------------------------- *)

let commit_latency mode =
  let t =
    T.create
      ~title:
        "Rolling commit: per-transaction time-to-commit (wall clock, \
         standard p2p; lazy mode commits everything at the end, so its \
         latency is the block time)"
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
  in
  let block = match mode with Quick -> 1_000 | Full -> 5_000 in
  List.iter
    (fun accounts ->
      List.iter
        (fun domains ->
          let w =
            P2p.generate
              (p2p_spec ~flavor:P2p.Standard ~accounts ~block ~seed:42)
          in
          let config = rolling_config domains in
          let r, ns =
            Blockstm_stats.Clock.time_ns (fun () ->
                Harness.run_blockstm ~config ~storage:w.storage w.txns)
          in
          let s = D.summarize (Array.map float_of_int r.commit_ns) in
          let label p =
            Printf.sprintf "commit_%s_ns/accounts=%d/domains=%d" p accounts
              domains
          in
          Report.sample ~label:(label "p50") s.D.median;
          Report.sample ~label:(label "p95") s.D.p95;
          Report.sample ~label:(label "p99") s.D.p99;
          let us v = Printf.sprintf "%.0f" (v /. 1e3) in
          T.add_row t
            [
              string_of_int accounts;
              string_of_int domains;
              fmt_tps (Blockstm_stats.Clock.tps ~txns:block ~elapsed_ns:ns);
              us s.D.median;
              us s.D.p95;
              us s.D.p99;
              us (Int64.to_float ns);
            ])
        [ 1; 4 ])
    [ 100; 1_000 ];
  Report.emit_table t

(* --- Hotspot deltas: commutative aggregators vs the cliff (DESIGN.md §12) --- *)

let hotspot_delta mode =
  let block = 1_000 in
  let t =
    T.create
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
  in
  let n = reps mode in
  List.iter
    (fun hot ->
      List.iter
        (fun threads ->
          (* Same transfer blocks (same seeds) in both modes; only the
             engine's delta routing differs. *)
          let tps_of ~delta_ops aborts applies =
            avg_over_seeds
              ~label:
                (Printf.sprintf "hotspot-delta/%s/hot=%d/block=%d/threads=%d"
                   (if delta_ops then "deltas" else "paper")
                   hot block threads)
              mode
              (fun seed ->
                let w =
                  P2p.generate_hotspot
                    {
                      P2p.default_hotspot_spec with
                      h_hot_accounts = hot;
                      h_block_size = block;
                      h_seed = seed;
                    }
                in
                let config =
                  Harness.Bstm.optimistic_config (fun o -> { o with delta_ops })
                in
                let result, stats =
                  Harness.sim_blockstm ~config ~num_threads:threads
                    ~storage:w.h_storage w.h_txns
                in
                aborts := !aborts + result.metrics.validation_aborts;
                applies := !applies + result.metrics.delta_applies;
                VE.tps ~txns:block stats)
          in
          let paper_aborts = ref 0 and paper_applies = ref 0 in
          let delta_aborts = ref 0 and delta_applies = ref 0 in
          let paper = tps_of ~delta_ops:false paper_aborts paper_applies in
          let deltas = tps_of ~delta_ops:true delta_aborts delta_applies in
          let per x =
            Printf.sprintf "%.3f" (float_of_int x /. float_of_int (n * block))
          in
          T.add_row t
            [
              string_of_int hot;
              string_of_int threads;
              fmt_tps paper;
              fmt_tps deltas;
              fmt_x (deltas /. paper);
              per !paper_aborts;
              per !delta_applies;
            ])
        [ 1; 2; 4; 8 ])
    [ 2; 10; 100 ];
  Report.emit_table t

(* --- MiniMove end-to-end throughput ---------------------------------------- *)

let minimove mode =
  let open Blockstm_minimove in
  let t =
    T.create
      ~title:"MiniMove VM: coin-transfer block through the real interpreter"
      ~header:[ "executor"; "domains"; "tps (wall clock)" ]
  in
  let block = match mode with Quick -> 1_000 | Full -> 5_000 in
  let n_accounts = 100 in
  let coin = Interp.compile Stdlib_contracts.coin_source in
  let store = Runtime.coin_genesis ~num_accounts:n_accounts () in
  let rng = Rng.create 5 in
  let next_seq = Array.make (n_accounts + 1) 0 in
  let txns =
    Array.init block (fun _ ->
        let s, r = Rng.distinct_pair rng n_accounts in
        let sender = s + 1 and recipient = r + 1 in
        let seq = next_seq.(sender) in
        next_seq.(sender) <- seq + 1;
        Interp.txn coin
          ~args:
            Mv_value.
              [
                Value.Addr sender;
                Value.Addr recipient;
                Value.Int (1 + Rng.int rng 10);
                Value.Int seq;
              ])
  in
  let time f =
    let _, ns = Blockstm_stats.Clock.time_ns f in
    Blockstm_stats.Clock.tps ~txns:block ~elapsed_ns:ns
  in
  let seq =
    time (fun () ->
        ignore (Runtime.Seq.run ~storage:(Runtime.Store.reader store) txns))
  in
  T.add_row t [ "Sequential"; "1"; fmt_tps seq ];
  List.iter
    (fun domains ->
      let tps =
        time (fun () ->
            ignore
              (Runtime.Bstm.run
                 ~config:{ Runtime.Bstm.default_config with num_domains = domains }
                 ~storage:(Runtime.Store.reader store) txns))
      in
      T.add_row t [ "Block-STM"; string_of_int domains; fmt_tps tps ])
    [ 1; 4 ];
  Report.emit_table t

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

let vm_cost mode =
  let open Blockstm_minimove in
  let block = match mode with Quick -> 2_000 | Full -> 5_000 in
  let accounts = 1_000 in
  let n = reps mode in
  let domains_grid = [ 1; 2; 4; 8 ] in
  let t =
    T.create
      ~title:
        (Printf.sprintf
           "VM cost: tree-walk interpreter vs compiled closures (MiniMove \
            p2p, %d accounts, block %d, wall clock, best of %d)"
           accounts block n)
      ~header:[ "flavor"; "vm"; "executor"; "domains"; "tps"; "vs tree-walk" ]
  in
  (* Tree-walk tps per (flavor, executor, domains), so each compiled row can
     report its speedup against the matching tree-walk row. *)
  let base = Hashtbl.create 16 in
  let record ~flavor ~vm ~executor ~domains tps =
    let key = (flavor, executor, domains) in
    let vs =
      match vm with
      | Runtime.Tree_walk ->
          Hashtbl.replace base key tps;
          "-"
      | Runtime.Compiled -> (
          match Hashtbl.find_opt base key with
          | Some b -> fmt_x (tps /. b)
          | None -> "-")
    in
    T.add_row t
      [
        flavor;
        Runtime.vm_name vm;
        executor;
        string_of_int domains;
        fmt_tps tps;
        vs;
      ]
  in
  let time f =
    let _, ns = Blockstm_stats.Clock.time_ns f in
    Blockstm_stats.Clock.tps ~txns:block ~elapsed_ns:ns
  in
  List.iter
    (fun flavor ->
      let fname = P2p.flavor_name flavor in
      List.iter
        (fun vm ->
          let vname = Runtime.vm_name vm in
          let label executor domains =
            Printf.sprintf "vm-cost/%s/%s/%s/domains=%d" fname vname executor
              domains
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
          let traces = mm_read_traces ~storage:(storage ()) w.txns in
          let vm_tps =
            best_of ~label:(label "vm" 1) n (fun () ->
                time (fun () -> mm_replay w.txns traces))
          in
          record ~flavor:fname ~vm ~executor:"vm" ~domains:1 vm_tps;
          let seq_tps =
            best_of ~label:(label "seq" 1) n (fun () ->
                time (fun () ->
                    ignore (Runtime.Seq.run ~storage:(storage ()) w.txns)))
          in
          record ~flavor:fname ~vm ~executor:"seq" ~domains:1 seq_tps;
          List.iter
            (fun domains ->
              let config =
                {
                  Runtime.Bstm.default_config with
                  num_domains = domains;
                  record_exec_ns = true;
                }
              in
              let exec_ns = ref [||] in
              let tps =
                best_of ~label:(label "bstm" domains) n (fun () ->
                    time (fun () ->
                        let r =
                          Runtime.Bstm.run ~config ~storage:(storage ())
                            w.txns
                        in
                        exec_ns := r.exec_ns))
              in
              (* Per-txn execution time of the committed incarnations (last
                 rep): the per-transaction histogram of the JSON report. *)
              Report.histogram
                ~label:
                  (Printf.sprintf "vm-cost/%s/%s/exec_ns/domains=%d" fname
                     vname domains)
                (Array.map float_of_int !exec_ns);
              record ~flavor:fname ~vm ~executor:"bstm" ~domains tps)
            domains_grid)
        [ Runtime.Tree_walk; Runtime.Compiled ])
    [ P2p.Standard; P2p.Simplified ];
  Report.emit_table t

(* --- State scale: incremental Merkle roots vs whole-state fold (§13) -------- *)

let state_scale mode =
  let module C = Harness.ChainX in
  let block = 10_000 in
  let domains = 4 in
  let accounts_grid =
    match mode with
    | Quick -> [ 1_000; 10_000; 100_000 ]
    | Full -> [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let t =
    T.create
      ~title:
        (Printf.sprintf
           "State scale: per-block root update, whole-state fold vs \
            incremental Merkle (transfer block %d, wall clock)"
           block)
      ~header:
        [ "accounts"; "block"; "fold (ms)"; "incr (ms)"; "speedup"; "roots" ]
  in
  List.iter
    (fun accounts ->
      let w1 =
        Bigstate.transfers ~block_size:block ~num_accounts:accounts ~seed:42 ()
      in
      (* Same transfer block through sequential and Block-STM (rolling
         commit), both on the Merkle substrate: the authenticated roots must
         agree at every grid point. *)
      let seq_chain =
        C.create ~store:`Merkle ~executor:C.Sequential ~genesis:w1.storage ()
      in
      let bstm_chain =
        C.create ~store:`Merkle
          ~executor:(C.Block_stm (rolling_config domains))
          ~genesis:w1.storage ()
      in
      let cs = C.execute_block seq_chain w1.txns in
      let cb = C.execute_block bstm_chain w1.txns in
      let m = Option.get (C.merkle_state seq_chain) in
      let roots_ok =
        Int64.equal cs.C.state_root cb.C.state_root
        && Int64.equal (C.Mstore.root m) (C.Mstore.recompute_root m)
      in
      (* Cost of folding a further block's delta into the post-state and
         producing the new root, both substrates. The flat substrate digests
         the whole state from scratch; the Merkle substrate refreshes only
         the dirty digest paths. Best-of-3 over distinct deltas — per-side
         minima, since wall-clock noise on this host only ever inflates a
         timing. Both stores absorb every delta, so they stay in sync
         across repetitions. *)
      let flat_chain =
        C.create ~store:`Flat ~executor:C.Sequential
          ~genesis:(C.state seq_chain) ()
      in
      let time f = Int64.to_float (snd (Blockstm_stats.Clock.time_ns f)) in
      let fold_ns = ref infinity and incr_ns = ref infinity in
      List.iter
        (fun seed ->
          let w =
            Bigstate.transfers ~block_size:block ~num_accounts:accounts ~seed
              ()
          in
          let snapshot =
            (Harness.run_sequential ~storage:(C.state flat_chain) w.txns)
              .Harness.Seq.snapshot
          in
          let f =
            time (fun () ->
                Ledger.Store.apply_delta (C.state flat_chain) snapshot;
                ignore (C.state_root flat_chain))
          in
          let i =
            time (fun () ->
                C.Mstore.apply_delta m snapshot;
                ignore (C.Mstore.root m))
          in
          fold_ns := Float.min !fold_ns f;
          incr_ns := Float.min !incr_ns i)
        [ 43; 44; 45 ];
      let fold_ns = !fold_ns and incr_ns = !incr_ns in
      let speedup = fold_ns /. incr_ns in
      let label k = Printf.sprintf "state-scale/%s/accounts=%d" k accounts in
      Report.sample ~label:(label "fold_ns") fold_ns;
      Report.sample ~label:(label "incr_ns") incr_ns;
      Report.sample ~label:(label "speedup") speedup;
      Report.sample ~label:(label "roots_equal") (if roots_ok then 1. else 0.);
      T.add_row t
        [
          string_of_int accounts;
          string_of_int block;
          Printf.sprintf "%.2f" (fold_ns /. 1e6);
          Printf.sprintf "%.2f" (incr_ns /. 1e6);
          fmt_x speedup;
          (if roots_ok then "ok" else "MISMATCH");
        ])
    accounts_grid;
  Report.emit_table t

(* --- Sustained throughput: continuous block pipeline (DESIGN.md §14) -------- *)

(* Knobs for the [sustained] experiment, settable from the CLI
   (bench --mempool-rate/--block-size/--block-deadline-ms, blockstm exp
   likewise). Zero means "use the mode default". *)
let sustained_rate = ref 0. (* Poisson arrivals/s; 0 = 60% of measured tps *)
let sustained_block_size = ref 0 (* target txns per block cut *)
let sustained_deadline_ms = ref 25. (* block cut deadline *)

let set_sustained_rate r = if r > 0. then sustained_rate := r
let set_sustained_block_size b = if b > 0 then sustained_block_size := b
let set_sustained_deadline_ms d = if d > 0. then sustained_deadline_ms := d

(* A transfer with no cross-transaction assertions: deterministic for any
   serialization, so the Poisson phase can cut blocks at arbitrary
   boundaries (a deadline cut does not care which sender lands where). The
   throughput phase uses the real p2p scripts, whose sequence numbers the
   pipeline must — and does — preserve. *)
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
  let module C = Harness.ChainX in
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
  let time f = Blockstm_stats.Clock.time_ns f in
  (* Phase B — steady-state committed throughput over a deterministic block
     stream, with bit-identity against the per-block sequential reference
     at every grid point (per substrate: the Merkle root algorithm differs
     from the flat fold by design). *)
  let reference store =
    let c = C.create ~store ~executor:C.Sequential ~genesis () in
    List.iter (fun b -> ignore (C.execute_block c b)) blocks;
    c
  in
  let ref_flat = reference `Flat and ref_merkle = reference `Merkle in
  let t =
    T.create
      ~title:
        (Printf.sprintf
           "Sustained pipeline: committed throughput over %d-block streams \
            (standard p2p, %d accounts, block %d, wall clock)"
           nblocks accounts block)
      ~header:
        [
          "store";
          "mode";
          "domains";
          "tps";
          "vs per-block";
          "idle ms";
          "roots";
        ]
  in
  let modes = [ ("per-block", `Per_block); ("pipelined", `Pipelined) ] in
  let tps_tbl = Hashtbl.create 32 in
  List.iter
    (fun (sname, store) ->
      List.iter
        (fun domains ->
          List.iter
            (fun (mname, m) ->
              let executor = C.Block_stm (rolling_config domains) in
              let chain = C.create ~store ~executor ~genesis () in
              let rem = ref blocks in
              let next () =
                match !rem with
                | [] -> None
                | b :: r ->
                    rem := r;
                    Some b
              in
              let (_, stats), ns =
                time (fun () -> C.execute_stream ~mode:m chain ~next)
              in
              let tps = Blockstm_stats.Clock.tps ~txns:total ~elapsed_ns:ns in
              Hashtbl.replace tps_tbl (sname, mname, domains) tps;
              let refc =
                match store with `Flat -> ref_flat | `Merkle -> ref_merkle
              in
              let ok = C.first_divergence refc chain = None in
              Report.sample
                ~label:
                  (Printf.sprintf "sustained/%s/%s/domains=%d" sname mname
                     domains)
                tps;
              Report.sample
                ~label:
                  (Printf.sprintf "sustained/roots_equal/%s/%s/domains=%d"
                     sname mname domains)
                (if ok then 1. else 0.);
              T.add_row t
                [
                  sname;
                  mname;
                  string_of_int domains;
                  fmt_tps tps;
                  (match
                     Hashtbl.find_opt tps_tbl (sname, "per-block", domains)
                   with
                  | Some b when mname <> "per-block" -> fmt_x (tps /. b)
                  | _ -> "-");
                  Printf.sprintf "%.1f" (float_of_int stats.C.s_idle_ns /. 1e6);
                  (if ok then "ok" else "MISMATCH");
                ])
            modes)
        !domains_grid)
    [ ("flat", `Flat); ("merkle", `Merkle) ];
  Report.emit_table t;
  (* Phase A — commit latency under Poisson ingestion: a producer domain
     submits boundary-insensitive transfers through the bounded mempool at
     rate lambda; the driver cuts blocks at [block] txns or the deadline and
     commits continuously. Latency = block-commit wall time - submission. *)
  let domains = List.fold_left max 1 !domains_grid in
  let rate =
    if !sustained_rate > 0. then !sustained_rate
    else
      let measured = Hashtbl.find_opt tps_tbl ("flat", "per-block", domains) in
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
  let lt =
    T.create
      ~title:
        (Printf.sprintf
           "Sustained pipeline: commit latency under Poisson ingestion \
            (rate %.0f tps, block %d or %.0f ms, %d domains, flat store)"
           rate block !sustained_deadline_ms domains)
      ~header:
        [
          "mode";
          "tps";
          "p50 ms";
          "p95 ms";
          "p99 ms";
          "blocks";
          "depth p95";
          "idle ms";
        ]
  in
  List.iter
    (fun (mname, m) ->
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
                while
                  float_of_int (Blockstm_obs.Trace.now_ns ()) < !due
                do
                  Domain.cpu_relax ()
                done;
                ignore (Mp.submit mp (Blockstm_obs.Trace.now_ns (), txn)))
              lat_txns;
            Mp.close mp)
      in
      let executor = C.Block_stm (rolling_config domains) in
      let chain = C.create ~executor ~genesis () in
      (* Submission stamps of each cut block, FIFO: commits arrive in cut
         order, so [on_block] pops the matching stamps. *)
      let submit_q : int array Queue.t = Queue.create () in
      let lats = ref [] in
      let next () =
        match Mp.next_block mp ~max_txns:block ~deadline_ns with
        | [||] -> None
        | b ->
            Queue.push (Array.map fst b) submit_q;
            Some (Array.map snd b)
      in
      let on_block (_ : _ C.block_commit) =
        let now = Blockstm_obs.Trace.now_ns () in
        Array.iter
          (fun s -> lats := (float_of_int (now - s) /. 1e6) :: !lats)
          (Queue.pop submit_q)
      in
      let (_, stats), ns =
        time (fun () ->
            C.execute_stream ~mode:m ~on_block
              ~queue_depth:(fun () -> Mp.depth mp)
              chain ~next)
      in
      Domain.join producer;
      let s = D.summarize (Array.of_list !lats) in
      let label p = Printf.sprintf "sustained/latency/%s/%s_ms" mname p in
      Report.sample ~label:(label "p50") s.D.median;
      Report.sample ~label:(label "p95") s.D.p95;
      Report.sample ~label:(label "p99") s.D.p99;
      let depth_p95 =
        Blockstm_obs.Metrics.quantile
          (Blockstm_obs.Metrics.histogram stats.C.s_registry "mempool_depth")
          0.95
      in
      let ms v = Printf.sprintf "%.1f" v in
      T.add_row lt
        [
          mname;
          fmt_tps (Blockstm_stats.Clock.tps ~txns:lat_total ~elapsed_ns:ns);
          ms s.D.median;
          ms s.D.p95;
          ms s.D.p99;
          string_of_int stats.C.s_blocks;
          Printf.sprintf "%.0f" depth_p95;
          Printf.sprintf "%.1f" (float_of_int stats.C.s_idle_ns /. 1e6);
        ])
    modes;
  Report.emit_table lt

(* --- Spec-cost: static access specifications (DESIGN.md §15) ---------------- *)

(* The same block, three ways: optimistic Block-STM, spec-seeded Block-STM
   (static specs supplied: provably-independent transactions skip the
   validation read-set walk, exact write specs seed ESTIMATE markers), and
   the spec-driven dependency DAG (each transaction executed exactly once
   after its declared writers, no validation at all). The DAG run's final
   snapshot is asserted bit-identical to the optimistic run's at every grid
   point — both must equal the sequential execution. *)
let spec_cost_rows t ~workload ~block ~accounts ~threads ~storage ~txns ~specs
    =
  let per x = Printf.sprintf "%.3f" (float_of_int x /. float_of_int block) in
  let opt_r, opt_s = Harness.sim_blockstm ~num_threads:threads ~storage txns in
  let seed_r, seed_s =
    Harness.sim_blockstm
      ~config:
        (Harness.Bstm.optimistic_config (fun o ->
             { o with marking = spec_seeding }))
      ~specs ~num_threads:threads ~storage txns
  in
  let dag_r, dag_s =
    Harness.sim_blockstm
      ~config:{ Harness.Bstm.default_config with sched = Spec_dag }
      ~specs ~num_threads:threads ~storage txns
  in
  if not (Harness.equal_snapshot opt_r.snapshot dag_r.snapshot) then
    Fmt.failwith
      "spec-cost: spec-DAG snapshot diverged from optimistic (%s, \
       accounts=%d, threads=%d)"
      workload accounts threads;
  if not (Harness.equal_outputs opt_r.outputs dag_r.outputs) then
    Fmt.failwith
      "spec-cost: spec-DAG outputs diverged from optimistic (%s, \
       accounts=%d, threads=%d)"
      workload accounts threads;
  let row variant (r : int Harness.Bstm.result) stats =
    let m = r.Harness.Bstm.metrics in
    let tps = VE.tps ~txns:block stats in
    Report.sample
      ~label:
        (Printf.sprintf "spec_cost/%s/%s/accounts=%d/threads=%d/tps" workload
           variant accounts threads)
      tps;
    T.add_row t
      [
        workload;
        string_of_int accounts;
        string_of_int threads;
        variant;
        fmt_tps tps;
        per m.validations;
        per (m.validation_aborts + m.dependency_aborts);
        per m.spec_skips;
      ]
  in
  row "optimistic" opt_r opt_s;
  row "spec-seeded" seed_r seed_s;
  row "spec-dag" dag_r dag_s

let spec_cost mode =
  let block = 1_000 in
  let t =
    T.create
      ~title:
        (Printf.sprintf
           "Spec-cost: optimistic vs spec-seeded vs spec-DAG (block %d)"
           block)
      ~header:
        [
          "workload";
          "accounts";
          "threads";
          "variant";
          "tps";
          "validations/txn";
          "aborts/txn";
          "spec-skips/txn";
        ]
  in
  let accounts_grid =
    match mode with
    | Quick -> [ 100; 1_000; 10_000 ]
    | Full -> [ 10; 100; 1_000; 10_000 ]
  in
  let thread_grid =
    match mode with Quick -> [ 4; 16 ] | Full -> [ 1; 2; 4; 8; 16; 32 ]
  in
  List.iter
    (fun accounts ->
      List.iter
        (fun threads ->
          let w =
            P2p.generate
              (p2p_spec ~flavor:P2p.Standard ~accounts ~block ~seed:42)
          in
          spec_cost_rows t ~workload:"p2p" ~block ~accounts ~threads
            ~storage:w.storage ~txns:w.txns ~specs:(P2p.txn_specs w))
        thread_grid)
    accounts_grid;
  (* Hotspot grid: every transfer lands in one of [hot] accounts, so the
     spec DAG is genuinely deep — the regime where optimistic re-execution
     and spec-driven parking trade places. *)
  List.iter
    (fun hot ->
      List.iter
        (fun threads ->
          let h =
            P2p.generate_hotspot
              { P2p.default_hotspot_spec with h_hot_accounts = hot }
          in
          spec_cost_rows t ~workload:"hotspot" ~block ~accounts:hot ~threads
            ~storage:h.h_storage ~txns:h.h_txns
            ~specs:(P2p.hotspot_txn_specs h))
        thread_grid)
    [ 2; 10; 100 ];
  Report.emit_table t

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
    ("real", "Real-domain wall-clock on this machine", real);
    ("scaling", "Real-domain scaling curve, low contention", scaling);
    ("commit-latency", "Rolling commit: time-to-commit percentiles", commit_latency);
    ("hotspot-delta", "Hotspot deltas: commutative aggregators vs RMW (§12)", hotspot_delta);
    ("state-scale", "State scale: incremental Merkle roots vs whole-state fold (§13)", state_scale);
    ("minimove", "MiniMove interpreter end-to-end", minimove);
    ("vm-cost", "VM cost: tree-walk vs compiled MiniMove VM (§11)", vm_cost);
    ("sustained", "Sustained: continuous block pipeline (§14)", sustained);
    ("spec-cost", "Static access specs: seeding, skips, spec-DAG (§15)", spec_cost);
  ]
