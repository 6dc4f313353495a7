(* blockstm — command-line driver for the Block-STM reproduction.

   Subcommands:
     run       execute a workload with a chosen executor and verify it
     sim       virtual-time thread-scaling sweep
     exp       regenerate the paper's figures/tables (same as bench/main.exe)
     minimove  compile and run a MiniMove script file
     analyze   infer static access specifications for a MiniMove script

   Examples:
     blockstm run --workload p2p --accounts 100 --block 1000 --domains 4
     blockstm run --workload p2p --accounts 10000 --specs --sched spec-dag
     blockstm sim --workload p2p --accounts 2 --threads 1,4,16,32
     blockstm exp --id fig3 --full
     blockstm minimove --file contract.mm --args '@1,@2,10,0'
     blockstm analyze --file contract.mm --json *)

open Cmdliner
open Blockstm_workload

(* --- Shared argument parsing ---------------------------------------------- *)

type workload_kind =
  | W_p2p
  | W_p2p_simplified
  | W_p2p_hotspot
  | W_hotspot
  | W_independent
  | W_zipfian
  | W_read_heavy
  | W_chain
  | W_churn

let workload_conv =
  let parse = function
    | "p2p" -> Ok W_p2p
    | "p2p-simplified" -> Ok W_p2p_simplified
    | "p2p-hotspot" -> Ok W_p2p_hotspot
    | "hotspot" -> Ok W_hotspot
    | "independent" -> Ok W_independent
    | "zipfian" -> Ok W_zipfian
    | "read-heavy" -> Ok W_read_heavy
    | "chain" -> Ok W_chain
    | "churn" -> Ok W_churn
    | s -> Error (`Msg (Printf.sprintf "unknown workload %S" s))
  in
  let print ppf w =
    Fmt.string ppf
      (match w with
      | W_p2p -> "p2p"
      | W_p2p_simplified -> "p2p-simplified"
      | W_p2p_hotspot -> "p2p-hotspot"
      | W_hotspot -> "hotspot"
      | W_independent -> "independent"
      | W_zipfian -> "zipfian"
      | W_read_heavy -> "read-heavy"
      | W_chain -> "chain"
      | W_churn -> "churn")
  in
  Arg.conv (parse, print)

let workload_arg =
  Arg.(
    value
    & opt workload_conv W_p2p
    & info [ "w"; "workload" ] ~docv:"KIND"
        ~doc:
          "Workload: p2p, p2p-simplified, p2p-hotspot (fee-sink transfers \
           through commutative deltas — pair with $(b,--deltas)), hotspot, \
           independent, zipfian, read-heavy, chain, churn.")

let accounts_arg =
  Arg.(
    value & opt int 1000
    & info [ "a"; "accounts" ] ~docv:"N" ~doc:"Number of accounts.")

let block_arg =
  Arg.(
    value & opt int 1000
    & info [ "b"; "block" ] ~docv:"N" ~doc:"Transactions per block.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")

let theta_arg =
  Arg.(
    value & opt float 0.9
    & info [ "theta" ] ~docv:"F" ~doc:"Zipfian skew (zipfian workload).")

(* [generated, declared write-sets (for BOHM), static access specs
   (DESIGN.md §15 — p2p flavors only, where the block-formation data pins
   every access)]. *)
let build_workload ?(lanes_hint = 1) kind ~accounts ~block ~seed ~theta :
    Synthetic.generated
    * Ledger.Loc.t array array option
    * Ledger.Loc.t Blockstm_kernel.Access_spec.t array option =
  match kind with
  | W_p2p | W_p2p_simplified ->
      let flavor =
        if kind = W_p2p then P2p.Standard else P2p.Simplified
      in
      let w =
        P2p.generate
          {
            P2p.default_spec with
            flavor;
            num_accounts = accounts;
            block_size = block;
            seed;
            lanes_hint;
          }
      in
      ( { Synthetic.storage = w.storage; txns = w.txns;
          declared_writes = w.declared_writes },
        Some w.declared_writes,
        Some (P2p.txn_specs w) )
  | W_p2p_hotspot ->
      let w =
        P2p.generate_hotspot
          {
            P2p.default_hotspot_spec with
            h_num_accounts = accounts;
            h_block_size = block;
            h_seed = seed;
          }
      in
      ( { Synthetic.storage = w.h_storage; txns = w.h_txns;
          declared_writes = w.h_declared_writes },
        Some w.h_declared_writes,
        Some (P2p.hotspot_txn_specs w) )
  | W_hotspot -> (Synthetic.hotspot ~block_size:block, None, None)
  | W_independent -> (Synthetic.independent ~block_size:block, None, None)
  | W_zipfian ->
      let g = Synthetic.zipfian ~block_size:block ~num_accounts:accounts
          ~theta ~seed in
      (g, Some g.declared_writes, None)
  | W_read_heavy ->
      ( Synthetic.read_heavy ~block_size:block ~num_accounts:accounts
          ~reads:16 ~writer_every:4 ~seed,
        None,
        None )
  | W_chain -> (Synthetic.chain ~block_size:block, None, None)
  | W_churn ->
      (Synthetic.churn ~block_size:block ~num_accounts:accounts ~seed, None,
       None)

(* --- run -------------------------------------------------------------------- *)

type executor_kind = E_blockstm | E_sequential | E_bohm | E_litm

let executor_conv =
  let parse = function
    | "blockstm" | "bstm" -> Ok E_blockstm
    | "sequential" | "seq" -> Ok E_sequential
    | "bohm" -> Ok E_bohm
    | "litm" -> Ok E_litm
    | s -> Error (`Msg (Printf.sprintf "unknown executor %S" s))
  in
  let print ppf e =
    Fmt.string ppf
      (match e with
      | E_blockstm -> "blockstm"
      | E_sequential -> "sequential"
      | E_bohm -> "bohm"
      | E_litm -> "litm")
  in
  Arg.conv (parse, print)

let run_cmd =
  let executor =
    Arg.(
      value & opt executor_conv E_blockstm
      & info [ "e"; "executor" ] ~docv:"EXEC"
          ~doc:"Executor: blockstm, sequential, bohm, litm.")
  in
  let domains =
    Arg.(
      value & opt int 4
      & info [ "d"; "domains" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let no_estimates =
    Arg.(
      value & flag
      & info [ "no-estimates" ]
          ~doc:"Ablation: remove aborted writes instead of ESTIMATE markers.")
  in
  let rolling =
    Arg.(
      value & flag
      & info [ "rolling" ]
          ~doc:
            "Rolling commit: stream a committed prefix during execution \
             (blockstm executor only) and report per-transaction \
             time-to-commit percentiles.")
  in
  let deltas =
    Arg.(
      value & flag
      & info [ "deltas" ]
          ~doc:
            "Commutative delta entries (DESIGN.md §12): bounded aggregator \
             updates publish range-validated deltas instead of falling back \
             to read-modify-write, so hotspot workloads (p2p-hotspot, \
             MiniMove agg_add/agg_sub) stop serializing on hot locations \
             (blockstm executor only; composes with every other flag).")
  in
  let pipeline =
    Arg.(
      value & flag
      & info [ "pipeline" ]
          ~doc:
            "Run the workload as a chain of blocks (see $(b,--blocks)) with \
             block $(i,h+1) executing while block $(i,h)'s state root is \
             finalized in the background; verifies the roots against the \
             unpipelined chain.")
  in
  let blocks =
    Arg.(
      value & opt int 8
      & info [ "blocks" ] ~docv:"N"
          ~doc:"Number of chain blocks for $(b,--pipeline).")
  in
  let store_arg =
    let store_conv =
      let parse = function
        | "flat" -> Ok `Flat
        | "merkle" -> Ok `Merkle
        | s -> Error (`Msg (Printf.sprintf "unknown store %S (flat|merkle)" s))
      in
      let print ppf s =
        Fmt.string ppf (match s with `Flat -> "flat" | `Merkle -> "merkle")
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value & opt store_conv `Flat
      & info [ "store" ] ~docv:"KIND"
          ~doc:
            "Chain state substrate for $(b,--pipeline): $(b,flat) \
             (whole-state root fold after every block, the default) or \
             $(b,merkle) (incremental authenticated roots, DESIGN.md §13).")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Also run the sequential executor and compare results.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON timeline of the execution \
             (blockstm executor only) — load it in chrome://tracing or \
             https://ui.perfetto.dev.")
  in
  let specs_flag =
    Arg.(
      value & flag
      & info [ "specs" ]
          ~doc:
            "Static access specifications (DESIGN.md §15): supply each \
             transaction's exact read/write spec to the engine — exact \
             write specs seed ESTIMATE markers before first execution and \
             provably-independent transactions skip the validation \
             read-set walk (reported as spec_skips). Blockstm executor \
             only; requires a spec-capable workload (p2p, p2p-simplified, \
             p2p-hotspot).")
  in
  let sched_arg =
    let sched_conv =
      let parse = function
        | "optimistic" -> Ok `Optimistic
        | "spec-dag" -> Ok `Spec_dag
        | s ->
            Error
              (`Msg
                 (Printf.sprintf "unknown scheduler %S (optimistic|spec-dag)"
                    s))
      in
      let print ppf s =
        Fmt.string ppf
          (match s with `Optimistic -> "optimistic" | `Spec_dag -> "spec-dag")
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt sched_conv `Optimistic
      & info [ "sched" ] ~docv:"MODE"
          ~doc:
            "Scheduling mode (blockstm executor only): $(b,optimistic) \
             (the paper's collaborative scheduler, the default) or \
             $(b,spec-dag) (DESIGN.md §15 — build a dependency DAG from \
             the static access specs and execute every transaction exactly \
             once, no validation or re-execution; requires a spec-capable \
             workload, see $(b,--specs)).")
  in
  let lanes_arg =
    Arg.(
      value & opt int 1
      & info [ "lanes" ] ~docv:"K"
          ~doc:
            "Sharded execution lanes (DESIGN.md §16): partition the account \
             range into K lanes and run K independent engine instances \
             under the cross-lane coordinator, splitting $(b,--domains) \
             across them. K=1 (default) is the unmodified single-instance \
             engine. Blockstm executor only; requires a spec-capable \
             workload (p2p, p2p-simplified, p2p-hotspot).")
  in
  let lane_hint_arg =
    Arg.(
      value & opt int 0
      & info [ "lane-hint" ] ~docv:"K"
          ~doc:
            "Lane-aware block formation (p2p flavors): draw each transfer's \
             account pair inside one of K account-range lanes, the way a \
             lane-aware block builder would. 0 (default) keeps the generic \
             uniform draw. Independent of $(b,--lanes) — hint without \
             lanes shows the single instance on a partitionable block.")
  in
  let run_pipeline g config executor store n_blocks n =
    let module C = Harness.ChainX in
    let executor =
      match executor with
      | E_sequential -> C.Sequential
      | E_blockstm -> C.Block_stm config
      | _ ->
          Fmt.epr "--pipeline supports the blockstm and sequential executors@.";
          exit 2
    in
    let n_blocks = max 1 (min n_blocks (max 1 n)) in
    let size = (n + n_blocks - 1) / n_blocks in
    let chunks =
      List.init n_blocks (fun i ->
          let lo = i * size in
          Array.sub g.Synthetic.txns lo (min size (n - lo)))
      |> List.filter (fun c -> Array.length c > 0)
    in
    let exec ~pipeline =
      let chain = C.create ~store ~executor ~genesis:g.Synthetic.storage () in
      let _, ns =
        Blockstm_stats.Clock.time_ns (fun () ->
            C.execute_blocks ~pipeline chain chunks)
      in
      (chain, ns)
    in
    let piped, ns_piped = exec ~pipeline:true in
    let plain, ns_plain = exec ~pipeline:false in
    List.iter
      (fun c -> Fmt.pr "%a@." C.pp_commit c)
      (C.commits piped);
    Fmt.pr "pipelined: %.0f tps, unpipelined: %.0f tps (%d blocks)@."
      (Blockstm_stats.Clock.tps ~txns:n ~elapsed_ns:ns_piped)
      (Blockstm_stats.Clock.tps ~txns:n ~elapsed_ns:ns_plain)
      (List.length chunks);
    match C.first_divergence piped plain with
    | None -> Fmt.pr "verify vs unpipelined chain: OK@."
    | Some h ->
        Fmt.pr "verify vs unpipelined chain: MISMATCH at height %d@." h;
        exit 1
  in
  let action workload accounts block seed theta executor domains no_estimates
      rolling deltas pipeline blocks store verify trace_out use_specs sched
      lanes lane_hint =
    if lane_hint < 0 then begin
      Fmt.epr "--lane-hint must be >= 0@.";
      exit 2
    end;
    if lane_hint > 1 && workload <> W_p2p && workload <> W_p2p_simplified
    then begin
      Fmt.epr "--lane-hint needs a p2p flavor workload@.";
      exit 2
    end;
    let g, declared, wspecs =
      build_workload
        ~lanes_hint:(max 1 lane_hint)
        workload ~accounts ~block ~seed ~theta
    in
    if lanes < 1 then begin
      Fmt.epr "--lanes must be >= 1@.";
      exit 2
    end;
    if
      lanes > 1
      && (executor <> E_blockstm || pipeline || rolling || sched = `Spec_dag)
    then begin
      Fmt.epr
        "--lanes needs the blockstm executor and does not compose with \
         --pipeline, --rolling or --sched spec-dag@.";
      exit 2
    end;
    let lane_specs =
      if lanes = 1 then None
      else
        match wspecs with
        | Some s -> Some s
        | None ->
            Fmt.epr
              "--lanes needs a spec-capable workload (p2p, p2p-simplified, \
               p2p-hotspot)@.";
            exit 2
    in
    let n = Array.length g.txns in
    let spec_dag = sched = `Spec_dag in
    let specs =
      if not (use_specs || spec_dag) then None
      else
        match wspecs with
        | Some _ when pipeline ->
            Fmt.epr
              "--specs / --sched spec-dag do not compose with --pipeline@.";
            exit 2
        | Some s -> Some s
        | None ->
            Fmt.epr
              "--specs / --sched spec-dag need a spec-capable workload \
               (p2p, p2p-simplified, p2p-hotspot)@.";
            exit 2
    in
    (* The engine config the flags describe; combinations the config type
       cannot express exit 2. *)
    let reject msg =
      Fmt.epr "%s@." msg;
      exit 2
    in
    let sched : Harness.Bstm.sched =
      if spec_dag then begin
        if no_estimates || rolling || deltas then
          reject
            "--sched spec-dag executes each transaction once and takes none \
             of --no-estimates, --rolling, --deltas";
        Spec_dag
      end
      else begin
        if no_estimates && use_specs then
          reject "--specs needs ESTIMATE markers (drop --no-estimates)";
        Optimistic
          {
            Harness.Bstm.default_optimistic with
            marking =
              (if no_estimates then Remove_on_abort
               else Estimates { seed_from_specs = use_specs });
            rolling_commit = rolling;
            delta_ops = deltas;
          }
      end
    in
    let config =
      { Harness.Bstm.default_config with num_domains = domains; sched }
    in
    if pipeline then run_pipeline g config executor store blocks n
    else begin
    let time f =
      let r, ns = Blockstm_stats.Clock.time_ns f in
      (r, Blockstm_stats.Clock.tps ~txns:n ~elapsed_ns:ns)
    in
    let snapshot, tps =
      match executor with
      | E_sequential ->
          let r, tps = time (fun () -> Harness.run_sequential
                                ~storage:g.storage g.txns) in
          (r.snapshot, tps)
      | E_blockstm when lanes > 1 ->
          let specs = Option.get lane_specs in
          let partition =
            Harness.account_partition ~num_accounts:accounts ~lanes
          in
          let traces =
            Option.map
              (fun _ ->
                Array.init lanes (fun _ ->
                    Blockstm_obs.Trace.create
                      ~num_workers:(max 1 (domains / lanes)) ()))
              trace_out
          in
          let r, tps =
            time (fun () ->
                Harness.run_lanes ~config
                  ?trace_for:
                    (Option.map (fun ts l -> Some ts.(l)) traces)
                  ~partition ~specs ~storage:g.storage g.txns)
          in
          let m = r.Harness.LanesX.metrics in
          Fmt.pr
            "lanes: %d lanes, %d batches, %d cross-lane txns, imbalance \
             %.2f, per-lane txns %a@."
            m.Harness.LanesX.lanes m.Harness.LanesX.batches
            m.Harness.LanesX.cross_lane_txns m.Harness.LanesX.imbalance
            Fmt.(brackets (array ~sep:semi int))
            m.Harness.LanesX.lane_txn_counts;
          Fmt.pr "metrics: %a@." Harness.Bstm.pp_metrics
            m.Harness.LanesX.engine;
          (match (traces, trace_out) with
          | Some ts, Some path ->
              Array.iteri
                (fun k tr ->
                  let p = Printf.sprintf "%s.lane%d" path k in
                  Blockstm_obs.Trace_export.write_file tr p;
                  Fmt.pr "trace: wrote %s (%d events, %d dropped)@." p
                    (List.length (Blockstm_obs.Trace.events tr))
                    (Blockstm_obs.Trace.dropped tr))
                ts
          | _ -> ());
          (r.Harness.LanesX.snapshot, tps)
      | E_blockstm ->
          let trace =
            Option.map
              (fun _ ->
                Blockstm_obs.Trace.create ~num_workers:domains ())
              trace_out
          in
          let r, tps =
            time (fun () ->
                Harness.run_blockstm ~config ?specs ?trace ~storage:g.storage
                  g.txns)
          in
          Fmt.pr "metrics: %a@." Harness.Bstm.pp_metrics r.metrics;
          if rolling && Array.length r.commit_ns > 0 then begin
            let s =
              Blockstm_stats.Descriptive.summarize
                (Array.map float_of_int r.commit_ns)
            in
            Fmt.pr
              "commit latency (us): p50=%.0f p95=%.0f p99=%.0f max=%.0f@."
              (s.median /. 1e3) (s.p95 /. 1e3) (s.p99 /. 1e3) (s.max /. 1e3)
          end;
          (match (trace, trace_out) with
          | Some tr, Some path ->
              Blockstm_obs.Trace_export.write_file tr path;
              Fmt.pr "trace: wrote %s (%d events, %d dropped)@." path
                (List.length (Blockstm_obs.Trace.events tr))
                (Blockstm_obs.Trace.dropped tr)
          | _ -> ());
          (r.snapshot, tps)
      | E_bohm -> (
          match declared with
          | None ->
              Fmt.epr "bohm needs a workload with declared write-sets@.";
              exit 2
          | Some dw ->
              let r, tps =
                time (fun () ->
                    Harness.run_bohm ~num_domains:domains ~storage:g.storage
                      ~declared_writes:dw g.txns)
              in
              Fmt.pr "executions=%d blocked=%d undeclared=%d@." r.executions
                r.blocked r.undeclared_writes;
              (r.snapshot, tps))
      | E_litm ->
          let r, tps =
            time (fun () ->
                Harness.run_litm ~num_domains:domains ~storage:g.storage
                  g.txns)
          in
          Fmt.pr "rounds=%d executions=%d@." r.rounds r.executions;
          (r.snapshot, tps)
    in
    Fmt.pr "executed %d txns: %.0f tps (wall clock), %d locations written@." n
      tps (List.length snapshot);
    if verify then begin
      let seq = Harness.run_sequential ~storage:g.storage g.txns in
      let ok = Harness.equal_snapshot seq.snapshot snapshot in
      Fmt.pr "verify vs sequential: %s@." (if ok then "OK" else "MISMATCH");
      if not ok then exit 1
    end
    end
  in
  let term =
    Term.(
      const action $ workload_arg $ accounts_arg $ block_arg $ seed_arg
      $ theta_arg $ executor $ domains $ no_estimates $ rolling $ deltas
      $ pipeline $ blocks $ store_arg $ verify $ trace_out $ specs_flag
      $ sched_arg $ lanes_arg $ lane_hint_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a workload with a chosen executor") term

(* --- sim -------------------------------------------------------------------- *)

let sim_cmd =
  let threads =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8; 16; 32 ]
      & info [ "t"; "threads" ] ~docv:"LIST"
          ~doc:"Comma-separated virtual thread counts.")
  in
  let deltas =
    Arg.(
      value & flag
      & info [ "deltas" ]
          ~doc:"Commutative delta entries (DESIGN.md §12).")
  in
  let action workload accounts block seed theta threads deltas =
    let g, _, _ = build_workload workload ~accounts ~block ~seed ~theta in
    let n = Array.length g.txns in
    let seq_us = Harness.sim_sequential_makespan ~storage:g.storage g.txns in
    Fmt.pr "sequential: %.0f tps (virtual time)@."
      (Harness.tps_of_makespan ~txns:n seq_us);
    let t =
      Blockstm_stats.Table.create ~title:"Block-STM virtual-time scaling"
        ~header:
          [ "threads"; "tps"; "speedup"; "incarnations"; "aborts"; "deps" ]
    in
    List.iter
      (fun threads ->
        let config =
          Harness.Bstm.optimistic_config (fun o ->
              { o with delta_ops = deltas })
        in
        let result, stats =
          Harness.sim_blockstm ~config ~num_threads:threads
            ~storage:g.storage g.txns
        in
        let tps = Harness.Virtual_exec.tps ~txns:n stats in
        Blockstm_stats.Table.add_row t
          [
            string_of_int threads;
            Printf.sprintf "%.0f" tps;
            Printf.sprintf "%.1fx"
              (tps /. Harness.tps_of_makespan ~txns:n seq_us);
            string_of_int result.metrics.incarnations;
            string_of_int result.metrics.validation_aborts;
            string_of_int result.metrics.dependency_aborts;
          ])
      threads;
    Blockstm_stats.Table.print t
  in
  let term =
    Term.(
      const action $ workload_arg $ accounts_arg $ block_arg $ seed_arg
      $ theta_arg $ threads $ deltas)
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Virtual-time thread-scaling sweep (see DESIGN.md)")
    term

(* --- exp -------------------------------------------------------------------- *)

let exp_cmd =
  let ids =
    Arg.(
      value & opt_all string []
      & info [ "id" ] ~docv:"NAME"
          ~doc:"Experiment id (fig3..fig6, seq-overhead, aborts, ablations, \
                gas-sharding, lane-scaling, real, scaling, commit-latency, \
                hotspot-delta, state-scale, minimove, vm-cost, sustained, \
                spec-cost, micro). Repeatable; default: all.")
  in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Run the paper's full grid.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the experiment tables as a JSON report.")
  in
  let domains =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "domains" ] ~docv:"N,N,..."
          ~doc:
            "Real domain counts swept by the $(b,scaling) experiment \
             (default 1,2,4).")
  in
  let lanes_grid =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "lanes" ] ~docv:"K,K,..."
          ~doc:
            "Lane counts swept by the $(b,lane-scaling) experiment \
             (default 1,2,4,8).")
  in
  let mempool_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "mempool-rate" ] ~docv:"TPS"
          ~doc:
            "Poisson arrival rate for the $(b,sustained) experiment's \
             latency phase (default: 60% of the measured throughput).")
  in
  let block_size =
    Arg.(
      value
      & opt (some int) None
      & info [ "block-size" ] ~docv:"N"
          ~doc:
            "Target transactions per block cut in the $(b,sustained) \
             experiment (default: grid-dependent).")
  in
  let block_deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "block-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Block-cut deadline for the $(b,sustained) experiment's \
             mempool builder (default 25).")
  in
  let action ids full json domains lanes_grid mempool_rate block_size
      block_deadline =
    (match domains with
    | Some l when List.for_all (fun d -> d >= 1) l ->
        Blockstm_bench.Experiments.set_domains_grid l
    | Some _ -> Fmt.epr "--domains entries must be >= 1; ignoring@."
    | None -> ());
    (match lanes_grid with
    | Some l when List.for_all (fun k -> k >= 1) l ->
        Blockstm_bench.Experiments.set_lanes_grid l
    | Some _ -> Fmt.epr "--lanes entries must be >= 1; ignoring@."
    | None -> ());
    Option.iter Blockstm_bench.Experiments.set_sustained_rate mempool_rate;
    Option.iter Blockstm_bench.Experiments.set_sustained_block_size block_size;
    Option.iter Blockstm_bench.Experiments.set_sustained_deadline_ms
      block_deadline;
    let mode =
      if full then Blockstm_bench.Experiments.Full
      else Blockstm_bench.Experiments.Quick
    in
    Blockstm_bench.Report.set_mode (if full then "full" else "quick");
    let want name = ids = [] || List.mem name ids in
    List.iter
      (fun (name, descr, f) ->
        if want name then begin
          Fmt.pr "@.### %s — %s@." name descr;
          Blockstm_bench.Report.begin_experiment ~name ~descr;
          f mode
        end)
      Blockstm_bench.Experiments.all;
    if want "micro" && ids <> [] then Blockstm_bench.Micro.run ();
    Option.iter Blockstm_bench.Report.write json
  in
  let term =
    Term.(
      const action $ ids $ full $ json $ domains $ lanes_grid $ mempool_rate
      $ block_size $ block_deadline)
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Regenerate the paper's figures and tables")
    term

(* --- minimove --------------------------------------------------------------- *)

let minimove_cmd =
  let file =
    Arg.(
      required
      & opt (some non_dir_file) None
      & info [ "f"; "file" ] ~docv:"FILE" ~doc:"MiniMove source file.")
  in
  let args_arg =
    Arg.(
      value & opt string ""
      & info [ "args" ] ~docv:"LIST"
          ~doc:
            "Comma-separated arguments for main: integers (42), addresses \
             (@7), booleans (true/false).")
  in
  let genesis =
    Arg.(
      value & opt int 0
      & info [ "coin-accounts" ] ~docv:"N"
          ~doc:"Pre-fund N coin accounts (addresses 1..N) before running.")
  in
  let vm_arg =
    let vm_conv =
      Arg.conv
        ( (fun s ->
            match Blockstm_minimove.Runtime.vm_of_string s with
            | Some vm -> Ok vm
            | None ->
                Error (`Msg (Fmt.str "unknown vm %S (tree-walk|compiled)" s))),
          fun ppf vm ->
            Fmt.string ppf (Blockstm_minimove.Runtime.vm_name vm) )
    in
    Arg.(
      value
      & opt vm_conv Blockstm_minimove.Runtime.Compiled
      & info [ "vm" ] ~docv:"VM"
          ~doc:
            "MiniMove VM: $(b,compiled) (closure-compiled, the default) or \
             $(b,tree-walk) (the reference interpreter). Both produce \
             identical results.")
  in
  let parse_arg s =
    let s = String.trim s in
    if s = "" then None
    else if s = "true" then Some (Blockstm_minimove.Mv_value.Value.Bool true)
    else if s = "false" then
      Some (Blockstm_minimove.Mv_value.Value.Bool false)
    else if String.length s > 1 && s.[0] = '@' then
      Some
        (Blockstm_minimove.Mv_value.Value.Addr
           (int_of_string (String.sub s 1 (String.length s - 1))))
    else Some (Blockstm_minimove.Mv_value.Value.Int (int_of_string s))
  in
  let action file args genesis vm =
    let open Blockstm_minimove in
    let src = In_channel.with_open_text file In_channel.input_all in
    match Runtime.load ~vm src with
    | exception Lexer.Lex_error (m, l) ->
        Fmt.epr "lex error (line %d): %s@." l m;
        exit 2
    | exception Parser.Parse_error (m, l) ->
        Fmt.epr "parse error (line %d): %s@." l m;
        exit 2
    | exception Check.Check_error m ->
        Fmt.epr "check error: %s@." m;
        exit 2
    | script ->
        let args =
          String.split_on_char ',' args |> List.filter_map parse_arg
        in
        let store =
          if genesis > 0 then Runtime.coin_genesis ~num_accounts:genesis ()
          else Runtime.Store.create ()
        in
        let r =
          Runtime.Seq.run
            ~storage:(Runtime.Store.reader store)
            [| Runtime.script_txn script ~args |]
        in
        (match r.outputs.(0) with
        | Blockstm_kernel.Txn.Success v ->
            Fmt.pr "result: %a@." Mv_value.Value.pp v
        | Blockstm_kernel.Txn.Failed m ->
            Fmt.pr "transaction failed: %s@." m);
        List.iter
          (fun (l, v) ->
            Fmt.pr "write: %a = %a@." Mv_value.Loc.pp l Mv_value.Value.pp v)
          r.snapshot
  in
  let term = Term.(const action $ file $ args_arg $ genesis $ vm_arg) in
  Cmd.v (Cmd.info "minimove" ~doc:"Compile and run a MiniMove script") term

(* --- analyze ---------------------------------------------------------------- *)

let analyze_cmd =
  let file =
    Arg.(
      required
      & opt (some non_dir_file) None
      & info [ "f"; "file" ] ~docv:"FILE" ~doc:"MiniMove source file.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the specs as JSON instead of the human listing.")
  in
  let action file json =
    let open Blockstm_minimove in
    let src = In_channel.with_open_text file In_channel.input_all in
    match
      let prog = Parser.parse src in
      Check.check ~require_main:false prog;
      prog
    with
    | exception Lexer.Lex_error (m, l) ->
        Fmt.epr "lex error (line %d): %s@." l m;
        exit 2
    | exception Parser.Parse_error (m, l) ->
        Fmt.epr "parse error (line %d): %s@." l m;
        exit 2
    | exception Check.Check_error m ->
        Fmt.epr "check error: %s@." m;
        exit 2
    | prog ->
        let specs = Access.infer prog in
        (* Precision over reads @ writes: exact addresses (including
           parameter-relative ones, which specialize to exact at block
           formation) vs resource wildcards vs unknown. *)
        let precision { Access.spec_reads; spec_writes } =
          List.fold_left
            (fun (e, w, u) -> function
              | Access.Exact_addr _ | Access.Param_addr _ -> (e + 1, w, u)
              | Access.Wildcard _ -> (e, w + 1, u)
              | Access.Unknown -> (e, w, u + 1))
            (0, 0, 0)
            (spec_reads @ spec_writes)
        in
        if json then begin
          let entries es =
            String.concat ", "
              (List.map (fun e -> Fmt.str "%S" (Fmt.str "%a" Access.pp_entry e)) es)
          in
          Fmt.pr "{@.  \"file\": %S,@.  \"functions\": [" file;
          List.iteri
            (fun i (name, fs) ->
              let e, w, u = precision fs in
              Fmt.pr "%s@.    { \"name\": %S, \"reads\": [%s], \"writes\": \
                      [%s],@.      \"precision\": { \"exact\": %d, \
                      \"wildcard\": %d, \"unknown\": %d } }"
                (if i = 0 then "" else ",")
                name
                (entries fs.Access.spec_reads)
                (entries fs.Access.spec_writes)
                e w u)
            specs;
          Fmt.pr "@.  ]@.}@."
        end
        else begin
          List.iter
            (fun (name, fs) ->
              let e, w, u = precision fs in
              Fmt.pr "%s: %a@.  precision: %d exact, %d wildcard, %d unknown@."
                name Access.pp_fspec fs e w u)
            specs;
          let te, tw, tu =
            List.fold_left
              (fun (e, w, u) (_, fs) ->
                let e', w', u' = precision fs in
                (e + e', w + w', u + u'))
              (0, 0, 0) specs
          in
          Fmt.pr "total: %d entries — %d exact, %d wildcard, %d unknown@."
            (te + tw + tu) te tw tu
        end
  in
  let term = Term.(const action $ file $ json_flag) in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Infer static access specifications for a MiniMove script \
          (DESIGN.md §15): per-function read/write specs with precision \
          statistics.")
    term

(* --- main ------------------------------------------------------------------- *)

let () =
  let doc = "Block-STM parallel execution engine (PPOPP'23 reproduction)" in
  let info = Cmd.info "blockstm" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; sim_cmd; exp_cmd; minimove_cmd; analyze_cmd ]))
