(* blockstm — command-line driver for the Block-STM reproduction.

   Subcommands:
     run       execute a workload with a chosen executor and verify it
     sim       virtual-time thread-scaling sweep
     minimove  compile and run a MiniMove script file
     analyze   infer static access specifications for a MiniMove script

   Examples:
     blockstm run --workload p2p --accounts 100 --block 1000 --domains 4
     blockstm run --workload p2p --accounts 10000 --specs
     blockstm sim --workload p2p --accounts 2 --threads 1,4,16,32
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
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Also run the sequential executor and compare the written \
             snapshot and every transaction's output. The sequential run \
             takes the block in preset order, except for litm, which \
             commits round by round: its reference runs the block in the \
             order litm committed it. Prints $(b,verify vs sequential: \
             OK), or $(b,MISMATCH) and exits 1.")
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
             transaction's exact read/write spec to the engine, whose exact \
             write specs seed ESTIMATE markers before first execution (the \
             paper's §7 write-set pre-estimation). Blockstm executor only; \
             requires a spec-capable workload (p2p, p2p-simplified, \
             p2p-hotspot).")
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
  let action workload accounts block seed theta executor domains no_estimates
      rolling deltas verify trace_out use_specs lanes lane_hint =
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
    if lanes > 1 && executor <> E_blockstm then begin
      Fmt.epr "--lanes needs the blockstm executor@.";
      exit 2
    end;
    let n = Array.length g.txns in
    let specs =
      if not (use_specs || lanes > 1) then None
      else
        match wspecs with
        | Some s -> Some s
        | None ->
            Fmt.epr
              "--specs and --lanes need a spec-capable workload (p2p, \
               p2p-simplified, p2p-hotspot)@.";
            exit 2
    in
    let partition =
      if lanes = 1 then None
      else Some (Harness.account_partition ~num_accounts:accounts ~lanes)
    in
    (* The engine config the flags describe; a combination the config type
       cannot express exits 2. *)
    if no_estimates && use_specs then begin
      Fmt.epr "--specs needs ESTIMATE markers (drop --no-estimates)@.";
      exit 2
    end;
    let config =
      {
        Harness.Bstm.default_config with
        num_domains = domains;
        marking =
          (if no_estimates then Remove_on_abort
           else Estimates { seed_from_specs = use_specs });
        rolling_commit = rolling;
        delta_ops = deltas;
      }
    in
    let time f =
      let r, ns = Blockstm_stats.Clock.time_ns f in
      (r, Blockstm_stats.Clock.tps ~txns:n ~elapsed_ns:ns)
    in
    (* Each branch returns, for --verify, a thunk comparing its result with
       the sequential reference; [preset] runs that reference in preset
       order. *)
    let preset snapshot outputs () =
      Harness.check_against
        (Harness.run_sequential ~storage:g.storage g.txns)
        ~outputs snapshot
    in
    let snapshot, tps, check =
      match executor with
      | E_sequential ->
          let r, tps = time (fun () -> Harness.run_sequential
                                ~storage:g.storage g.txns) in
          (r.snapshot, tps, preset r.snapshot r.outputs)
      | E_blockstm when lanes > 1 ->
          let specs = Option.get specs and partition = Option.get partition in
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
          ( r.Harness.LanesX.snapshot,
            tps,
            preset r.Harness.LanesX.snapshot r.Harness.LanesX.outputs )
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
          (r.snapshot, tps, preset r.snapshot r.outputs)
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
              (r.snapshot, tps, preset r.snapshot r.outputs))
      | E_litm ->
          let r, tps =
            time (fun () ->
                Harness.run_litm ~num_domains:domains ~storage:g.storage
                  g.txns)
          in
          Fmt.pr "rounds=%d executions=%d@." r.rounds r.executions;
          ( r.snapshot,
            tps,
            fun () -> Harness.check_litm ~storage:g.storage g.txns r )
    in
    Fmt.pr "executed %d txns: %.0f tps (wall clock), %d locations written@." n
      tps (List.length snapshot);
    if verify then begin
      let c = check () in
      Fmt.pr "verify vs sequential: %s@."
        (match (c.snapshot_ok, c.outputs_ok) with
        | true, true -> "OK"
        | false, true -> "MISMATCH (snapshot)"
        | true, false -> "MISMATCH (outputs)"
        | false, false -> "MISMATCH (snapshot and outputs)");
      if not (Harness.check_ok c) then exit 1
    end
  in
  let term =
    Term.(
      const action $ workload_arg $ accounts_arg $ block_arg $ seed_arg
      $ theta_arg $ executor $ domains $ no_estimates $ rolling $ deltas
      $ verify $ trace_out $ specs_flag $ lanes_arg $ lane_hint_arg)
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
        let config = { Harness.Bstm.default_config with delta_ops = deltas } in
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
          let module J = Blockstm_obs.Json in
          let entries es =
            J.List
              (List.map (fun e -> J.Str (Fmt.str "%a" Access.pp_entry e)) es)
          in
          let num n = J.Num (float_of_int n) in
          let func (name, fs) =
            let e, w, u = precision fs in
            J.Obj
              [
                ("name", J.Str name);
                ("reads", entries fs.Access.spec_reads);
                ("writes", entries fs.Access.spec_writes);
                ( "precision",
                  J.Obj
                    [
                      ("exact", num e); ("wildcard", num w); ("unknown", num u);
                    ] );
              ]
          in
          print_endline
            (J.to_string
               (J.Obj
                  [
                    ("file", J.Str file);
                    ("functions", J.List (List.map func specs));
                  ]))
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
          [ run_cmd; sim_cmd; minimove_cmd; analyze_cmd ]))
