(** Tests for the continuous block pipeline (DESIGN.md §14): streamed,
    pipelined and cross-block speculative execution must produce commits —
    heights, state roots, delta roots {e and outputs} — byte-identical to a
    per-block sequential-executor chain, across domain counts, both state
    substrates and both write disciplines (plain writes and commutative
    deltas). Plus unit tests for the two new ingestion pieces (mempool,
    overlay) and the engine's cross-block configuration checks. *)

open Blockstm_kernel
module W = Blockstm_workload
module P2p = W.P2p
module Chain = W.Harness.ChainX
module CBstm = Chain.Bstm
module Mempool = Blockstm_chain.Mempool
module IOverlay = Blockstm_chain.Overlay.Make (Tutil.IntLoc) (Tutil.IntVal)

(* ------------------------------------------------------------------ *)
(* Stream identity: every mode commits exactly what per-block does    *)
(* ------------------------------------------------------------------ *)

let nblocks = 4

(* Small account pool relative to block size, so consecutive blocks
   genuinely conflict: speculation has to suspend, revalidate and abort to
   get this right. *)
let p2p_blocks () =
  P2p.generate_stream
    { P2p.default_spec with num_accounts = 60; block_size = 120; seed = 9 }
    ~nblocks

let hotspot_blocks () =
  P2p.generate_hotspot_stream
    {
      P2p.default_hotspot_spec with
      h_num_accounts = 60;
      h_hot_accounts = 2;
      h_block_size = 120;
      h_seed = 9;
    }
    ~nblocks

let next_of blocks =
  let rem = ref blocks in
  fun () ->
    match !rem with
    | [] -> None
    | b :: r ->
        rem := r;
        Some b

(* Reference: per-block sequential executor. The Merkle root algorithm
   differs from the flat fold by design, so each substrate compares against
   a reference on the same substrate (delta roots and outputs are
   substrate-independent and checked against either). *)
let reference ?(store = `Flat) ~genesis ~blocks () =
  let chain = Chain.create ~executor:Chain.Sequential ~store ~genesis () in
  List.iter (fun b -> ignore (Chain.execute_block chain b)) blocks;
  chain

let check_stream_matches ~ctx ~(reference : _ Chain.t) ~genesis ~blocks
    ?next_specs ~executor ~store ~mode () =
  let chain = Chain.create ~executor ~store ~genesis () in
  let commits, stats =
    Chain.execute_stream ~mode ?next_specs chain ~next:(next_of blocks)
  in
  Alcotest.(check (option int))
    (ctx ^ ": no divergence") None
    (Chain.first_divergence reference chain);
  Alcotest.(check int) (ctx ^ ": blocks") (List.length blocks) stats.s_blocks;
  Alcotest.(check int)
    (ctx ^ ": txns")
    (List.fold_left (fun a b -> a + Array.length b) 0 blocks)
    stats.s_txns;
  (* Roots alone could mask output differences; compare them too. *)
  List.iter2
    (fun (r : _ Chain.block_commit) (c : _ Chain.block_commit) ->
      Alcotest.(check int64)
        (Fmt.str "%s: delta root @ %d" ctx c.height)
        r.delta_root c.delta_root;
      Array.iteri
        (fun j o ->
          if not (Txn.equal_output Int.equal o c.outputs.(j)) then
            Alcotest.failf "%s: height %d output %d differs" ctx c.height j)
        r.outputs)
    (Chain.commits reference) commits

let grid_sweep ~deltas () =
  let wblocks =
    if deltas then List.map (fun h -> h.P2p.h_txns) (hotspot_blocks ())
    else List.map (fun w -> w.P2p.txns) (p2p_blocks ())
  in
  let genesis () =
    if deltas then (List.hd (hotspot_blocks ())).P2p.h_storage
    else (List.hd (p2p_blocks ())).P2p.storage
  in
  let ref_flat = reference ~genesis:(genesis ()) ~blocks:wblocks () in
  let ref_merkle =
    reference ~store:`Merkle ~genesis:(genesis ()) ~blocks:wblocks ()
  in
  List.iter
    (fun domains ->
      List.iter
        (fun store ->
          let sname = match store with `Flat -> "flat" | `Merkle -> "merkle" in
          let refc = match store with `Flat -> ref_flat | `Merkle -> ref_merkle in
          let executor =
            Chain.Block_stm
              (CBstm.optimistic_config ~num_domains:domains (fun o ->
                   { o with rolling_commit = true; delta_ops = deltas }))
          in
          List.iter
            (fun (mname, mode) ->
              check_stream_matches
                ~ctx:
                  (Fmt.str "%s %s %s %dd"
                     (if deltas then "hotspot" else "p2p")
                     mname sname domains)
                ~reference:refc ~genesis:(genesis ()) ~blocks:wblocks ~executor
                ~store ~mode ())
            [ ("pipelined", `Pipelined); ("speculative", `Speculative) ])
        [ `Flat; `Merkle ])
    [ 1; 2; 4; 8 ]

let test_stream_identity_plain () = grid_sweep ~deltas:false ()
let test_stream_identity_deltas () = grid_sweep ~deltas:true ()

(* Sequential executor through the pipelined stream (root overlap only). *)
let test_stream_sequential_pipelined () =
  let blocks = List.map (fun w -> w.P2p.txns) (p2p_blocks ()) in
  let genesis = (List.hd (p2p_blocks ())).P2p.storage in
  List.iter
    (fun store ->
      let refc = reference ~store ~genesis ~blocks () in
      check_stream_matches
        ~ctx:
          (Fmt.str "seq pipelined %s"
             (match store with `Flat -> "flat" | `Merkle -> "merkle"))
        ~reference:refc ~genesis ~blocks ~executor:Chain.Sequential ~store
        ~mode:`Pipelined ())
    [ `Flat; `Merkle ]

(* A rolling-commit Merkle chain through [execute_blocks ~pipeline:true]. *)
let test_merkle_rolling_pipelined () =
  let blocks = List.map (fun w -> w.P2p.txns) (p2p_blocks ()) in
  let genesis = (List.hd (p2p_blocks ())).P2p.storage in
  let refc = reference ~store:`Merkle ~genesis ~blocks () in
  let executor =
    Chain.Block_stm
      (CBstm.optimistic_config ~num_domains:4 (fun o ->
           { o with rolling_commit = true }))
  in
  let chain = Chain.create ~executor ~store:`Merkle ~genesis () in
  let commits = Chain.execute_blocks ~pipeline:true chain blocks in
  Alcotest.(check int) "commit count" nblocks (List.length commits);
  Alcotest.(check (option int))
    "rolling merkle pipelined" None
    (Chain.first_divergence refc chain)

(* Run [f] on its own domain and fail the test if it has not returned
   within [secs]: a hang fails this test instead of stalling the suite. *)
let with_timeout ~secs f =
  let res = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set res (Some (try Ok (f ()) with e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. secs in
  let rec wait () =
    match Atomic.get res with
    | Some r ->
        Domain.join d;
        r
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "no result after %.0f s" secs;
        Unix.sleepf 0.01;
        wait ()
  in
  wait ()

(* A job that raises on the digest worker is an error of the stream, not a
   hang: [hash_loc] raises off the domain running the stream, i.e. in the
   first state-root job, so the stream must raise it and commit no block. *)
let test_digest_failure () =
  let ws =
    P2p.generate_stream
      { P2p.default_spec with num_accounts = 60; block_size = 50; seed = 3 }
      ~nblocks:3
  in
  let blocks = List.map (fun w -> w.P2p.txns) ws in
  let genesis = (List.hd ws).P2p.storage in
  let stream_dom = Atomic.make (Domain.self ()) in
  let hash_loc l =
    if Domain.self () = Atomic.get stream_dom then W.Ledger.Loc.hash l
    else failwith "digest failed"
  in
  List.iter
    (fun (ctx, executor, mode) ->
      let chain = Chain.create ~hash_loc ~executor ~genesis () in
      match
        with_timeout ~secs:20. (fun () ->
            Atomic.set stream_dom (Domain.self ());
            Chain.execute_stream ~mode chain ~next:(next_of blocks))
      with
      | Error (Failure msg) when msg = "digest failed" ->
          Alcotest.(check int)
            (ctx ^ ": no block committed")
            0
            (List.length (Chain.commits chain))
      | Error e -> Alcotest.failf "%s: raised %s" ctx (Printexc.to_string e)
      | Ok _ -> Alcotest.failf "%s: stream did not fail" ctx)
    [
      ("pipelined", Chain.Sequential, `Pipelined);
      ( "speculative",
        Chain.Block_stm { CBstm.default_config with num_domains = 2 },
        `Speculative );
    ]

(* [`Speculative] runs every instance with rolling commit, so a lazy
   executor speculates too; only a schedule without validation is refused. *)
let test_speculative_lazy_executor () =
  let blocks = List.map (fun w -> w.P2p.txns) (p2p_blocks ()) in
  let genesis = (List.hd (p2p_blocks ())).P2p.storage in
  let lazy_cfg = { CBstm.default_config with num_domains = 2 } in
  check_stream_matches ~ctx:"lazy speculative"
    ~reference:(reference ~genesis ~blocks ())
    ~genesis ~blocks ~executor:(Chain.Block_stm lazy_cfg) ~store:`Flat
    ~mode:`Speculative ();
  let chain =
    Chain.create
      ~executor:(Chain.Block_stm { lazy_cfg with sched = Spec_dag })
      ~genesis ()
  in
  Alcotest.check_raises "spec-dag rejected"
    (Invalid_argument
       "Chain.execute_stream: `Speculative requires a Block_stm executor with \
        an Optimistic schedule")
    (fun () ->
      ignore (Chain.execute_stream ~mode:`Speculative chain ~next:(fun () -> None)))

(* The chain hands each block's specs to the executor: Block-STM configs
   that seed from specs or schedule from the spec DAG need them, and so do
   lanes; all must commit exactly what the sequential chain does. *)
let test_stream_forwards_specs () =
  let ws = p2p_blocks () in
  let blocks = List.map (fun w -> w.P2p.txns) ws in
  let genesis = (List.hd ws).P2p.storage in
  let seeded =
    CBstm.optimistic_config ~num_domains:2 (fun o ->
        {
          o with
          marking = Estimates { validation = Suffix; seed_from_specs = true };
        })
  in
  let dag = { CBstm.default_config with num_domains = 2; sched = Spec_dag } in
  let lanes k =
    Chain.Lanes
      {
        config = { CBstm.default_config with num_domains = 2 };
        partition = W.Harness.account_partition ~num_accounts:60 ~lanes:k;
        namespace = Some W.Ledger.Loc.namespace;
      }
  in
  let per_block_pipelined =
    [ ("per-block", `Per_block); ("pipelined", `Pipelined) ]
  in
  List.iter
    (fun store ->
      let refc = reference ~store ~genesis ~blocks () in
      List.iter
        (fun (ename, executor, modes) ->
          List.iter
            (fun (mname, mode) ->
              check_stream_matches
                ~ctx:
                  (Fmt.str "%s %s %s" ename mname
                     (match store with `Flat -> "flat" | `Merkle -> "merkle"))
                ~reference:refc ~genesis ~blocks
                ~next_specs:(next_of (List.map P2p.txn_specs ws))
                ~executor ~store ~mode ())
            modes)
        ([
           ( "seeded",
             Chain.Block_stm seeded,
             per_block_pipelined @ [ ("speculative", `Speculative) ] );
           ("spec-dag", Chain.Block_stm dag, per_block_pipelined);
         ]
        @ List.map
            (fun k -> (Fmt.str "%d-lane" k, lanes k, per_block_pipelined))
            [ 1; 2; 4 ]))
    [ `Flat; `Merkle ]

(* Most transactions of a low-contention block are spec-independent, yet in
   a speculative stream their specs must not excuse them from the seal-time
   revalidation: the predecessor block can still change what they read. *)
let test_speculative_independent_specs () =
  let ws =
    P2p.generate_stream
      { P2p.default_spec with num_accounts = 10_000; block_size = 300; seed = 11 }
      ~nblocks:6
  in
  let blocks = List.map (fun w -> w.P2p.txns) ws in
  let genesis = (List.hd ws).P2p.storage in
  let refc = reference ~genesis ~blocks () in
  List.iter
    (fun num_domains ->
      check_stream_matches
        ~ctx:(Fmt.str "independent speculative %dd" num_domains)
        ~reference:refc ~genesis ~blocks
        ~next_specs:(next_of (List.map P2p.txn_specs ws))
        ~executor:(Chain.Block_stm { CBstm.default_config with num_domains })
        ~store:`Flat ~mode:`Speculative ())
    [ 1; 2; 4 ]

(* Mempool-fed end-to-end: a producer domain submits the whole stream; the
   speculative driver cuts fixed-size blocks; commits must match the
   reference chain over the same block boundaries. *)
let test_mempool_driven_speculative () =
  let ws = p2p_blocks () in
  let blocks = List.map (fun w -> w.P2p.txns) ws in
  let genesis = (List.hd ws).P2p.storage in
  let refc = reference ~genesis ~blocks () in
  let block_size = Array.length (List.hd blocks) in
  let mp = Mempool.create ~capacity:64 () in
  let producer =
    Domain.spawn (fun () ->
        List.iter
          (fun b -> Array.iter (fun txn -> ignore (Mempool.submit mp txn)) b)
          blocks;
        Mempool.close mp)
  in
  let executor =
    Chain.Block_stm
      (CBstm.optimistic_config ~num_domains:4 (fun o ->
           { o with rolling_commit = true }))
  in
  let chain = Chain.create ~executor ~genesis () in
  let next () =
    match
      Mempool.next_block mp ~max_txns:block_size
        ~deadline_ns:(60 * 1_000_000_000)
    with
    | [||] -> None
    | b -> Some b
  in
  let _, stats =
    Chain.execute_stream ~mode:`Speculative
      ~queue_depth:(fun () -> Mempool.depth mp)
      chain ~next
  in
  Domain.join producer;
  Alcotest.(check (option int))
    "mempool-fed speculative" None
    (Chain.first_divergence refc chain);
  Alcotest.(check int) "all txns committed" (nblocks * block_size) stats.s_txns;
  Alcotest.(check int)
    "all submissions admitted" (nblocks * block_size) (Mempool.accepted mp)

(* ------------------------------------------------------------------ *)
(* Mempool unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let sec = 1_000_000_000

let test_mempool_size_cut () =
  let mp = Mempool.create () in
  for i = 1 to 10 do
    Alcotest.(check bool) "submit" true (Mempool.try_submit mp i)
  done;
  let b = Mempool.next_block mp ~max_txns:4 ~deadline_ns:(60 * sec) in
  Alcotest.(check (array int)) "first cut" [| 1; 2; 3; 4 |] b;
  let b = Mempool.next_block mp ~max_txns:4 ~deadline_ns:(60 * sec) in
  Alcotest.(check (array int)) "second cut" [| 5; 6; 7; 8 |] b;
  Alcotest.(check int) "depth" 2 (Mempool.depth mp)

let test_mempool_deadline_cut () =
  let mp = Mempool.create () in
  ignore (Mempool.try_submit mp 1);
  ignore (Mempool.try_submit mp 2);
  let t0 = Blockstm_obs.Trace.now_ns () in
  let deadline_ns = 30_000_000 (* 30ms *) in
  let b = Mempool.next_block mp ~max_txns:100 ~deadline_ns in
  let elapsed = Blockstm_obs.Trace.now_ns () - t0 in
  Alcotest.(check (array int)) "deadline cut keeps what arrived" [| 1; 2 |] b;
  Alcotest.(check bool)
    (Fmt.str "waited out the deadline (%dns)" elapsed)
    true
    (elapsed >= deadline_ns)

let test_mempool_backpressure () =
  let mp = Mempool.create ~capacity:2 () in
  Alcotest.(check bool) "fill 1" true (Mempool.try_submit mp 1);
  Alcotest.(check bool) "fill 2" true (Mempool.try_submit mp 2);
  Alcotest.(check bool) "full refuses" false (Mempool.try_submit mp 3);
  Alcotest.(check int) "drop counted" 1 (Mempool.dropped mp);
  (* Blocking submit parks until the consumer makes room. *)
  let blocked = Domain.spawn (fun () -> Mempool.submit mp 4) in
  let b = Mempool.next_block mp ~max_txns:2 ~deadline_ns:sec in
  Alcotest.(check bool) "blocked submit admitted" true (Domain.join blocked);
  Alcotest.(check (array int)) "fifo preserved" [| 1; 2 |] b;
  Alcotest.(check (array int))
    "parked element drains" [| 4 |]
    (Mempool.next_block mp ~max_txns:2 ~deadline_ns:0)

let test_mempool_close_drains () =
  let mp = Mempool.create () in
  ignore (Mempool.try_submit mp 1);
  Mempool.close mp;
  Alcotest.(check bool) "closed refuses" false (Mempool.try_submit mp 2);
  Alcotest.(check bool) "closed blocking refuses" false (Mempool.submit mp 2);
  Alcotest.(check (array int))
    "pending drains" [| 1 |]
    (Mempool.next_block mp ~max_txns:10 ~deadline_ns:(60 * sec));
  Alcotest.(check (array int))
    "then stream end" [||]
    (Mempool.next_block mp ~max_txns:10 ~deadline_ns:(60 * sec))

(* ------------------------------------------------------------------ *)
(* Overlay unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_overlay_generations () =
  let ov = IOverlay.create () in
  Alcotest.(check int) "absent gen" 0 (IOverlay.gen ov 7);
  Alcotest.(check (option int)) "absent find" None (IOverlay.find ov 7);
  IOverlay.apply_batch ov [| (7, 10) |];
  Alcotest.(check int) "first publish" 1 (IOverlay.gen ov 7);
  Alcotest.(check (option int)) "value" (Some 10) (IOverlay.find ov 7);
  let v = IOverlay.version ov in
  IOverlay.apply_batch ov [| (7, 10) |];
  Alcotest.(check int) "equal value keeps gen" 1 (IOverlay.gen ov 7);
  Alcotest.(check int) "equal value keeps version" v (IOverlay.version ov);
  IOverlay.apply_batch ov [| (7, 11) |];
  Alcotest.(check int) "new value bumps gen" 2 (IOverlay.gen ov 7);
  Alcotest.(check bool) "new value bumps version" true
    (IOverlay.version ov > v)

let test_overlay_wait () =
  let ov = IOverlay.create () in
  let e0 = IOverlay.epoch ov in
  (* Waiter released by a publication. *)
  let w1 = Domain.spawn (fun () -> IOverlay.wait ov 3 ~epoch:e0) in
  IOverlay.apply_batch ov [| (3, 42) |];
  Alcotest.(check (option int)) "publication wakes waiter" (Some 42)
    (Domain.join w1);
  (* Waiter released by the epoch advancing: advertised write aborted. *)
  let w2 = Domain.spawn (fun () -> IOverlay.wait ov 4 ~epoch:e0) in
  IOverlay.seal ov;
  Alcotest.(check (option int)) "seal releases waiter to base" None
    (Domain.join w2);
  (* Already-present location returns immediately, whatever the epoch. *)
  Alcotest.(check (option int)) "present returns" (Some 42)
    (IOverlay.wait ov 3 ~epoch:(IOverlay.epoch ov))

(* ------------------------------------------------------------------ *)
(* Engine cross-block configuration checks                            *)
(* ------------------------------------------------------------------ *)

(* [gen] makes the instance a cross-block speculation with rolling commit
   whatever the config says: a lazy config commits the block like the
   sequential executor, through the commit sweep. Only a schedule without
   validation, and sealing an instance created without [gen], are
   refused. *)
let test_engine_cross_block_config () =
  let open Tutil in
  let n = 40 in
  let txns = Array.init n (fun i -> incr_txn (i mod 3)) in
  let seq = Seq.run ~storage:zero_storage txns in
  List.iter
    (fun num_domains ->
      let inst =
        Bstm.create_instance
          ~config:{ Bstm.default_config with num_domains }
          ~gen:(fun _ -> 0)
          ~storage:zero_storage txns
      in
      Bstm.base_sealed inst;
      let others =
        List.init (num_domains - 1) (fun _ ->
            Domain.spawn (fun () -> Bstm.worker_loop inst))
      in
      Bstm.worker_loop inst;
      List.iter Domain.join others;
      let r = Bstm.finalize inst in
      Alcotest.(check (list (pair int int)))
        (Fmt.str "lazy config + gen = sequential @ %dd" num_domains)
        seq.snapshot r.Bstm.snapshot;
      Alcotest.(check int)
        (Fmt.str "committed by the sweep @ %dd" num_domains)
        n r.Bstm.metrics.commits)
    [ 1; 2 ];
  Alcotest.check_raises "gen with Spec_dag"
    (Invalid_argument "Block_stm: gen requires an Optimistic schedule")
    (fun () ->
      ignore
        (Bstm.create_instance
           ~config:{ Bstm.default_config with sched = Spec_dag }
           ~specs:[| Access_spec.empty |] ~gen:(fun _ -> 0)
           ~storage:zero_storage [| incr_txn 0 |]));
  Alcotest.check_raises "base_sealed without gen"
    (Invalid_argument
       "Block_stm: base_sealed requires an instance created with gen")
    (fun () ->
      Bstm.base_sealed
        (Bstm.create_instance ~storage:zero_storage [| incr_txn 0 |]))

(* A cross-block instance runs gated: nothing commits until [base_sealed]
   opens the gate, and finalizing a never-sealed instance is a bug. *)
let test_engine_gate () =
  let open Tutil in
  let txns = Array.init 5 (fun _ -> incr_txn 0) in
  let inst =
    Bstm.create_instance ~gen:(fun _ -> 0) ~storage:zero_storage txns
  in
  Alcotest.(check bool) "finalize before seal rejected" true
    (try
       ignore (Bstm.finalize inst);
       false
     with Failure _ -> true);
  Bstm.base_sealed ~changed:false inst;
  Bstm.worker_loop inst;
  let res = Bstm.finalize inst in
  Alcotest.(check (list (pair int int))) "sealed run commits" [ (0, 5) ]
    res.Bstm.snapshot

(* Specs prove two transactions disjoint from each other, not from the
   predecessor block. Both execute against the old base; then the
   predecessor commits a new value under tx_0's read. The seal-time
   revalidation must catch it although tx_0's spec is independent. *)
let test_engine_cross_block_specs () =
  let open Tutil in
  let base = [| 0; 0 |] and gens = [| 0; 0 |] in
  let storage l = Some base.(l) in
  let txns = [| incr_txn 0; incr_txn 1 |] in
  let specs =
    Array.init 2 (fun l ->
        Access_spec.{ reads = [ Exact l ]; writes = [ Exact l ] })
  in
  Alcotest.(check int)
    "specs declare both independent" 2
    (Bstm.run ~specs ~storage txns).Bstm.metrics.spec_skips;
  let inst =
    Bstm.create_instance ~gen:(fun l -> gens.(l)) ~specs ~storage txns
  in
  (* Everything the held scheduler hands out, against the old base. *)
  let rec drain task =
    match Bstm.step inst task with
    | _, Bstm.No_task -> ()
    | task', _ -> drain task'
  in
  drain None;
  base.(0) <- 10;
  gens.(0) <- 1;
  Bstm.base_sealed inst;
  Bstm.worker_loop inst;
  let r = Bstm.finalize inst in
  let seq = Seq.run ~storage txns in
  Alcotest.(check (list (pair int int)))
    "committed on the sealed base" seq.snapshot r.Bstm.snapshot;
  Array.iteri
    (fun j o ->
      if not (Txn.equal_output Int.equal o r.Bstm.outputs.(j)) then
        Alcotest.failf "output %d differs from sequential" j)
    seq.outputs;
  Alcotest.(check int) "no spec skips across blocks" 0
    r.Bstm.metrics.spec_skips

let suite =
  [
    Alcotest.test_case "stream identity: p2p, 1/2/4/8 domains, both stores"
      `Slow test_stream_identity_plain;
    Alcotest.test_case "stream identity: hotspot deltas, 1/2/4/8 domains"
      `Slow test_stream_identity_deltas;
    Alcotest.test_case "sequential executor, pipelined stream" `Quick
      test_stream_sequential_pipelined;
    Alcotest.test_case "rolling merkle chain, pipelined blocks" `Quick
      test_merkle_rolling_pipelined;
    Alcotest.test_case "failed digest job raises, does not hang" `Quick
      test_digest_failure;
    Alcotest.test_case "speculative mode with a lazy executor" `Quick
      test_speculative_lazy_executor;
    Alcotest.test_case "streams forward specs to the executor" `Quick
      test_stream_forwards_specs;
    Alcotest.test_case "speculative stream, spec-independent txns" `Quick
      test_speculative_independent_specs;
    Alcotest.test_case "mempool-fed speculative stream" `Quick
      test_mempool_driven_speculative;
    Alcotest.test_case "mempool: size cut" `Quick test_mempool_size_cut;
    Alcotest.test_case "mempool: deadline cut" `Quick test_mempool_deadline_cut;
    Alcotest.test_case "mempool: backpressure" `Quick test_mempool_backpressure;
    Alcotest.test_case "mempool: close drains" `Quick test_mempool_close_drains;
    Alcotest.test_case "overlay: generation stamps" `Quick
      test_overlay_generations;
    Alcotest.test_case "overlay: wait wakeups" `Quick test_overlay_wait;
    Alcotest.test_case "engine: cross-block config validation" `Quick
      test_engine_cross_block_config;
    Alcotest.test_case "engine: commit gate" `Quick test_engine_gate;
    Alcotest.test_case "engine: specs skip no cross-block revalidation" `Quick
      test_engine_cross_block_specs;
  ]
