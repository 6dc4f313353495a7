(** Tests for the continuous block pipeline (DESIGN.md §14): streamed and
    pipelined execution must produce commits — heights, state roots, delta
    roots {e and outputs} — byte-identical to a per-block
    sequential-executor chain, across domain counts, both state substrates
    and both write disciplines (plain writes and commutative deltas). Plus
    unit tests for the mempool that feeds the stream. *)

open Blockstm_kernel
module W = Blockstm_workload
module P2p = W.P2p
module Chain = W.Harness.ChainX
module CBstm = Chain.Bstm
module Mempool = Blockstm_chain.Mempool

(* ------------------------------------------------------------------ *)
(* Stream identity: every mode commits exactly what per-block does    *)
(* ------------------------------------------------------------------ *)

let nblocks = 4

(* Small account pool relative to block size, so consecutive blocks
   genuinely conflict: each block reads what its predecessor wrote, and a
   block executed against a stale state diverges. *)
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
          check_stream_matches
            ~ctx:
              (Fmt.str "%s pipelined %s %dd"
                 (if deltas then "hotspot" else "p2p")
                 sname domains)
            ~reference:refc ~genesis:(genesis ()) ~blocks:wblocks ~executor
            ~store ~mode:`Pipelined ())
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
    (fun (ctx, executor) ->
      let chain = Chain.create ~hash_loc ~executor ~genesis () in
      match
        Tutil.with_timeout ~secs:20. (fun () ->
            Atomic.set stream_dom (Domain.self ());
            Chain.execute_stream ~mode:`Pipelined chain ~next:(next_of blocks))
      with
      | Error (Failure msg) when msg = "digest failed" ->
          Alcotest.(check int)
            (ctx ^ ": no block committed")
            0
            (List.length (Chain.commits chain))
      | Error e -> Alcotest.failf "%s: raised %s" ctx (Printexc.to_string e)
      | Ok _ -> Alcotest.failf "%s: stream did not fail" ctx)
    [
      ("sequential", Chain.Sequential);
      ("block-stm 2d", Chain.Block_stm { CBstm.default_config with num_domains = 2 });
    ]

exception Source_failed

(* A stream whose source raises must not leak its digest domain. [next]
   raises on its second call, after the first block queued its root on the
   digest worker. Each of 200 pipelined streams must re-raise the source's
   exception; had each left its worker blocked, the runtime's domain limit
   (128 on OCaml 5.1) would fail a later stream's [Domain.spawn]. *)
let test_raising_source_joins_worker () =
  let w =
    P2p.generate
      { P2p.default_spec with num_accounts = 20; block_size = 10; seed = 4 }
  in
  for i = 1 to 200 do
    let chain = Chain.create ~executor:Chain.Sequential ~genesis:w.storage () in
    let calls = ref 0 in
    let next () =
      incr calls;
      if !calls > 1 then raise Source_failed else Some w.txns
    in
    match Chain.execute_stream ~mode:`Pipelined chain ~next with
    | _ -> Alcotest.failf "stream %d did not raise" i
    | exception Source_failed -> ()
    | exception e ->
        Alcotest.failf "stream %d raised %s" i (Printexc.to_string e)
  done

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
          marking = Estimates { seed_from_specs = true };
        })
  in
  let dag = { CBstm.num_domains = 2; sched = Spec_dag } in
  let lanes k =
    Chain.Lanes
      {
        config = { CBstm.default_config with num_domains = 2 };
        partition = W.Harness.account_partition ~num_accounts:60 ~lanes:k;
        namespace = Some W.Ledger.Loc.namespace;
      }
  in
  List.iter
    (fun store ->
      let refc = reference ~store ~genesis ~blocks () in
      List.iter
        (fun (ename, executor) ->
          List.iter
            (fun (mname, mode) ->
              check_stream_matches
                ~ctx:
                  (Fmt.str "%s %s %s" ename mname
                     (match store with `Flat -> "flat" | `Merkle -> "merkle"))
                ~reference:refc ~genesis ~blocks
                ~next_specs:(next_of (List.map P2p.txn_specs ws))
                ~executor ~store ~mode ())
            [ ("per-block", `Per_block); ("pipelined", `Pipelined) ])
        ([ ("seeded", Chain.Block_stm seeded); ("spec-dag", Chain.Block_stm dag) ]
        @ List.map (fun k -> (Fmt.str "%d-lane" k, lanes k)) [ 1; 2; 4 ]))
    [ `Flat; `Merkle ]

(* Mempool-fed end-to-end: a producer domain submits the whole stream; the
   pipelined driver cuts fixed-size blocks; commits must match the
   reference chain over the same block boundaries. *)
let test_mempool_driven_pipelined () =
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
    Chain.execute_stream ~mode:`Pipelined
      ~queue_depth:(fun () -> Mempool.depth mp)
      chain ~next
  in
  Domain.join producer;
  Alcotest.(check (option int))
    "mempool-fed pipelined" None
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
    Alcotest.test_case "raising source joins the digest worker" `Quick
      test_raising_source_joins_worker;
    Alcotest.test_case "streams forward specs to the executor" `Quick
      test_stream_forwards_specs;
    Alcotest.test_case "mempool-fed pipelined stream" `Quick
      test_mempool_driven_pipelined;
    Alcotest.test_case "mempool: size cut" `Quick test_mempool_size_cut;
    Alcotest.test_case "mempool: deadline cut" `Quick test_mempool_deadline_cut;
    Alcotest.test_case "mempool: backpressure" `Quick test_mempool_backpressure;
    Alcotest.test_case "mempool: close drains" `Quick test_mempool_close_drains;
  ]
