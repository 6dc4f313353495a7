(** Tests for block streams (DESIGN.md §14): [Chain.execute_stream] must
    produce commits — heights, state roots, delta roots {e and outputs} —
    byte-identical to a per-block sequential-executor chain, across domain
    counts and both write disciplines (plain writes and commutative
    deltas), and a raising hook must leave the chain at a block boundary.
    Plus unit tests for the mempool that feeds the stream. *)

open Blockstm_kernel
module W = Blockstm_workload
module P2p = W.P2p
module Chain = W.Harness.ChainX
module CBstm = Chain.Bstm
module Mempool = Blockstm_chain.Mempool

(* ------------------------------------------------------------------ *)
(* Stream identity: a stream commits what the sequential chain does   *)
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

(* Reference: per-block sequential executor. *)
let reference ~genesis ~blocks () =
  let chain = Chain.create ~executor:Chain.Sequential ~genesis () in
  List.iter (fun b -> ignore (Chain.execute_block chain b)) blocks;
  chain

let check_stream_matches ~ctx ~(reference : _ Chain.t) ~genesis ~blocks
    ?next_specs ~executor () =
  let chain = Chain.create ~executor ~genesis () in
  let commits, stats =
    Chain.execute_stream ?next_specs chain ~next:(next_of blocks)
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
  let refc = reference ~genesis:(genesis ()) ~blocks:wblocks () in
  List.iter
    (fun domains ->
      let executor =
        Chain.Block_stm
          {
            CBstm.default_config with
            num_domains = domains;
            rolling_commit = true;
            delta_ops = deltas;
          }
      in
      check_stream_matches
        ~ctx:(Fmt.str "%s %dd" (if deltas then "hotspot" else "p2p") domains)
        ~reference:refc ~genesis:(genesis ()) ~blocks:wblocks ~executor ())
    [ 1; 2; 4; 8 ]

let test_stream_identity_plain () = grid_sweep ~deltas:false ()
let test_stream_identity_deltas () = grid_sweep ~deltas:true ()

(* The sequential executor through the stream. *)
let test_stream_sequential () =
  let blocks = List.map (fun w -> w.P2p.txns) (p2p_blocks ()) in
  let genesis = (List.hd (p2p_blocks ())).P2p.storage in
  check_stream_matches ~ctx:"seq stream"
    ~reference:(reference ~genesis ~blocks ())
    ~genesis ~blocks ~executor:Chain.Sequential ()

exception Source_failed
exception Hook_failed

(* A raising [next] or [on_block] propagates out of the stream unchanged,
   and the chain keeps exactly the commits made before the failure: when
   [next] raises at its k-th call, blocks 1..k-1 have committed; when
   [on_block] raises at its k-th call, block k has committed too, since
   the hook runs after its block's commit. *)
let test_raising_hooks_propagate () =
  let blocks = List.map (fun w -> w.P2p.txns) (p2p_blocks ()) in
  let genesis = (List.hd (p2p_blocks ())).P2p.storage in
  let refc = reference ~genesis ~blocks () in
  let ref_roots =
    List.map (fun (c : _ Chain.block_commit) -> c.state_root)
      (Chain.commits refc)
  in
  let check_prefix ~ctx chain n =
    Alcotest.(check int) (ctx ^ ": height") n (Chain.height chain);
    Alcotest.(check int)
      (ctx ^ ": height = commits") (Chain.height chain)
      (List.length (Chain.commits chain));
    Alcotest.(check (list int64))
      (ctx ^ ": committed roots")
      (List.filteri (fun i _ -> i < n) ref_roots)
      (List.map (fun (c : _ Chain.block_commit) -> c.state_root)
         (Chain.commits chain))
  in
  let expect_raise ~ctx exn run =
    match run () with
    | _ -> Alcotest.failf "%s: stream did not raise" ctx
    | exception e when e == exn -> ()
    | exception e -> Alcotest.failf "%s: raised %s" ctx (Printexc.to_string e)
  in
  List.iter
    (fun (ename, executor) ->
      for k = 1 to nblocks do
        let ctx = Fmt.str "%s, next raises at call %d" ename k in
        let chain = Chain.create ~executor ~genesis () in
        let calls = ref 0 and src = next_of blocks in
        let next () =
          incr calls;
          if !calls = k then raise Source_failed else src ()
        in
        expect_raise ~ctx Source_failed (fun () ->
            Chain.execute_stream chain ~next);
        check_prefix ~ctx chain (k - 1);
        let ctx = Fmt.str "%s, on_block raises at call %d" ename k in
        let chain = Chain.create ~executor ~genesis () in
        let calls = ref 0 in
        let on_block _ =
          incr calls;
          if !calls = k then raise Hook_failed
        in
        expect_raise ~ctx Hook_failed (fun () ->
            Chain.execute_stream ~on_block chain ~next:(next_of blocks));
        check_prefix ~ctx chain k
      done)
    [
      ("sequential", Chain.Sequential);
      ( "block-stm 2d",
        Chain.Block_stm { CBstm.default_config with num_domains = 2 } );
    ]

let lanes k =
  Chain.Lanes
    {
      config = { CBstm.default_config with num_domains = 2 };
      partition = W.Harness.account_partition ~num_accounts:60 ~lanes:k;
      namespace = Some W.Ledger.Loc.namespace;
    }

(* The chain hands each block's specs to the lanes executor, whose
   classifier plans from them; every lane count must commit exactly what
   the sequential chain does. *)
let test_stream_forwards_specs () =
  let ws = p2p_blocks () in
  let blocks = List.map (fun w -> w.P2p.txns) ws in
  let genesis = (List.hd ws).P2p.storage in
  let refc = reference ~genesis ~blocks () in
  List.iter
    (fun k ->
      check_stream_matches ~ctx:(Fmt.str "%d-lane" k) ~reference:refc ~genesis
        ~blocks
        ~next_specs:(next_of (List.map P2p.txn_specs ws))
        ~executor:(lanes k) ())
    [ 1; 2; 4 ]

(* Lanes are the one executor that needs specs. A block handed to a lanes
   chain without them, through [execute_block] or [execute_stream], raises
   [Invalid_argument] before it runs, and the chain stays at genesis. *)
let test_lanes_without_specs () =
  let ws = p2p_blocks () in
  let blocks = List.map (fun w -> w.P2p.txns) ws in
  let genesis = (List.hd ws).P2p.storage in
  let genesis_root =
    Chain.state_root (Chain.create ~executor:Chain.Sequential ~genesis ())
  in
  let check ~ctx run =
    let chain = Chain.create ~executor:(lanes 2) ~genesis () in
    Alcotest.check_raises ctx
      (Invalid_argument "Chain: the lanes executor needs per-block access specs")
      (fun () -> run chain);
    Alcotest.(check int) (ctx ^ ": height") 0 (Chain.height chain);
    Alcotest.(check int)
      (ctx ^ ": commits") 0
      (List.length (Chain.commits chain));
    Alcotest.(check int64)
      (ctx ^ ": genesis root") genesis_root (Chain.state_root chain)
  in
  check ~ctx:"execute_block" (fun chain ->
      ignore (Chain.execute_block chain (List.hd blocks)));
  check ~ctx:"execute_stream" (fun chain ->
      ignore (Chain.execute_stream chain ~next:(next_of blocks)))

(* Mempool-fed end-to-end: a producer domain submits the whole stream; the
   stream's [next] cuts fixed-size blocks; commits must match the reference
   chain over the same block boundaries. *)
let test_mempool_driven () =
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
      { CBstm.default_config with num_domains = 4; rolling_commit = true }
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
  let _, stats = Chain.execute_stream chain ~next in
  Domain.join producer;
  Alcotest.(check (option int))
    "mempool-fed stream" None
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
    Alcotest.test_case "stream identity: p2p, 1/2/4/8 domains" `Slow
      test_stream_identity_plain;
    Alcotest.test_case "stream identity: hotspot deltas, 1/2/4/8 domains"
      `Slow test_stream_identity_deltas;
    Alcotest.test_case "sequential executor, stream" `Quick
      test_stream_sequential;
    Alcotest.test_case "raising next or on_block keeps committed prefix"
      `Quick test_raising_hooks_propagate;
    Alcotest.test_case "streams forward specs to the executor" `Quick
      test_stream_forwards_specs;
    Alcotest.test_case "lanes without specs raise at genesis" `Quick
      test_lanes_without_specs;
    Alcotest.test_case "mempool-fed stream" `Quick test_mempool_driven;
    Alcotest.test_case "mempool: size cut" `Quick test_mempool_size_cut;
    Alcotest.test_case "mempool: deadline cut" `Quick test_mempool_deadline_cut;
    Alcotest.test_case "mempool: backpressure" `Quick test_mempool_backpressure;
    Alcotest.test_case "mempool: close drains" `Quick test_mempool_close_drains;
  ]
