(** Tests for the baseline executors: Sequential semantics, BOHM with
    perfect write-sets, LiTM determinism, and the profiling pass. *)

open Blockstm_kernel
open Tutil

(* --- Sequential ----------------------------------------------------------- *)

let test_sequential_order () =
  let txns = [| incr_txn 0; incr_txn 0; incr_txn 0 |] in
  let r = Seq.run ~storage:zero_storage txns in
  Alcotest.(check (list (pair int int))) "final" [ (0, 3) ] r.snapshot;
  Array.iteri
    (fun i o ->
      match o with
      | Txn.Success v -> Alcotest.(check int) "output in order" (i + 1) v
      | Txn.Failed m -> Alcotest.failf "unexpected: %s" m)
    r.outputs

let test_sequential_failure_isolated () =
  let bad : itxn = fun e -> e.write 3 9; failwith "nope" in
  let r = Seq.run ~storage:zero_storage [| incr_txn 0; bad; incr_txn 0 |] in
  Alcotest.(check (list (pair int int)))
    "bad writes dropped" [ (0, 2) ] r.snapshot;
  (match r.outputs.(1) with
  | Txn.Failed _ -> ()
  | _ -> Alcotest.fail "expected failure")

let test_sequential_read_counts () =
  let txns = Array.init 10 (fun i -> rmw ~src:i ~dst:i (fun v -> v + 1)) in
  let r = Seq.run ~storage:zero_storage txns in
  Alcotest.(check int) "reads" 10 r.reads;
  Alcotest.(check int) "writes" 10 r.writes

(* --- BOHM ----------------------------------------------------------------- *)

let bohm_spec n ~accounts ~seed =
  let rng = Blockstm_workload.Rng.create seed in
  let plan =
    Array.init n (fun _ ->
        let a, b = Blockstm_workload.Rng.distinct_pair rng accounts in
        (a, b, 1 + Blockstm_workload.Rng.int rng 5))
  in
  let txns =
    Array.map (fun (a, b, amt) -> transfer ~from_:a ~to_:b ~amount:amt) plan
  in
  let declared = Array.map (fun (a, b, _) -> [| a; b |]) plan in
  (txns, declared)

let test_bohm_matches_sequential () =
  let txns, declared = bohm_spec 200 ~accounts:8 ~seed:3 in
  let seq = Seq.run ~storage:(range_storage ~base:500 8) txns in
  List.iter
    (fun d ->
      let b =
        BohmI.run ~num_domains:d
          ~storage:(range_storage ~base:500 8)
          ~declared_writes:declared txns
      in
      Alcotest.(check bool)
        (Printf.sprintf "snapshot equal (%d domains)" d)
        true
        (b.snapshot = seq.snapshot);
      Array.iteri
        (fun i o ->
          Alcotest.(check bool) "output equal" true
            (Txn.equal_output Int.equal o seq.outputs.(i)))
        b.outputs)
    [ 1; 2; 4 ]

let test_bohm_chain_blocks () =
  (* Strict dependency chain: later transactions must park on placeholders
     when executed in parallel. *)
  let n = 40 in
  let txns =
    Array.init n (fun i -> rmw ~src:i ~dst:(i + 1) (fun v -> v + 1))
  in
  let declared = Array.init n (fun i -> [| i + 1 |]) in
  let b =
    BohmI.run ~num_domains:4 ~storage:zero_storage ~declared_writes:declared
      txns
  in
  let seq = Seq.run ~storage:zero_storage txns in
  Alcotest.(check bool) "snapshot equal" true (b.snapshot = seq.snapshot);
  Alcotest.(check int) "no undeclared writes" 0 b.undeclared_writes;
  Alcotest.(check bool) "each txn executed at least once" true
    (b.executions >= n)

let test_bohm_skip_tombstones () =
  (* A failing transaction materializes none of its declared writes; readers
     must skip its placeholders and see the earlier value. *)
  let bad : itxn = fun e -> e.write 0 99; failwith "abort" in
  let writer : itxn = fun e -> e.write 0 1; 1 in
  let reader : itxn =
   fun e -> (match e.read 0 with Some v -> v | None -> -1)
  in
  let txns = [| writer; bad; reader |] in
  let declared = [| [| 0 |]; [| 0 |]; [||] |] in
  let b =
    BohmI.run ~num_domains:2 ~storage:zero_storage ~declared_writes:declared
      txns
  in
  (match b.outputs.(2) with
  | Txn.Success v -> Alcotest.(check int) "reader skips tombstone" 1 v
  | Txn.Failed m -> Alcotest.failf "unexpected: %s" m);
  Alcotest.(check (list (pair int int))) "snapshot" [ (0, 1) ] b.snapshot

let test_bohm_counts_undeclared () =
  let sneaky : itxn = fun e -> e.write 7 7; 0 in
  let b =
    BohmI.run ~storage:zero_storage ~declared_writes:[| [||] |] [| sneaky |]
  in
  Alcotest.(check int) "undeclared counted" 1 b.undeclared_writes

let test_bohm_validates_input () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Bohm.run: declared_writes length mismatch") (fun () ->
      ignore
        (BohmI.run ~storage:zero_storage ~declared_writes:[||]
           [| incr_txn 0 |]))

(* --- LiTM ----------------------------------------------------------------- *)

let test_litm_independent_one_round () =
  let txns = Array.init 30 (fun i -> incr_txn i) in
  let r = LitmI.run ~storage:zero_storage txns in
  Alcotest.(check int) "one round" 1 r.rounds;
  Alcotest.(check int) "n executions" 30 r.executions;
  Alcotest.(check (list int)) "round sizes" [ 30 ] r.round_sizes

let test_litm_hotspot_n_rounds () =
  (* Every transaction conflicts with every other: exactly one commits per
     round. *)
  let n = 12 in
  let txns = Array.init n (fun _ -> incr_txn 0) in
  let r = LitmI.run ~storage:zero_storage txns in
  Alcotest.(check int) "n rounds" n r.rounds;
  Alcotest.(check int) "quadratic executions" (n * (n + 1) / 2) r.executions;
  Alcotest.(check (list (pair int int))) "correct final" [ (0, n) ] r.snapshot

(* LiTM guarantees a deterministic outcome, but its serialization is the
   round-greedy order, NOT the preset block order (a transaction deferred
   from round 1 can observe writes of a higher-indexed transaction that
   committed in round 1). This test pins down exactly that difference —
   the reason the paper contrasts deterministic STMs with Block-STM — while
   checking that LiTM still produces a serializable, value-conserving
   outcome. *)
let test_litm_serializes_but_not_preset_order () =
  let txns, _ = bohm_spec 150 ~accounts:6 ~seed:11 in
  let storage = range_storage ~base:300 6 in
  let seq = Seq.run ~storage txns in
  let r = LitmI.run ~num_domains:3 ~storage txns in
  (* Same set of touched locations. *)
  Alcotest.(check (list int)) "same written locations"
    (List.map fst seq.snapshot) (List.map fst r.snapshot);
  (* Transfers conserve total balance under ANY serialization. *)
  let total snap = List.fold_left (fun acc (_, v) -> acc + v) 0 snap in
  Alcotest.(check int) "total conserved" (total seq.snapshot)
    (total r.snapshot)

(* [order] is LiTM's serialization: the sequential executor run over the
   block in that order gives LiTM's snapshot and every one of its outputs,
   the reference of [blockstm run -e litm --verify]. Read-modify-writes
   over 6 locations make both depend on the order, and the preset order
   gives a different snapshot, so the check is not vacuous. *)
let test_litm_order_is_its_serialization () =
  let rng = Blockstm_workload.Rng.create 5 in
  let txns =
    Array.init 120 (fun _ ->
        let a, b = Blockstm_workload.Rng.distinct_pair rng 6 in
        rmw ~src:a ~dst:b (fun v -> (v * 3) + 1))
  in
  let storage = range_storage 6 in
  List.iter
    (fun d ->
      let r = LitmI.run ~num_domains:d ~storage txns in
      let seq = Seq.run ~storage (Array.map (fun j -> txns.(j)) r.order) in
      Alcotest.(check (list (pair int int)))
        "snapshot = sequential in LiTM's order" seq.snapshot r.snapshot;
      Alcotest.(check bool)
        "outputs = sequential in LiTM's order" true
        (Array.for_all2 (Txn.equal_output Int.equal) seq.outputs
           (Array.map (fun j -> r.outputs.(j)) r.order));
      Alcotest.(check bool)
        "preset order differs" false
        ((Seq.run ~storage txns).snapshot = r.snapshot))
    [ 1; 3 ]

let test_litm_deterministic () =
  let txns, _ = bohm_spec 100 ~accounts:4 ~seed:21 in
  let r1 = LitmI.run ~num_domains:1 ~storage:zero_storage txns in
  let r2 = LitmI.run ~num_domains:4 ~storage:zero_storage txns in
  Alcotest.(check bool) "snapshots equal across domain counts" true
    (r1.snapshot = r2.snapshot);
  Alcotest.(check int) "same rounds" r1.rounds r2.rounds

let test_litm_failed_txn () =
  let bad : itxn = fun _ -> failwith "x" in
  let r = LitmI.run ~storage:zero_storage [| incr_txn 0; bad |] in
  (match r.outputs.(1) with
  | Txn.Failed _ -> ()
  | _ -> Alcotest.fail "expected failure");
  Alcotest.(check (list (pair int int))) "snapshot" [ (0, 1) ] r.snapshot

(* --- Profile -------------------------------------------------------------- *)

let test_profile_counts_and_deps () =
  let txns =
    [|
      ((fun e -> e.write 0 1; 0) : itxn);
      (* writes 0 *)
      rmw ~src:0 ~dst:1 (fun v -> v + 1);
      (* reads 0 (dep on tx0), writes 1 *)
      rmw ~src:1 ~dst:1 (fun v -> v * 2);
      (* reads 1 (dep on tx1), writes 1 *)
      rmw ~src:9 ~dst:2 (fun v -> v);
      (* reads storage only *)
    |]
  in
  let p = ProfI.run ~storage:zero_storage txns in
  Alcotest.(check (list int)) "tx0 no deps" [] p.(0).deps;
  Alcotest.(check (list int)) "tx1 dep on 0" [ 0 ] p.(1).deps;
  Alcotest.(check (list int)) "tx2 dep on 1" [ 1 ] p.(2).deps;
  Alcotest.(check (list int)) "tx3 no deps" [] p.(3).deps;
  Alcotest.(check int) "tx1 reads" 1 p.(1).reads;
  Alcotest.(check int) "tx1 writes" 1 p.(1).writes

let test_profile_failed_txn_no_writes () =
  let bad : itxn = fun e -> e.write 0 1; failwith "x" in
  let p = ProfI.run ~storage:zero_storage [| bad; rmw ~src:0 ~dst:1 Fun.id |] in
  Alcotest.(check int) "failed txn writes 0" 0 p.(0).writes;
  Alcotest.(check (list int)) "no dep on failed writer" [] p.(1).deps

let suite =
  [
    Alcotest.test_case "sequential: preset order" `Quick test_sequential_order;
    Alcotest.test_case "sequential: failures isolated" `Quick
      test_sequential_failure_isolated;
    Alcotest.test_case "sequential: read/write counts" `Quick
      test_sequential_read_counts;
    Alcotest.test_case "bohm = sequential (1-4 domains)" `Quick
      test_bohm_matches_sequential;
    Alcotest.test_case "bohm: dependency chain" `Quick test_bohm_chain_blocks;
    Alcotest.test_case "bohm: skip tombstones of failed txns" `Quick
      test_bohm_skip_tombstones;
    Alcotest.test_case "bohm: counts undeclared writes" `Quick
      test_bohm_counts_undeclared;
    Alcotest.test_case "bohm: validates input lengths" `Quick
      test_bohm_validates_input;
    Alcotest.test_case "litm: independent block = 1 round" `Quick
      test_litm_independent_one_round;
    Alcotest.test_case "litm: hotspot = n rounds" `Quick
      test_litm_hotspot_n_rounds;
    Alcotest.test_case "litm serializes (round-greedy, not preset order)"
      `Quick test_litm_serializes_but_not_preset_order;
    Alcotest.test_case "litm: order is its serialization" `Quick
      test_litm_order_is_its_serialization;
    Alcotest.test_case "litm: deterministic" `Quick test_litm_deterministic;
    Alcotest.test_case "litm: failed transactions" `Quick test_litm_failed_txn;
    Alcotest.test_case "profile: counts and dependencies" `Quick
      test_profile_counts_and_deps;
    Alcotest.test_case "profile: failed txn contributes no writes" `Quick
      test_profile_failed_txn_no_writes;
  ]
