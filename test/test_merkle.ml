(** Tests for the authenticated Merkle state substrate (DESIGN.md §13).

    Store level: the incremental root must equal the from-scratch recompute
    after arbitrary mutation sequences (sets, deletes, delta applications,
    staged writes), and must be a pure function of the final map — history
    and insertion order must not matter.

    Chain level: flat and Merkle substrates, sequential and Block-STM
    executors, and 1/2/4/8 domains must all agree on final state and block
    delta roots; same-substrate replicas must agree on every state root. *)

open Tutil
open Blockstm_kernel
module M = Blockstm_storage.Merkle.Make (IntLoc) (IntVal)
module Chain = Blockstm_chain.Chain.Make (IntLoc) (IntVal)

let check_root_consistent name (m : M.t) =
  Alcotest.(check int64)
    (name ^ ": incremental root = recompute")
    (M.recompute_root m) (M.root m);
  (* The root must also match a substrate freshly rebuilt from the same
     contents: no residue from the mutation history. *)
  let rebuilt = M.of_store (M.base m) in
  Alcotest.(check int64)
    (name ^ ": root = fresh rebuild")
    (M.root rebuilt) (M.root m)

(* --- Store level --------------------------------------------------------- *)

let test_basic () =
  let m = M.create () in
  Alcotest.(check int) "empty cardinal" 0 (M.cardinal m);
  Alcotest.(check int64) "empty root = recompute" (M.recompute_root m)
    (M.root m);
  let empty_root = M.root m in
  M.set m 1 10;
  M.set m 2 20;
  Alcotest.(check (option int)) "get" (Some 10) (M.get m 1);
  Alcotest.(check bool) "mem" true (M.mem m 2);
  Alcotest.(check int) "cardinal" 2 (M.cardinal m);
  check_root_consistent "after sets" m;
  let two_root = M.root m in
  Alcotest.(check bool) "root changed" false (Int64.equal empty_root two_root);
  (* Overwrite with an equal value: digest untouched. *)
  M.set m 1 10;
  Alcotest.(check int64) "equal overwrite keeps root" two_root (M.root m);
  M.remove m 1;
  M.remove m 2;
  Alcotest.(check (option int)) "removed" None (M.get m 1);
  Alcotest.(check int64) "back to empty root" empty_root (M.root m);
  check_root_consistent "after removes" m

let test_history_independence () =
  (* Same final map via different histories and orders → same root. *)
  let a = M.create () in
  List.iter (fun (l, v) -> M.set a l v) [ (1, 10); (2, 20); (3, 30) ];
  M.remove a 2;
  let b = M.create () in
  List.iter (fun (l, v) -> M.set b l v) [ (3, 99); (1, 10) ];
  M.set b 3 30;
  Alcotest.(check int64) "roots agree" (M.root a) (M.root b);
  check_root_consistent "a" a;
  check_root_consistent "b" b

let test_apply_delta_idempotent () =
  let m = M.create () in
  M.set m 1 10;
  M.set m 2 20;
  let delta = [ (1, 11); (3, 33) ] in
  M.apply_delta m delta;
  let r1 = M.root m in
  check_root_consistent "after delta" m;
  (* Re-applying the same snapshot (already-equal bindings) is a no-op. *)
  M.apply_delta m delta;
  Alcotest.(check int64) "idempotent" r1 (M.root m);
  check_root_consistent "after re-apply" m

(* Random mutation sequences: sets, deletes and delta batches over a small
   location space (so collisions within a bucket and repeated
   overwrite/delete of the same key are common). *)
let prop_random_ops =
  let op =
    QCheck2.Gen.(
      oneof
        [
          map2 (fun l v -> `Set (l, v)) (int_bound 19) (int_bound 1000);
          map (fun l -> `Remove l) (int_bound 19);
          map
            (fun pairs -> `Delta pairs)
            (list_size (int_bound 6)
               (pair (int_bound 19) (int_bound 1000)));
        ])
  in
  QCheck2.Test.make ~count:200 ~name:"merkle: root = recompute after random ops"
    QCheck2.Gen.(list_size (int_bound 60) op)
    (fun ops ->
      (* A tiny bucket count forces many keys per bucket. *)
      let m = M.create ~buckets:8 () in
      List.iter
        (function
          | `Set (l, v) -> M.set m l v
          | `Remove l -> M.remove m l
          | `Delta pairs -> M.apply_delta m pairs)
        ops;
      let ok_incr = Int64.equal (M.root m) (M.recompute_root m) in
      let rebuilt = M.of_store ~buckets:8 (M.base m) in
      ok_incr && Int64.equal (M.root m) (M.root rebuilt))

(* --- Chain level --------------------------------------------------------- *)

let genesis () =
  let s = Chain.Store.create () in
  for i = 0 to 9 do
    Chain.Store.set s i (100 + i)
  done;
  s

(* A delta-op transaction: commutative counter add/sub on [l]. *)
let agg l amount : itxn =
 fun e ->
  let d = if amount >= 0 then Delta.add amount else Delta.sub (-amount) in
  match e.delta l d with
  | Txn.Applied -> 1
  | Txn.Bounds_violation -> 0
  | Txn.Not_a_counter -> -1

(* Blocks mixing plain read-modify-writes, transfers and commutative delta
   ops, all over locations 0..9. *)
let block_of_seed seed : itxn array =
  Array.init 40 (fun i ->
      let k = (seed * 40) + i in
      match k mod 4 with
      | 0 -> rmw ~src:(k mod 10) ~dst:((k + 3) mod 10) (fun v -> v + k)
      | 1 -> transfer ~from_:(k mod 10) ~to_:((k + 7) mod 10) ~amount:1
      | 2 -> agg (k mod 10) (if k mod 8 = 2 then 5 else -3)
      | _ -> incr_txn ~amount:(k mod 5) (k mod 10))

let blocks () = List.map block_of_seed [ 0; 1; 2 ]

let run_chain ?(store = `Flat) executor =
  let c = Chain.create ~store ~executor ~genesis:(genesis ()) () in
  let commits = Chain.execute_blocks c (blocks ()) in
  (c, commits)

let sorted_state c = List.sort compare (Chain.Store.to_alist (Chain.state c))

let bstm_config ~domains ~rolling =
  Bstm.optimistic_config ~num_domains:domains (fun o ->
      { o with rolling_commit = rolling })

(* Every substrate × executor × domain-count combination agrees with the
   sequential flat reference on final state and per-block delta roots; the
   Merkle chains additionally keep incremental root = recompute. *)
let test_matrix () =
  let ref_chain, ref_commits = run_chain Chain.Sequential in
  let ref_state = sorted_state ref_chain in
  let ref_deltas = List.map (fun c -> c.Chain.delta_root) ref_commits in
  let seq_merkle, _ = run_chain ~store:`Merkle Chain.Sequential in
  let check name (c, commits) =
    Alcotest.(check (list (pair int int)))
      (name ^ ": final state") ref_state (sorted_state c);
    Alcotest.(check (list int64))
      (name ^ ": delta roots")
      ref_deltas
      (List.map (fun cm -> cm.Chain.delta_root) commits);
    match Chain.merkle_state c with
    | None ->
        Alcotest.(check (option int))
          (name ^ ": no divergence vs flat reference")
          None
          (Chain.first_divergence ref_chain c)
    | Some m ->
        check_root_consistent name m;
        Alcotest.(check (option int))
          (name ^ ": no divergence vs merkle reference")
          None
          (Chain.first_divergence seq_merkle c)
  in
  check "seq/merkle" (seq_merkle, Chain.commits seq_merkle);
  List.iter
    (fun domains ->
      let name store rolling =
        Fmt.str "bstm/%s/%d-domain%s" store domains
          (if rolling then "/rolling" else "")
      in
      check (name "flat" false)
        (run_chain (Block_stm (bstm_config ~domains ~rolling:false)));
      List.iter
        (fun rolling ->
          check (name "merkle" rolling)
            (run_chain ~store:`Merkle
               (Block_stm (bstm_config ~domains ~rolling))))
        [ false; true ])
    [ 1; 2; 4; 8 ]

let suite =
  [
    Alcotest.test_case "merkle: basic ops and root" `Quick test_basic;
    Alcotest.test_case "merkle: history independence" `Quick
      test_history_independence;
    Alcotest.test_case "merkle: apply_delta idempotent" `Quick
      test_apply_delta_idempotent;
    qcheck_to_alcotest prop_random_ops;
    Alcotest.test_case "chain: substrate/executor/domain matrix" `Slow
      test_matrix;
  ]
