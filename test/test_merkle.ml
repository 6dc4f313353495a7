(** Tests for the authenticated Merkle state substrate (DESIGN.md §13).

    Store level: the incremental root must equal the from-scratch recompute
    after arbitrary mutation sequences (sets, deletes, delta applications,
    staged writes), and must be a pure function of the final map — history
    and insertion order must not matter.

    Chain level: sequential and Block-STM executors, on 1/2/4/8 domains
    with rolling commit on and off, must all agree on final state, block
    delta roots and every state root. *)

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

(* [of_store] builds in one sweep: the base tier is a copy of the source
   table, and each binding is hashed once into its bucket. It must give the
   same bindings, [root] and [recompute_root] as setting the bindings one by
   one into [create ()], at any bucket count, from source tables of any
   size (the empty one included), and the built store and its source must
   not share state afterwards. *)
let prop_of_store_sweep =
  let state =
    QCheck2.Gen.(
      frequency
        [
          (1, return []);
          (9, list_size (int_bound 120) (pair (int_bound 63) (int_bound 1000)));
        ])
  in
  QCheck2.Test.make ~count:300
    ~name:"merkle: of_store = one-by-one set, independent of its source"
    QCheck2.Gen.(
      quad
        (oneofl [ 1; 8; M.default_buckets ])
        (oneofl [ 1; 16; 1024 ])
        state
        (pair (pair (int_bound 63) (int_bound 1000)) (int_bound 63)))
    (fun (buckets, initial_size, pairs, ((l, v), gone)) ->
      let src = Store.create ~initial_size () in
      List.iter (fun (l, v) -> Store.set src l v) pairs;
      let built = M.of_store ~buckets src in
      let by_set = M.create ~buckets () in
      Store.iter src (fun l v -> M.set by_set l v);
      let bindings m = Store.to_alist (M.base m) in
      let same =
        bindings built = bindings by_set
        && Int64.equal (M.root built) (M.root by_set)
        && Int64.equal (M.recompute_root built) (M.recompute_root by_set)
        && Int64.equal (M.root built) (M.recompute_root built)
      in
      (* Mutating the built store leaves the source's bindings, and the
         root of a store built from it, unchanged... *)
      let src_bindings = Store.to_alist src and src_root = M.root built in
      M.set built l (v + 1);
      M.remove built gone;
      let src_kept =
        Store.to_alist src = src_bindings
        && Int64.equal (M.root (M.of_store ~buckets src)) src_root
      in
      (* ...and mutating the source leaves the built store's unchanged. *)
      let built_bindings = bindings built and built_root = M.root built in
      Store.set src gone (v + 2);
      Store.remove src l;
      let built_kept =
        bindings built = built_bindings
        && Int64.equal (M.root built) built_root
        && Int64.equal (M.recompute_root built) built_root
      in
      same && src_kept && built_kept)

(* A location module that counts its [hash] calls. *)
module Counted_loc = struct
  include IntLoc

  let calls = ref 0

  let hash x =
    incr calls;
    IntLoc.hash x
end

module Counted = Blockstm_storage.Merkle.Make (Counted_loc) (IntVal)
module Counted_store = Blockstm_storage.Memstore.Make (Counted_loc) (IntVal)

(* The work pin: building over n bindings hashes each location exactly
   once (no lookups, no table growth), and so does the from-scratch
   recompute, which shares the sweep. Replaying every binding through [set]
   costs at least 3n calls plus a rehash per table resize. *)
let test_of_store_hashes_once () =
  List.iter
    (fun n ->
      let src = Counted_store.create () in
      for i = 0 to n - 1 do
        Counted_store.set src i (i * 7)
      done;
      Counted_loc.calls := 0;
      let m = Counted.of_store src in
      Alcotest.(check int)
        (Fmt.str "of_store over %d bindings: hash calls" n)
        n !Counted_loc.calls;
      Counted_loc.calls := 0;
      ignore (Counted.recompute_root m);
      Alcotest.(check int)
        (Fmt.str "recompute_root over %d bindings: hash calls" n)
        n !Counted_loc.calls;
      Alcotest.(check int) "cardinal" n (Counted.cardinal m))
    [ 0; 1; 100; 5_000 ]

(* One hash and one probe per applied write: [set] hashes the location for
   its digest bucket and hands that hash to [Memstore.exchange], which finds
   the slot once and returns the binding it replaces, so neither the lookup
   of the old value nor the store hashes the location again. *)
let test_set_hashes_once () =
  let src = Counted_store.create () in
  for i = 0 to 999 do
    Counted_store.set src i (i * 7)
  done;
  let m = Counted.of_store src in
  Counted_loc.calls := 0;
  Counted.set m 17 1;
  Alcotest.(check int) "set on an existing binding: hash calls" 1
    !Counted_loc.calls;
  Counted_loc.calls := 0;
  Counted.apply_delta m (List.init 100 (fun i -> (i * 3, i)));
  Alcotest.(check int) "apply_delta over 100 existing bindings: hash calls"
    100 !Counted_loc.calls;
  Alcotest.(check int64) "root = recompute" (Counted.recompute_root m)
    (Counted.root m)

let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* The base tier is two arrays, so copying it allocates no block per
   binding (arrays this large go straight to the major heap), and
   [of_store] adds only its dirty list, one 3-word cell per filled bucket:
   under 1 minor word per binding where a cell per binding would cost 4. *)
let test_build_allocation () =
  let n = 100_000 in
  let src = Store.create () in
  for i = 0 to n - 1 do
    Store.set src i i
  done;
  let per_binding f = minor_words f /. float_of_int n in
  let copy = per_binding (fun () -> Store.copy src)
  and build = per_binding (fun () -> M.of_store src) in
  if copy >= 1. || build >= 1. then
    Alcotest.failf
      "minor words per binding over %d bindings: copy %.2f, of_store %.2f \
       (need < 1)"
      n copy build

(* A tiny state builds a tiny digest: the tree starts as the empty store's
   (one digest per level, no hashing) and only the buckets the sweep filled
   are dirty, so [of_store] and the first [root] over 10 bindings allocate
   about a hundred words (113 when written), where a dirty list of all
   16,384 buckets alone is 49,152. *)
let test_tiny_build () =
  let src = Store.of_list (List.init 10 (fun i -> (i, 100 + i))) in
  let m = ref (M.create ()) in
  let words =
    minor_words (fun () ->
        m := M.of_store src;
        M.root !m)
  in
  Alcotest.(check int64) "root = recompute" (M.recompute_root !m) (M.root !m);
  Alcotest.(check int) "buckets" M.default_buckets (M.buckets !m);
  if words > 1_000. then
    Alcotest.failf
      "of_store + first root over 10 bindings: %.0f minor words (bound 1000)"
      words

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

let run_chain executor =
  let c = Chain.create ~executor ~genesis:(genesis ()) () in
  let commits = Chain.execute_blocks c (blocks ()) in
  (c, commits)

let sorted_state c = List.sort compare (Chain.Store.to_alist (Chain.state c))

let bstm_config ~domains ~rolling =
  Bstm.optimistic_config ~num_domains:domains (fun o ->
      { o with rolling_commit = rolling })

(* Every executor × domain-count × rolling combination agrees with the
   sequential reference on final state, per-block delta roots and every
   state root, and keeps incremental root = recompute. *)
let test_matrix () =
  let ref_chain, ref_commits = run_chain Chain.Sequential in
  let ref_state = sorted_state ref_chain in
  let ref_deltas = List.map (fun c -> c.Chain.delta_root) ref_commits in
  let check name (c, commits) =
    Alcotest.(check (list (pair int int)))
      (name ^ ": final state") ref_state (sorted_state c);
    Alcotest.(check (list int64))
      (name ^ ": delta roots")
      ref_deltas
      (List.map (fun cm -> cm.Chain.delta_root) commits);
    check_root_consistent name (Chain.merkle_state c);
    Alcotest.(check (option int))
      (name ^ ": no divergence vs sequential")
      None
      (Chain.first_divergence ref_chain c)
  in
  check "seq" (ref_chain, ref_commits);
  List.iter
    (fun domains ->
      List.iter
        (fun rolling ->
          check
            (Fmt.str "bstm/%d-domain%s" domains
               (if rolling then "/rolling" else ""))
            (run_chain (Block_stm (bstm_config ~domains ~rolling))))
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
    qcheck_to_alcotest prop_of_store_sweep;
    Alcotest.test_case "merkle: of_store hashes each location once" `Quick
      test_of_store_hashes_once;
    Alcotest.test_case "merkle: set hashes each location once" `Quick
      test_set_hashes_once;
    Alcotest.test_case "merkle: copy and of_store allocate no cell per binding"
      `Quick test_build_allocation;
    Alcotest.test_case "merkle: tiny state, tiny build" `Quick test_tiny_build;
    Alcotest.test_case "chain: executor/domain matrix" `Slow test_matrix;
  ]
