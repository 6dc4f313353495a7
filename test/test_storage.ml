(** Tests for the Memstore storage substrate. *)

open Tutil
open Blockstm_kernel

let test_basic_ops () =
  let s = Store.create () in
  Alcotest.(check (option int)) "empty get" None (Store.get s 1);
  Store.set s 1 10;
  Alcotest.(check (option int)) "get after set" (Some 10) (Store.get s 1);
  Store.set s 1 11;
  Alcotest.(check (option int)) "overwrite" (Some 11) (Store.get s 1);
  Alcotest.(check int) "cardinal" 1 (Store.cardinal s);
  Alcotest.(check bool) "mem" true (Store.mem s 1);
  Store.remove s 1;
  Alcotest.(check bool) "removed" false (Store.mem s 1)

let test_of_list_and_to_alist () =
  let s = Store.of_list [ (3, 30); (1, 10); (2, 20); (1, 11) ] in
  Alcotest.(check (list (pair int int)))
    "sorted, last duplicate wins"
    [ (1, 11); (2, 20); (3, 30) ]
    (Store.to_alist s)

let test_reader () =
  let s = Store.of_list [ (5, 50) ] in
  let r = Store.reader s in
  Alcotest.(check (option int)) "hit" (Some 50) (r 5);
  Alcotest.(check (option int)) "miss" None (r 6)

let test_apply_delta () =
  let s = Store.of_list [ (1, 1); (2, 2) ] in
  Store.apply_delta s [ (2, 22); (3, 33) ];
  Alcotest.(check (list (pair int int)))
    "merged"
    [ (1, 1); (2, 22); (3, 33) ]
    (Store.to_alist s)

let test_copy_isolated () =
  let s = Store.of_list [ (1, 1) ] in
  let c = Store.copy s in
  Store.set c 1 99;
  Alcotest.(check (option int)) "original untouched" (Some 1) (Store.get s 1);
  Alcotest.(check (option int)) "copy changed" (Some 99) (Store.get c 1)

let test_equal () =
  let a = Store.of_list [ (1, 1); (2, 2) ] in
  let b = Store.of_list [ (2, 2); (1, 1) ] in
  Alcotest.(check bool) "equal" true (Store.equal a b);
  Store.set b 3 3;
  Alcotest.(check bool) "not equal (extra)" false (Store.equal a b);
  Store.remove b 3;
  Store.set b 2 0;
  Alcotest.(check bool) "not equal (value)" false (Store.equal a b)

(* Chaining blocks: the snapshot of block k feeds storage of block k+1. *)
let test_block_chaining () =
  let s = Store.create () in
  Store.set s 0 0;
  for _block = 1 to 5 do
    let txns = Array.init 10 (fun _ -> incr_txn 0) in
    let r = Bstm.run ~storage:(Store.reader s) txns in
    Store.apply_delta s r.snapshot
  done;
  Alcotest.(check (option int)) "50 increments across 5 blocks" (Some 50)
    (Store.get s 0)

(* --- The open-addressed table against a Hashtbl model ------------------- *)

(* Random [set]/[exchange]/[remove]/[get]/[mem]/[copy]/[iter]/[cardinal]
   sequences, each op checked against a [Hashtbl] model. Two store/model
   pairs are live: [Fork] replaces the other pair with a copy of the current
   one and [Swap] carries on with the other, so mutations on a copy and on
   its source are both followed by checks that the other side kept its own
   bindings. A table made with initial size 0 or 8 starts at 8 or 11 slots
   and doubles several times on the way to the 100-odd bindings a sequence
   keeps live; one made with initial size 1024 never grows. *)
module Model (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  module S = Blockstm_storage.Memstore.Make (L) (V)
  module H = Hashtbl.Make (L)

  type op =
    | Set of L.t * V.t
    | Exchange of L.t * V.t
    | Remove of L.t
    | Get of L.t
    | Mem of L.t
    | Fork
    | Swap
    | Iter
    | Cardinal

  let gen_op key value =
    QCheck2.Gen.(
      frequency
        [
          (6, map2 (fun l v -> Set (l, v)) key value);
          (2, map2 (fun l v -> Exchange (l, v)) key value);
          (4, map (fun l -> Remove l) key);
          (2, map (fun l -> Get l) key);
          (1, map (fun l -> Mem l) key);
          (1, return Fork);
          (1, return Swap);
          (1, return Iter);
          (1, return Cardinal);
        ])

  let same_opt a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> V.equal x y
    | _ -> false

  (* [iter] visits each model binding exactly once and nothing else. *)
  let agree (s, m) =
    let seen = H.create 16 and visits = ref 0 in
    S.iter s (fun l v ->
        incr visits;
        H.replace seen l v);
    S.cardinal s = H.length m
    && !visits = H.length m
    && H.length seen = H.length m
    && H.fold (fun l v ok -> ok && same_opt (Some v) (H.find_opt seen l)) m true

  let prop ~name ~count key value =
    QCheck2.Test.make ~count ~name
      QCheck2.Gen.(
        pair (oneofl [ 0; 8; 1024 ])
          (list_size (int_range 200 500) (gen_op key value)))
      (fun (initial_size, ops) ->
        let cur = ref (S.create ~initial_size (), H.create 16) in
        let other = ref (S.create (), H.create 16) in
        let step op =
          let s, m = !cur in
          match op with
          | Set (l, v) ->
              S.set s l v;
              H.replace m l v;
              true
          | Exchange (l, v) ->
              let before = H.find_opt m l in
              H.replace m l v;
              same_opt before (S.exchange s ~hash:(L.hash l) l v)
          | Remove l ->
              S.remove s l;
              H.remove m l;
              true
          | Get l -> same_opt (S.get s l) (H.find_opt m l)
          | Mem l -> S.mem s l = H.mem m l
          | Fork ->
              other := (S.copy s, H.copy m);
              true
          | Swap ->
              let o = !other in
              other := !cur;
              cur := o;
              true
          | Iter -> agree !cur
          | Cardinal -> S.cardinal s = H.length m
        in
        List.for_all step ops && agree !cur && agree !other)
end

(* Clustered keys: every hash is a multiple of 64 and there are only four
   of them. A home slot scales the hash's low 32 bits to the table, so the
   homes are slot 0 and about 13/16, 14/16 and 15/16 of the way along: the
   runs merge and wrap round the end of the array into the run at slot 0,
   where keys homed near the end sit after keys homed at 0. *)
module Clustered_loc = struct
  include IntLoc

  let hash x = -((x land 3) lsl 28)
end

module Float_val = struct
  type t = float

  let equal = Float.equal
  let hash = Hashtbl.hash
  let pp = Fmt.float

  let as_counter f =
    if Float.is_integer f then Some (int_of_float f) else None

  let of_counter = float_of_int
end

module Ledger_model =
  Model (Blockstm_workload.Ledger.Loc) (Blockstm_workload.Ledger.Value)

module Clustered_model = Model (Clustered_loc) (IntVal)
module Float_model = Model (IntLoc) (Float_val)

let prop_ledger_model =
  let open Blockstm_workload.Ledger in
  let key =
    QCheck2.Gen.(
      oneof
        [
          map global (int_bound (n_globals - 1));
          map2
            (fun acct loc -> loc acct)
            (int_bound 80)
            (oneofl [ balance; seqno; frozen; auth_key; exists ]);
        ])
  and value =
    QCheck2.Gen.(
      oneof
        [
          map (fun i -> Value.Int i) (int_bound 1000);
          map (fun b -> Value.Bool b) bool;
          map (fun s -> Value.Bytes s) (string_size (int_bound 6));
        ])
  in
  Ledger_model.prop ~count:150
    ~name:"memstore = Hashtbl model (ledger locations)" key value

let prop_clustered_model =
  Clustered_model.prop ~count:100
    ~name:"memstore = Hashtbl model (clustered, wrapping runs)"
    QCheck2.Gen.(int_bound 400)
    QCheck2.Gen.(int_bound 1000)

let prop_float_model =
  Float_model.prop ~count:100 ~name:"memstore = Hashtbl model (float values)"
    QCheck2.Gen.(int_bound 400)
    QCheck2.Gen.float

let suite =
  [
    Alcotest.test_case "basic operations" `Quick test_basic_ops;
    Alcotest.test_case "of_list / to_alist" `Quick test_of_list_and_to_alist;
    Alcotest.test_case "reader view" `Quick test_reader;
    Alcotest.test_case "apply_delta" `Quick test_apply_delta;
    Alcotest.test_case "copy isolation" `Quick test_copy_isolated;
    Alcotest.test_case "equality" `Quick test_equal;
    Alcotest.test_case "block chaining" `Quick test_block_chaining;
    qcheck_to_alcotest prop_ledger_model;
    qcheck_to_alcotest prop_clustered_model;
    qcheck_to_alcotest prop_float_model;
  ]
