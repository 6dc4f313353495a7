(** Unit tests for the kernel: versions, read origins, atomic utilities and
    the transaction output type. *)

open Blockstm_kernel

let test_version_make () =
  let v = Version.make ~txn_idx:3 ~incarnation:2 in
  Alcotest.(check int) "txn_idx" 3 (Version.txn_idx v);
  Alcotest.(check int) "incarnation" 2 (Version.incarnation v);
  Alcotest.check_raises "negative txn_idx"
    (Invalid_argument "Version.make: negative txn_idx") (fun () ->
      ignore (Version.make ~txn_idx:(-1) ~incarnation:0));
  Alcotest.check_raises "negative incarnation"
    (Invalid_argument "Version.make: negative incarnation") (fun () ->
      ignore (Version.make ~txn_idx:0 ~incarnation:(-2)))

let test_version_equal_compare () =
  let v a b = Version.make ~txn_idx:a ~incarnation:b in
  Alcotest.(check bool) "equal" true (Version.equal (v 1 2) (v 1 2));
  Alcotest.(check bool) "not equal idx" false (Version.equal (v 1 2) (v 2 2));
  Alcotest.(check bool) "not equal inc" false (Version.equal (v 1 2) (v 1 3));
  Alcotest.(check bool) "lt by idx" true (Version.compare (v 1 9) (v 2 0) < 0);
  Alcotest.(check bool) "lt by inc" true (Version.compare (v 1 1) (v 1 2) < 0);
  Alcotest.(check int) "eq" 0 (Version.compare (v 4 4) (v 4 4));
  Alcotest.(check string) "pp" "(4,7)" (Version.to_string (v 4 7))

let test_read_origin () =
  let v = Version.make ~txn_idx:5 ~incarnation:1 in
  Alcotest.(check bool) "storage = storage" true
    (Read_origin.equal Read_origin.Storage Read_origin.Storage);
  Alcotest.(check bool) "mv = mv" true
    (Read_origin.equal (Read_origin.Mv v) (Read_origin.Mv v));
  Alcotest.(check bool) "storage <> mv" false
    (Read_origin.equal Read_origin.Storage (Read_origin.Mv v));
  Alcotest.(check bool) "mv different versions" false
    (Read_origin.equal (Read_origin.Mv v)
       (Read_origin.Mv (Version.make ~txn_idx:5 ~incarnation:2)))

let test_fetch_min () =
  let a = Atomic.make 10 in
  Alcotest.(check bool) "decreases" true (Atomic_util.fetch_min a 5);
  Alcotest.(check int) "value" 5 (Atomic.get a);
  Alcotest.(check bool) "no-op when larger" false (Atomic_util.fetch_min a 7);
  Alcotest.(check int) "unchanged" 5 (Atomic.get a);
  Alcotest.(check bool) "no-op when equal" false (Atomic_util.fetch_min a 5);
  Alcotest.(check bool) "negative" true (Atomic_util.fetch_min a (-3));
  Alcotest.(check int) "negative value" (-3) (Atomic.get a)

let test_get_and_incr () =
  let a = Atomic.make 0 in
  Alcotest.(check int) "first" 0 (Atomic_util.get_and_incr a);
  Alcotest.(check int) "second" 1 (Atomic_util.get_and_incr a);
  Atomic_util.decr a;
  Alcotest.(check int) "after decr" 1 (Atomic.get a);
  Atomic_util.incr a;
  Alcotest.(check int) "after incr" 2 (Atomic.get a)

(* fetch_min under real parallel contention: the final value must be the
   global minimum and every decrease must have been reported exactly when the
   value shrank. *)
let test_fetch_min_parallel () =
  let a = Atomic.make max_int in
  let n_domains = 4 in
  let per_domain = 2500 in
  let domains =
    Array.init n_domains (fun d ->
        Domain.spawn (fun () ->
            let decreases = ref 0 in
            for i = 0 to per_domain - 1 do
              (* Values interleave across domains; global min is 2. *)
              let v = 2 + ((i * n_domains) + d) in
              if Atomic_util.fetch_min a v then incr decreases
            done;
            !decreases))
  in
  let total_decreases =
    Array.fold_left (fun acc d -> acc + Domain.join d) 0 domains
  in
  Alcotest.(check int) "global minimum" 2 (Atomic.get a);
  Alcotest.(check bool) "at least one decrease" true (total_decreases >= 1)

let test_txn_output () =
  let open Txn in
  Alcotest.(check bool) "success eq" true
    (equal_output Int.equal (Success 3) (Success 3));
  Alcotest.(check bool) "success neq" false
    (equal_output Int.equal (Success 3) (Success 4));
  Alcotest.(check bool) "failed eq" true
    (equal_output Int.equal (Failed "x") (Failed "x"));
  Alcotest.(check bool) "failed neq" false
    (equal_output Int.equal (Failed "x") (Failed "y"));
  Alcotest.(check bool) "mixed" false
    (equal_output Int.equal (Success 1) (Failed "1"))

let suite =
  [
    Alcotest.test_case "Version.make validates" `Quick test_version_make;
    Alcotest.test_case "Version equal/compare/pp" `Quick
      test_version_equal_compare;
    Alcotest.test_case "Read_origin equality" `Quick test_read_origin;
    Alcotest.test_case "fetch_min" `Quick test_fetch_min;
    Alcotest.test_case "get_and_incr / incr / decr" `Quick test_get_and_incr;
    Alcotest.test_case "fetch_min under parallel contention" `Quick
      test_fetch_min_parallel;
    Alcotest.test_case "Txn.output equality" `Quick test_txn_output;
  ]
