(** Tests for the two-tier cold storage backend and the engine's
    suspend-on-cold-read path (DESIGN.md §13).

    Backend level: probe answers [Cold] exactly once per location, the
    fetch thunk installs the result (including misses) in the hot tier, and
    [warm] preloads without counting a fetch.

    Engine level: with the store's probe wired, every first touch of a
    location parks the transaction ([cold_reads] and [resumptions] metrics
    fire) and the result still matches sequential execution — without a
    probe the same cold storage is read inline and results are again
    identical. *)

open Tutil
open Blockstm_kernel
module Cold = Blockstm_storage.Coldstore.Make (IntLoc) (IntVal)

(* --- Backend level ------------------------------------------------------- *)

let test_probe_semantics () =
  let c = Cold.create ~backing:(range_storage 10) () in
  Alcotest.(check int) "no fetches yet" 0 (Cold.fetches c);
  (match Cold.probe c 3 with
  | Intf.Hit _ -> Alcotest.fail "first probe must be Cold"
  | Intf.Cold fetch ->
      Alcotest.(check (option int)) "fetch reads backing" (Some 103) (fetch ()));
  Alcotest.(check int) "one fetch" 1 (Cold.fetches c);
  (match Cold.probe c 3 with
  | Intf.Hit v -> Alcotest.(check (option int)) "now hot" (Some 103) v
  | Intf.Cold _ -> Alcotest.fail "second probe must be Hit");
  (* Misses are cached too: absent locations go cold exactly once. *)
  (match Cold.probe c 42 with
  | Intf.Hit _ -> Alcotest.fail "absent location starts cold"
  | Intf.Cold fetch ->
      Alcotest.(check (option int)) "absent fetch" None (fetch ()));
  (match Cold.probe c 42 with
  | Intf.Hit v -> Alcotest.(check (option int)) "absent now hot" None v
  | Intf.Cold _ -> Alcotest.fail "absent location fetched twice");
  Alcotest.(check int) "two fetches total" 2 (Cold.fetches c)

let test_warm_and_reader () =
  let c = Cold.create ~backing:(range_storage 10) () in
  Cold.warm c 5;
  (match Cold.probe c 5 with
  | Intf.Hit v -> Alcotest.(check (option int)) "warmed" (Some 105) v
  | Intf.Cold _ -> Alcotest.fail "warmed location must be Hit");
  Alcotest.(check int) "warm is not a fetch" 0 (Cold.fetches c);
  (* The blocking reader pays the fetch inline and caches. *)
  Alcotest.(check (option int)) "reader" (Some 104) ((Cold.reader c) 4);
  Alcotest.(check int) "reader fetched" 1 (Cold.fetches c);
  Alcotest.(check (option int)) "reader cached" (Some 104) ((Cold.reader c) 4);
  Alcotest.(check int) "no refetch" 1 (Cold.fetches c)

(* --- Engine level -------------------------------------------------------- *)

let block () : itxn array =
  Array.init 30 (fun i ->
      match i mod 3 with
      | 0 -> rmw ~src:(i mod 10) ~dst:((i + 3) mod 10) (fun v -> v + i)
      | 1 -> transfer ~from_:(i mod 10) ~to_:((i + 7) mod 10) ~amount:1
      | _ -> incr_txn ~amount:(1 + (i mod 4)) (i mod 10))

let run_cold ?(probe = true) ~config txns =
  let c = Cold.create ~cold_ns:200 ~backing:(range_storage 10) () in
  let r =
    Bstm.run ~config
      ?probe:(if probe then Some (Cold.probe c) else None)
      ~storage:(Cold.reader c) txns
  in
  (r, c)

let check_vs_sequential name (r : int Bstm.result) txns =
  let seq = Seq.run ~storage:(range_storage 10) txns in
  Alcotest.(check (list (pair int int)))
    (name ^ ": snapshot = sequential")
    seq.snapshot r.snapshot;
  Array.iteri
    (fun i a ->
      if not (Txn.equal_output Int.equal a r.outputs.(i)) then
        Alcotest.failf "%s: output %d differs" name i)
    seq.outputs

(* A probe with plain suspend_resume off: every park/retry comes from the
   cold-read path, so both counters must fire. *)
let test_suspend_fires () =
  let txns = block () in
  let r, c = run_cold ~config:Bstm.default_config txns in
  check_vs_sequential "suspend on" r txns;
  Alcotest.(check bool) "cold_reads > 0" true (r.metrics.cold_reads > 0);
  Alcotest.(check bool) "resumptions > 0" true (r.metrics.resumptions > 0);
  Alcotest.(check int)
    "one fetch per cold read" r.metrics.cold_reads (Cold.fetches c);
  (* 10 locations ever read: each goes cold at most once. *)
  Alcotest.(check bool) "fetches bounded by locations" true
    (Cold.fetches c <= 10)

(* No probe: misses are paid inline through the blocking reader, and no
   cold-read suspensions are recorded. *)
let test_inline_when_disabled () =
  let txns = block () in
  let r, c = run_cold ~probe:false ~config:Bstm.default_config txns in
  check_vs_sequential "suspend off" r txns;
  Alcotest.(check int) "no cold-read suspensions" 0 r.metrics.cold_reads;
  Alcotest.(check bool) "still fetched through the cache" true
    (Cold.fetches c > 0)

let test_multi_domain () =
  let txns = block () in
  let config =
    Bstm.optimistic_config ~num_domains:4 (fun o ->
        { o with suspend_resume = true })
  in
  let r, _ = run_cold ~config txns in
  check_vs_sequential "4 domains" r txns;
  Alcotest.(check bool) "cold_reads > 0" true (r.metrics.cold_reads > 0)

let suite =
  [
    Alcotest.test_case "coldstore: probe/fetch/hit" `Quick
      test_probe_semantics;
    Alcotest.test_case "coldstore: warm and blocking reader" `Quick
      test_warm_and_reader;
    Alcotest.test_case "engine: cold reads suspend and resume" `Quick
      test_suspend_fires;
    Alcotest.test_case "engine: inline fetch when disabled" `Quick
      test_inline_when_disabled;
    Alcotest.test_case "engine: cold reads across 4 domains" `Quick
      test_multi_domain;
  ]
