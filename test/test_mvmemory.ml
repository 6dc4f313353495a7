(** Unit tests for the multi-version memory (Algorithms 2–3). *)

open Blockstm_kernel
open Tutil

let ver t i = Version.make ~txn_idx:t ~incarnation:i

let record mv ~txn ~inc ?(reads = Mv.empty_read_set) writes =
  Mv.record mv (ver txn inc) reads (Array.of_list writes)

let check_read msg mv loc ~txn expected =
  let actual = Mv.read mv loc ~txn_idx:txn in
  let pp ppf = function
    | Mv.Ok (v, value) -> Fmt.pf ppf "Ok(%a,%d)" Version.pp v value
    | Mv.Merged { value } -> Fmt.pf ppf "Merged(%d)" value
    | Mv.Not_found -> Fmt.string ppf "Not_found"
    | Mv.Read_error { blocking_txn_idx } ->
        Fmt.pf ppf "Read_error(%d)" blocking_txn_idx
  in
  let eq a b =
    match (a, b) with
    | Mv.Ok (v1, x1), Mv.Ok (v2, x2) -> Version.equal v1 v2 && x1 = x2
    | Mv.Merged a, Mv.Merged b -> a.value = b.value
    | Mv.Not_found, Mv.Not_found -> true
    | Mv.Read_error a, Mv.Read_error b ->
        a.blocking_txn_idx = b.blocking_txn_idx
    | _ -> false
  in
  Alcotest.check (Alcotest.testable pp eq) msg expected actual

(* --- Reads --------------------------------------------------------------- *)

let test_read_empty () =
  let mv = Mv.create ~block_size:4 () in
  check_read "empty" mv 0 ~txn:3 Mv.Not_found

let test_read_highest_lower () =
  let mv = Mv.create ~block_size:10 () in
  ignore (record mv ~txn:1 ~inc:0 [ (7, 100) ]);
  ignore (record mv ~txn:4 ~inc:0 [ (7, 400) ]);
  ignore (record mv ~txn:6 ~inc:0 [ (7, 600) ]);
  (* tx5 must see tx4's write even though tx6 also wrote. *)
  check_read "tx5 sees tx4" mv 7 ~txn:5 (Mv.Ok (ver 4 0, 400));
  check_read "tx2 sees tx1" mv 7 ~txn:2 (Mv.Ok (ver 1 0, 100));
  check_read "tx1 sees nothing" mv 7 ~txn:1 Mv.Not_found;
  check_read "tx9 sees tx6" mv 7 ~txn:9 (Mv.Ok (ver 6 0, 600));
  (* A transaction never reads its own MVMemory entry. *)
  check_read "tx4 skips itself" mv 7 ~txn:4 (Mv.Ok (ver 1 0, 100))

let test_read_estimate () =
  let mv = Mv.create ~block_size:10 () in
  ignore (record mv ~txn:2 ~inc:0 [ (5, 20) ]);
  Mv.convert_writes_to_estimates mv 2;
  check_read "estimate blocks" mv 5 ~txn:7
    (Mv.Read_error { blocking_txn_idx = 2 });
  (* Lower transactions are unaffected. *)
  check_read "below estimate" mv 5 ~txn:2 Mv.Not_found

let test_read_incarnation_in_version () =
  let mv = Mv.create ~block_size:4 () in
  ignore (record mv ~txn:1 ~inc:0 [ (3, 10) ]);
  ignore (record mv ~txn:1 ~inc:1 [ (3, 11) ]);
  check_read "latest incarnation" mv 3 ~txn:2 (Mv.Ok (ver 1 1, 11))

(* --- Record / rcu_update_written_locations ------------------------------- *)

let test_record_wrote_new_location () =
  let mv = Mv.create ~block_size:4 () in
  Alcotest.(check bool) "first write is new" true
    (record mv ~txn:1 ~inc:0 [ (1, 1); (2, 2) ]);
  Alcotest.(check bool) "same locations: not new" false
    (record mv ~txn:1 ~inc:1 [ (1, 5); (2, 6) ]);
  Alcotest.(check bool) "subset: not new" false
    (record mv ~txn:1 ~inc:2 [ (2, 7) ]);
  Alcotest.(check bool) "fresh location: new" true
    (record mv ~txn:1 ~inc:3 [ (2, 8); (9, 9) ]);
  Alcotest.(check bool) "empty write-set: not new" false
    (record mv ~txn:1 ~inc:4 [])

let test_record_removes_stale_entries () =
  let mv = Mv.create ~block_size:4 () in
  ignore (record mv ~txn:1 ~inc:0 [ (1, 1); (2, 2) ]);
  (* Next incarnation no longer writes location 1: entry must vanish. *)
  ignore (record mv ~txn:1 ~inc:1 [ (2, 20) ]);
  check_read "stale removed" mv 1 ~txn:3 Mv.Not_found;
  check_read "kept" mv 2 ~txn:3 (Mv.Ok (ver 1 1, 20))

let test_entry_count () =
  let mv = Mv.create ~block_size:4 () in
  Alcotest.(check int) "empty" 0 (Mv.entry_count mv);
  ignore (record mv ~txn:0 ~inc:0 [ (1, 1); (2, 2) ]);
  ignore (record mv ~txn:1 ~inc:0 [ (1, 3) ]);
  Alcotest.(check int) "three entries" 3 (Mv.entry_count mv);
  ignore (record mv ~txn:1 ~inc:1 []);
  Alcotest.(check int) "txn1 entry removed" 2 (Mv.entry_count mv)

(* --- Estimates ----------------------------------------------------------- *)

let test_estimates_cover_whole_write_set () =
  let mv = Mv.create ~block_size:8 () in
  ignore (record mv ~txn:3 ~inc:0 [ (1, 1); (2, 2); (3, 3) ]);
  Mv.convert_writes_to_estimates mv 3;
  List.iter
    (fun loc ->
      check_read
        (Printf.sprintf "loc %d estimated" loc)
        mv loc ~txn:5
        (Mv.Read_error { blocking_txn_idx = 3 }))
    [ 1; 2; 3 ]

let test_estimate_overwritten_by_next_incarnation () =
  let mv = Mv.create ~block_size:8 () in
  ignore (record mv ~txn:3 ~inc:0 [ (1, 1); (2, 2) ]);
  Mv.convert_writes_to_estimates mv 3;
  (* Next incarnation only writes 1: the estimate at 2 must be removed. *)
  ignore (record mv ~txn:3 ~inc:1 [ (1, 10) ]);
  check_read "overwritten" mv 1 ~txn:5 (Mv.Ok (ver 3 1, 10));
  check_read "estimate cleaned" mv 2 ~txn:5 Mv.Not_found

let test_remove_written_entries () =
  let mv = Mv.create ~block_size:8 () in
  ignore (record mv ~txn:3 ~inc:0 [ (1, 1); (2, 2) ]);
  Mv.remove_written_entries mv 3;
  check_read "removed 1" mv 1 ~txn:5 Mv.Not_found;
  check_read "removed 2" mv 2 ~txn:5 Mv.Not_found;
  Alcotest.(check int) "no written locations" 0
    (Array.length (Mv.written_locations mv 3))

(* --- validate_read_set ---------------------------------------------------- *)

let rs pairs =
  {
    Mv.locs = Array.of_list (List.map fst pairs);
    origins =
      Array.of_list
        (List.map
           (function
             | _, None -> Read_origin.Storage
             | _, Some (t, i) -> Read_origin.Mv (ver t i))
           pairs);
  }

let test_validate_ok () =
  let mv = Mv.create ~block_size:8 () in
  ignore (record mv ~txn:1 ~inc:0 [ (7, 70) ]);
  ignore
    (Mv.record mv (ver 3 0) (rs [ (7, Some (1, 0)); (8, None) ]) [||]);
  Alcotest.(check bool) "valid" true (Mv.validate_read_set mv 3)

let test_validate_fails_on_new_writer () =
  let mv = Mv.create ~block_size:8 () in
  ignore (record mv ~txn:1 ~inc:0 [ (7, 70) ]);
  ignore (Mv.record mv (ver 3 0) (rs [ (7, Some (1, 0)) ]) [||]);
  (* A transaction between 1 and 3 now writes location 7. *)
  ignore (record mv ~txn:2 ~inc:0 [ (7, 99) ]);
  Alcotest.(check bool) "invalid" false (Mv.validate_read_set mv 3)

let test_validate_fails_on_incarnation_bump () =
  let mv = Mv.create ~block_size:8 () in
  ignore (record mv ~txn:1 ~inc:0 [ (7, 70) ]);
  ignore (Mv.record mv (ver 3 0) (rs [ (7, Some (1, 0)) ]) [||]);
  ignore (record mv ~txn:1 ~inc:1 [ (7, 70) ]);
  (* Same value, but new incarnation: descriptor comparison must fail. *)
  Alcotest.(check bool) "invalid" false (Mv.validate_read_set mv 3)

let test_validate_fails_on_estimate () =
  let mv = Mv.create ~block_size:8 () in
  ignore (record mv ~txn:1 ~inc:0 [ (7, 70) ]);
  ignore (Mv.record mv (ver 3 0) (rs [ (7, Some (1, 0)) ]) [||]);
  Mv.convert_writes_to_estimates mv 1;
  Alcotest.(check bool) "invalid" false (Mv.validate_read_set mv 3)

let test_validate_fails_on_disappeared_entry () =
  let mv = Mv.create ~block_size:8 () in
  ignore (record mv ~txn:1 ~inc:0 [ (7, 70) ]);
  ignore (Mv.record mv (ver 3 0) (rs [ (7, Some (1, 0)) ]) [||]);
  ignore (record mv ~txn:1 ~inc:1 []);
  (* Entry gone: previously read from data, now NOT_FOUND. *)
  Alcotest.(check bool) "invalid" false (Mv.validate_read_set mv 3)

let test_validate_fails_storage_now_written () =
  let mv = Mv.create ~block_size:8 () in
  ignore (Mv.record mv (ver 3 0) (rs [ (7, None) ]) [||]);
  ignore (record mv ~txn:2 ~inc:0 [ (7, 5) ]);
  (* Previously read from storage; now a lower transaction wrote. *)
  Alcotest.(check bool) "invalid" false (Mv.validate_read_set mv 3)

let test_validate_empty_read_set () =
  let mv = Mv.create ~block_size:8 () in
  Alcotest.(check bool) "trivially valid" true (Mv.validate_read_set mv 3)

(* --- Snapshot ------------------------------------------------------------ *)

let test_snapshot () =
  let mv = Mv.create ~block_size:8 () in
  ignore (record mv ~txn:0 ~inc:0 [ (1, 10); (2, 20) ]);
  ignore (record mv ~txn:5 ~inc:0 [ (2, 25) ]);
  ignore (record mv ~txn:3 ~inc:0 [ (4, 40) ]);
  Alcotest.(check (list (pair int int)))
    "final values, sorted"
    [ (1, 10); (2, 25); (4, 40) ]
    (Mv.snapshot mv)

let test_snapshot_empty () =
  let mv = Mv.create ~block_size:8 () in
  Alcotest.(check (list (pair int int))) "empty" [] (Mv.snapshot mv)

(* The one-pass snapshot takes each chain's top entry; the reference is the
   per-location read at [txn_idx = block_size] over every location the test
   touched. Covers written tops, delta-topped chains anchored on a plain
   write and on storage (present and absent), locations emptied by a
   re-record, and flushed bases with and without entries above them. *)
let test_snapshot_one_pass_equals_reads () =
  let n = 600 in
  (* Storage holds the even locations only: odd delta anchors count as 0. *)
  let storage l = if l mod 2 = 0 then Some (1000 + l) else None in
  (* Small tables, so the inserts also resize them. *)
  let mv = Mv.create ~nshards:4 ~writes_per_txn:0 ~storage ~block_size:n () in
  let record_deltas ~txn ?(writes = []) deltas =
    ignore
      (Mv.record ~deltas:(Array.of_list deltas) mv (ver txn 0)
         Mv.empty_read_set (Array.of_list writes))
  in
  (* Flushed kept nodes, locations 0..99, written by the prefix 0..99
     only. *)
  for j = 0 to 99 do
    ignore (record mv ~txn:j ~inc:0 [ (j, 10 * j) ])
  done;
  Mv.flush_committed mv ~upto:100;
  for k = 0 to 99 do
    (* Written tops, locations 100..199, two or three writers each; every
       fourth kept node is written over. *)
    ignore
      (record mv ~txn:(100 + k) ~inc:0
         ([ (100 + k, k); (101 + (k mod 99), k + 1) ]
         @ if k mod 4 = 0 then [ (k, -k) ] else []));
    ignore (record mv ~txn:(300 + k) ~inc:0 [ (100 + k, 2 * k) ])
  done;
  for k = 0 to 49 do
    (* Delta-topped chains anchored on a plain write, locations 200..249. *)
    record_deltas ~txn:(200 + k) ~writes:[ (200 + k, 7 * k) ] [];
    record_deltas ~txn:(400 + k) [ (200 + k, Delta.add (k + 1)) ];
    (* Anchored on storage, locations 250..299, two deltas each; every tenth
       kept node gets a delta too. *)
    record_deltas ~txn:(250 + k)
      ((250 + k, Delta.add 3)
      :: (if k mod 5 = 0 then [ (2 * k, Delta.add 1) ] else []));
    record_deltas ~txn:(450 + k) [ (250 + k, Delta.sub 1) ]
  done;
  (* Emptied by a re-record, locations 300..339: the next incarnation writes
     elsewhere, which removes the first one's entry. *)
  for k = 0 to 39 do
    ignore (record mv ~txn:(500 + k) ~inc:0 [ (300 + k, k) ]);
    ignore (record mv ~txn:(500 + k) ~inc:1 [ (340 + k, k) ])
  done;
  let reference =
    List.filter_map
      (fun l ->
        match Mv.read mv l ~txn_idx:n with
        | Mv.Ok (_, v) -> Some (l, v)
        | Mv.Merged { value } -> Some (l, value)
        | Mv.Not_found -> None
        | Mv.Read_error _ -> Alcotest.fail "estimate after commit")
      (List.init 500 Fun.id)
  in
  let snap = Mv.snapshot mv in
  Alcotest.(check (list (pair int int)))
    "one pass = per-location reads" reference snap;
  Alcotest.(check bool) ">= 300 locations" true (List.length snap >= 300);
  let at l = List.assoc_opt l snap in
  List.iter
    (fun (msg, l, v) -> Alcotest.(check (option int)) msg v (at l))
    [
      ("kept node", 1, Some 10);
      ("written over a kept node", 4, Some (-4));
      ("delta over a kept node", 10, Some 101);
      ("written top", 103, Some 6);
      ("delta over a write", 205, Some (35 + 6));
      ("deltas over storage", 252, Some (1000 + 252 + 2));
      ("deltas over absent storage", 251, Some 2);
      ("emptied by a re-record", 300, None);
      ("re-recorded location", 340, Some 0);
    ]

(* --- Rolling-commit flush ------------------------------------------------- *)

let test_flush_prunes_entries () =
  let mv = Mv.create ~block_size:6 () in
  ignore (record mv ~txn:0 ~inc:0 [ (1, 10); (2, 20) ]);
  ignore (record mv ~txn:1 ~inc:0 [ (2, 21) ]);
  ignore (record mv ~txn:4 ~inc:0 [ (2, 24) ]);
  Alcotest.(check int) "before flush" 4 (Mv.entry_count mv);
  Mv.flush_committed mv ~upto:2;
  (* Location 1 keeps tx0's entry and location 2 keeps tx1's, pruning tx0's
     below it; only tx4's entry is counted. *)
  Alcotest.(check int) "after flush" 1 (Mv.entry_count mv);
  Alcotest.(check int) "flushed_upto" 2 (Mv.flushed_upto mv);
  (* Reads above the flushed prefix are unchanged: same value, same exact
     version descriptor. *)
  check_read "tx3 reads kept node at 2" mv 2 ~txn:3 (Mv.Ok (ver 1 0, 21));
  check_read "tx2 reads kept node at 1" mv 1 ~txn:2 (Mv.Ok (ver 0 0, 10));
  check_read "tx5 reads live chain" mv 2 ~txn:5 (Mv.Ok (ver 4 0, 24));
  (* A kept node never leaks to transactions at or below its writer. *)
  check_read "tx0 sees nothing" mv 1 ~txn:0 Mv.Not_found

let test_flush_preserves_validation () =
  let mv = Mv.create ~block_size:6 () in
  ignore (record mv ~txn:1 ~inc:0 [ (7, 70) ]);
  ignore (Mv.record mv (ver 3 0) (rs [ (7, Some (1, 0)); (8, None) ]) [||]);
  Alcotest.(check bool) "valid before flush" true (Mv.validate_read_set mv 3);
  Mv.flush_committed mv ~upto:3;
  (* The flushed write keeps its version in the kept node, so tx3's read
     descriptor still matches. *)
  Alcotest.(check bool) "valid after flush" true (Mv.validate_read_set mv 3)

let test_flush_idempotent_and_monotone () =
  let mv = Mv.create ~block_size:4 () in
  ignore (record mv ~txn:0 ~inc:0 [ (1, 1) ]);
  ignore (record mv ~txn:2 ~inc:0 [ (1, 2) ]);
  Mv.flush_committed mv ~upto:2;
  let n = Mv.entry_count mv in
  Mv.flush_committed mv ~upto:2;
  Mv.flush_committed mv ~upto:1;
  (* Re-flushing or flushing a shorter prefix changes nothing. *)
  Alcotest.(check int) "entry_count stable" n (Mv.entry_count mv);
  Alcotest.(check int) "flushed_upto monotone" 2 (Mv.flushed_upto mv)

let test_committed_snapshot_after_full_flush () =
  let mv = Mv.create ~block_size:4 () in
  ignore (record mv ~txn:0 ~inc:0 [ (1, 10); (2, 20) ]);
  ignore (record mv ~txn:1 ~inc:0 [ (2, 25) ]);
  ignore (record mv ~txn:3 ~inc:0 [ (4, 40) ]);
  let expected = Mv.snapshot mv in
  Mv.flush_committed mv ~upto:4;
  Alcotest.(check int) "all entries pruned" 0 (Mv.entry_count mv);
  Alcotest.(check (list (pair int int)))
    "kept nodes = snapshot before the flush" expected (Mv.snapshot mv)

(* The rolling sweep flushes one committed transaction at a time. Flushing
   three quarters of one location's 4,000 writers that way frees at least a
   third of the words the 4,000 records added: the entries retired below
   the kept node are cut off once they outnumber the entries above it.
   Keeping every retired node would free about none. *)
let test_flush_cuts_retired_entries () =
  let n = 4_000 in
  let words mv = Obj.reachable_words (Obj.repr mv) in
  let mv = Mv.create ~block_size:n () in
  let empty = words mv in
  for j = 0 to n - 1 do
    ignore (record mv ~txn:j ~inc:0 [ (0, j) ])
  done;
  let before = words mv in
  for upto = 1 to 3 * n / 4 do
    Mv.flush_committed mv ~upto
  done;
  let after = words mv in
  check_read "reader above the prefix" mv 0 ~txn:(3 * n / 4)
    (Mv.Ok (ver ((3 * n / 4) - 1) 0, (3 * n / 4) - 1));
  if 3 * (before - after) < before - empty then
    Alcotest.failf
      "flushing 3/4 of the chain freed %d of the %d words the records added"
      (before - after) (before - empty)

(* --- record: wrote_new_location transitions (one test per documented
   transition of the bool — see mvmemory.mli) ------------------------------- *)

let test_record_estimate_rewrite_not_new () =
  let mv = Mv.create ~block_size:8 () in
  ignore (record mv ~txn:3 ~inc:0 [ (1, 1); (2, 2) ]);
  Mv.convert_writes_to_estimates mv 3;
  (* ESTIMATE -> value after an abort: lower validations already knew about
     the write, so it is not a new location. *)
  Alcotest.(check bool) "estimate rewrite: not new" false
    (record mv ~txn:3 ~inc:1 [ (1, 10); (2, 20) ])

let test_record_delete_then_rewrite_is_new () =
  let mv = Mv.create ~block_size:8 () in
  ignore (record mv ~txn:3 ~inc:0 [ (1, 1); (2, 2) ]);
  (* Incarnation 1 stops writing location 1: removal alone sets no flag. *)
  Alcotest.(check bool) "removal only: not new" false
    (record mv ~txn:3 ~inc:1 [ (2, 20) ]);
  (* Incarnation 2 writes location 1 again: the removal erased it from the
     recorded written set, so it counts as new again. *)
  Alcotest.(check bool) "rewrite after removal: new" true
    (record mv ~txn:3 ~inc:2 [ (1, 11); (2, 20) ])

(* --- Concurrency smoke --------------------------------------------------- *)

(* Disjoint transactions recorded from four domains; snapshot must contain
   every write. The other instances start with 16-slot tables in two
   shards, or in three rounded up to four, so the inserts race each other's
   resizes under the shard locks. *)
let test_concurrent_disjoint_records () =
  let n = 400 in
  List.iter
    (fun mv ->
      let domains =
        Array.init 4 (fun d ->
            Domain.spawn (fun () ->
                let i = ref d in
                while !i < n do
                  ignore (record mv ~txn:!i ~inc:0 [ (!i, !i * 2) ]);
                  i := !i + 4
                done))
      in
      Array.iter Domain.join domains;
      let snap = Mv.snapshot mv in
      Alcotest.(check int) "all locations present" n (List.length snap);
      List.iter (fun (l, v) -> Alcotest.(check int) "value" (l * 2) v) snap)
    [
      Mv.create ~block_size:n ();
      Mv.create ~nshards:2 ~writes_per_txn:0 ~block_size:n ();
      Mv.create ~nshards:3 ~writes_per_txn:0 ~block_size:n ();
    ];
  Alcotest.(check int) "shard count rounded up to a power of two" 4
    (Mv.nshards (Mv.create ~nshards:3 ~block_size:1 ()))

(* --- Long version chains ------------------------------------------------- *)

(* One location written by 500 transactions in a shuffled order, then a
   third of them removed and a seventh turned into ESTIMATEs: every read
   answers the highest remaining writer below the reader. A shuffled order
   lands most inserts and removals in the middle of the list, where each
   rebuilds the nodes above it, jump pointers included, and shares the
   rest; an ESTIMATE conversion stores into its node in place; and the
   reads at every position skip down the rebuilt jump pointers. *)
let test_long_chain () =
  let n = 500 in
  let mv = Mv.create ~block_size:n () in
  let order = Array.init n Fun.id in
  let rng = Random.State.make [| 18 |] in
  for i = n - 1 downto 1 do
    let k = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(k);
    order.(k) <- x
  done;
  Array.iter (fun j -> ignore (record mv ~txn:j ~inc:0 [ (0, j) ])) order;
  (* [state.(j)]: `W for a write, `E for an estimate, `Gone for no entry. *)
  let state = Array.make n `W in
  Array.iter
    (fun j ->
      if j mod 3 = 1 then begin
        ignore (record mv ~txn:j ~inc:1 []);
        state.(j) <- `Gone
      end
      else if j mod 7 = 2 then begin
        Mv.convert_writes_to_estimates mv j;
        state.(j) <- `E
      end)
    order;
  Alcotest.(check int) "entries"
    (Array.fold_left (fun acc s -> if s = `Gone then acc else acc + 1) 0 state)
    (Mv.entry_count mv);
  for reader = 0 to n do
    let rec expected j =
      if j < 0 then Mv.Not_found
      else
        match state.(j) with
        | `W -> Mv.Ok (ver j 0, j)
        | `E -> Mv.Read_error { blocking_txn_idx = j }
        | `Gone -> expected (j - 1)
    in
    check_read
      (Printf.sprintf "reader %d" reader)
      mv 0 ~txn:reader
      (expected (reader - 1))
  done

(* Writes arrive in roughly ascending transaction index, so a write above
   a chain's top is the common case, and it conses one node however long
   the chain is. 1,000 records at the top of a 10^4-entry chain allocate,
   per record, what they allocate at the top of a 1-entry chain, and at
   most 11 words: the written-set array (2), the [Written] entry (3) and
   the node (6). *)
let test_top_put_allocation () =
  let words_per_top_record ~below =
    let n = below + 1_000 in
    let mv = Mv.create ~block_size:n () in
    let versions = Array.init n (fun j -> ver j 0) in
    let writes = Array.init n (fun j -> [| (0, j) |]) in
    let record j =
      ignore (Mv.record mv versions.(j) Mv.empty_read_set writes.(j))
    in
    for j = 0 to below - 1 do
      record j
    done;
    let w0 = Gc.minor_words () in
    for j = below to n - 1 do
      record j
    done;
    (Gc.minor_words () -. w0) /. 1_000.
  in
  let long = words_per_top_record ~below:10_000 in
  let short = words_per_top_record ~below:1 in
  if long <> short || long > 11.01 then
    Alcotest.failf
      "%.2f minor words per top record on a 10^4-entry chain, %.2f on a \
       1-entry chain (want equal, at most 11)"
      long short

(* A reader far below the top of a long chain skips down it by the jump
   pointers. 2 x 10^4 reads by transaction 1 under 10^5 higher entries
   take O(log n) steps each, about a millisecond of CPU in all; walking
   node by node would take 2 x 10^9 steps, seconds. The bound, half a
   second of the process's CPU time, is far from both. *)
let test_deep_reads_skip () =
  let n = 100_000 in
  let mv = Mv.create ~block_size:n () in
  for j = 0 to n - 1 do
    ignore (record mv ~txn:j ~inc:0 [ (0, j) ])
  done;
  let reads = 20_000 in
  let t0 = Sys.time () in
  for _ = 1 to reads do
    ignore (Sys.opaque_identity (Mv.read mv 0 ~txn_idx:1))
  done;
  let cpu = Sys.time () -. t0 in
  check_read "bottom entry" mv 0 ~txn:1 (Mv.Ok (ver 0 0, 0));
  if cpu > 0.5 then
    Alcotest.failf "%.2f s of CPU for %d reads under %d entries" cpu reads n

(* A re-execution rewrites its own entry, wherever it sits in the chain:
   the write stores into the node and republishes the chain with a copy of
   its head. 1,000 re-records under 10^4 higher entries allocate, per
   record, what they allocate under none, and at most 11 words: the
   written-set array (2), the [Written] entry (3) and the head copy (6). *)
let test_rewrite_allocation () =
  let words_per_rewrite ~above =
    let n = above + 1_000 in
    let mv = Mv.create ~block_size:n () in
    for j = 0 to n - 1 do
      ignore (record mv ~txn:j ~inc:0 [ (0, j) ])
    done;
    let versions = Array.init 1_000 (fun j -> ver j 1) in
    let writes = Array.init 1_000 (fun j -> [| (0, -j) |]) in
    let w0 = Gc.minor_words () in
    for j = 0 to 999 do
      ignore (Mv.record mv versions.(j) Mv.empty_read_set writes.(j))
    done;
    let words = (Gc.minor_words () -. w0) /. 1_000. in
    check_read "rewritten entry" mv 0 ~txn:1 (Mv.Ok (ver 0 1, 0));
    words
  in
  let deep = words_per_rewrite ~above:10_000 in
  let shallow = words_per_rewrite ~above:0 in
  if deep <> shallow || deep > 11.01 then
    Alcotest.failf
      "%.2f minor words per re-record under 10^4 entries, %.2f under none \
       (want equal, at most 11)"
      deep shallow

(* --- Allocation on the hit paths ------------------------------------------ *)

(* Minor words per call of [f], averaged over 10^4 calls. *)
let words_per_call f =
  let calls = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

(* A filled 1000-transaction instance, p2p-low-shaped: every transaction
   writes four locations of its own, and a read set is mostly storage reads.
   A miss allocates nothing, a hit only its [Ok] block, and validating
   [Storage] / [Mv] descriptors nothing. *)
let test_hit_paths_allocation () =
  let n = 1000 in
  let mv = Mv.create ~block_size:n () in
  let writes j = List.init 4 (fun k -> ((4 * j) + k, j)) in
  for j = 0 to n - 1 do
    ignore (record mv ~txn:j ~inc:0 (writes j))
  done;
  let unwritten = (4 * n) + 7 in
  check_read "miss, no slot" mv unwritten ~txn:500 Mv.Not_found;
  check_read "miss, no lower entry" mv 2000 ~txn:500 Mv.Not_found;
  check_read "hit" mv 2000 ~txn:900 (Mv.Ok (ver 500 0, 500));
  let expect name words ok =
    if not ok then Alcotest.failf "%s: %.2f minor words per call" name words
  in
  let w = words_per_call (fun () -> Mv.read mv unwritten ~txn_idx:500) in
  expect "read miss, no slot" w (w < 1.);
  let w = words_per_call (fun () -> Mv.read mv 2000 ~txn_idx:500) in
  expect "read miss, no lower entry" w (w < 1.);
  let w = words_per_call (fun () -> Mv.read mv 2000 ~txn_idx:900) in
  expect "read hit" w (w <= 3.);
  (* Txn 900 re-records its writes with 21 reads: 13 never-written
     locations, 4 below it and 4 written only above it. *)
  let reads =
    rs
      (List.init 13 (fun k -> (unwritten + k, None))
      @ List.init 4 (fun k -> ((4 * 500) + k, Some (500, 0)))
      @ List.init 4 (fun k -> ((4 * 950) + k, None)))
  in
  ignore (record mv ~txn:900 ~inc:1 ~reads (writes 900));
  Alcotest.(check bool) "read set valid" true (Mv.validate_read_set mv 900);
  let w =
    words_per_call (fun () -> Mv.validate_read_set mv 900)
    /. float_of_int (Array.length reads.locs)
  in
  expect "validate_read_set, per read" w (w < 1.)

let suite =
  [
    Alcotest.test_case "read: empty" `Quick test_read_empty;
    Alcotest.test_case "read: highest lower writer" `Quick
      test_read_highest_lower;
    Alcotest.test_case "read: ESTIMATE -> READ_ERROR" `Quick
      test_read_estimate;
    Alcotest.test_case "read: returns incarnation" `Quick
      test_read_incarnation_in_version;
    Alcotest.test_case "record: wrote_new_location" `Quick
      test_record_wrote_new_location;
    Alcotest.test_case "record: removes stale entries" `Quick
      test_record_removes_stale_entries;
    Alcotest.test_case "entry_count tracks entries" `Quick test_entry_count;
    Alcotest.test_case "estimates cover whole write-set" `Quick
      test_estimates_cover_whole_write_set;
    Alcotest.test_case "estimate cleared by next incarnation" `Quick
      test_estimate_overwritten_by_next_incarnation;
    Alcotest.test_case "remove_written_entries (ablation)" `Quick
      test_remove_written_entries;
    Alcotest.test_case "validate: ok" `Quick test_validate_ok;
    Alcotest.test_case "validate: fails on new writer" `Quick
      test_validate_fails_on_new_writer;
    Alcotest.test_case "validate: fails on incarnation bump" `Quick
      test_validate_fails_on_incarnation_bump;
    Alcotest.test_case "validate: fails on estimate" `Quick
      test_validate_fails_on_estimate;
    Alcotest.test_case "validate: fails on disappeared entry" `Quick
      test_validate_fails_on_disappeared_entry;
    Alcotest.test_case "validate: fails when storage read now written" `Quick
      test_validate_fails_storage_now_written;
    Alcotest.test_case "validate: empty read-set" `Quick
      test_validate_empty_read_set;
    Alcotest.test_case "snapshot: final values sorted" `Quick test_snapshot;
    Alcotest.test_case "snapshot: empty" `Quick test_snapshot_empty;
    Alcotest.test_case "snapshot: one pass = per-location reads" `Quick
      test_snapshot_one_pass_equals_reads;
    Alcotest.test_case "flush: prunes committed entries" `Quick
      test_flush_prunes_entries;
    Alcotest.test_case "flush: validation unchanged" `Quick
      test_flush_preserves_validation;
    Alcotest.test_case "flush: idempotent and monotone" `Quick
      test_flush_idempotent_and_monotone;
    Alcotest.test_case "flush: committed snapshot after full flush" `Quick
      test_committed_snapshot_after_full_flush;
    Alcotest.test_case "flush: retired entries are cut off" `Quick
      test_flush_cuts_retired_entries;
    Alcotest.test_case "record: estimate rewrite is not new" `Quick
      test_record_estimate_rewrite_not_new;
    Alcotest.test_case "record: delete-then-rewrite is new again" `Quick
      test_record_delete_then_rewrite_is_new;
    Alcotest.test_case "concurrent disjoint records" `Quick
      test_concurrent_disjoint_records;
    Alcotest.test_case "long chain: reads after shuffled writes and removals"
      `Quick test_long_chain;
    Alcotest.test_case "top write allocates one node at any chain length"
      `Quick test_top_put_allocation;
    Alcotest.test_case "rewrite in place at any depth" `Quick
      test_rewrite_allocation;
    Alcotest.test_case "deep reads skip down a long chain" `Quick
      test_deep_reads_skip;
    Alcotest.test_case "hit paths allocate nothing but the result" `Quick
      test_hit_paths_allocation;
  ]
