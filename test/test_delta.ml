(** Commutative deltas (DESIGN.md §12): the kernel [Delta] algebra,
    MVMemory delta entries with their range/counter validation rules, the
    engine's [delta_ops] mode (differential against sequential and against
    the paper-mode fallback), and the MiniMove aggregator construct. *)

open Blockstm_kernel
open Tutil
module Rng = Blockstm_workload.Rng

(* --- Delta algebra -------------------------------------------------------- *)

let test_delta_add_sub () =
  let d = Delta.add 5 in
  Alcotest.(check int) "net" 5 d.Delta.net;
  Alcotest.(check (option int)) "apply" (Some 8) (Delta.apply d 3);
  let rlo, rhi = Delta.admissible d in
  Alcotest.(check int) "admissible lo" (-5) rlo;
  Alcotest.(check int) "admissible hi" (max_int - 5) rhi;
  let s = Delta.sub 5 in
  Alcotest.(check (option int)) "underflow" None (Delta.apply s 3);
  Alcotest.(check (option int)) "exact drain" (Some 0) (Delta.apply s 5);
  (* Custom bounds: a capped counter. *)
  let capped = Delta.add ~hi:10 4 in
  Alcotest.(check (option int)) "capped ok" (Some 10) (Delta.apply capped 6);
  Alcotest.(check (option int)) "capped overflow" None (Delta.apply capped 7);
  Alcotest.check_raises "negative add"
    (Invalid_argument "Delta.add: negative amount") (fun () ->
      ignore (Delta.add (-1)));
  Alcotest.check_raises "negative sub"
    (Invalid_argument "Delta.sub: negative amount") (fun () ->
      ignore (Delta.sub (-1)))

let test_delta_compose () =
  (* Same net, different histories: the prefix extremes make composition
     order-sensitive exactly where intermediate bounds differ. *)
  let a5s3 = Delta.compose (Delta.add 5) (Delta.sub 3) in
  let s3a5 = Delta.compose (Delta.sub 3) (Delta.add 5) in
  Alcotest.(check int) "net a5s3" 2 a5s3.Delta.net;
  Alcotest.(check int) "net s3a5" 2 s3a5.Delta.net;
  Alcotest.(check (option int)) "0 +5-3" (Some 2) (Delta.apply a5s3 0);
  Alcotest.(check (option int)) "0 -3+5 underflows" None (Delta.apply s3a5 0);
  Alcotest.(check (option int)) "3 -3+5" (Some 5) (Delta.apply s3a5 3);
  (* Saturation: the admissible arithmetic must not wrap on the default
     [0, max_int] bounds. *)
  let big = Delta.compose (Delta.add max_int) (Delta.add max_int) in
  Alcotest.(check (option int)) "saturated apply" (Some max_int)
    (Delta.apply big 0)

(* Composition is equivalent to step-by-step application, and the composed
   admissible range is contained in the first delta's (what makes recording
   one Range descriptor per op sound). *)
let test_delta_compose_equiv () =
  let rng = Rng.create 11 in
  for _ = 1 to 2_000 do
    let n = 1 + Rng.int rng 5 in
    let ops =
      List.init n (fun _ ->
          if Rng.int rng 2 = 0 then Delta.add (Rng.int rng 20)
          else Delta.sub (Rng.int rng 20))
    in
    let composed =
      List.fold_left Delta.compose (List.hd ops) (List.tl ops)
    in
    let base = Rng.int rng 50 - 5 in
    let stepwise =
      List.fold_left
        (fun acc d ->
          match acc with None -> None | Some b -> Delta.apply d b)
        (Some base) ops
    in
    Alcotest.(check (option int))
      (Fmt.str "compose = stepwise (base %d)" base)
      stepwise (Delta.apply composed base);
    let rlo1, rhi1 = Delta.admissible (List.hd ops) in
    let rlo, rhi = Delta.admissible composed in
    Alcotest.(check bool) "admissible range only shrinks" true
      (rlo >= rlo1 && rhi <= rhi1)
  done

(* --- MVMemory delta entries ----------------------------------------------- *)

let ver t i = Version.make ~txn_idx:t ~incarnation:i

let record ?deltas mv ~txn ~inc ?(reads = Mv.empty_read_set) writes =
  Mv.record ?deltas mv (ver txn inc) reads (Array.of_list writes)

let check_merged msg mv loc ~txn expected =
  match Mv.read mv loc ~txn_idx:txn with
  | Mv.Merged { value } -> Alcotest.(check int) msg expected value
  | _ -> Alcotest.failf "%s: expected Merged" msg

let test_mv_merged_read () =
  let mv = Mv.create ~block_size:8 () in
  ignore (record mv ~txn:1 ~inc:0 [ (7, 100) ]);
  ignore (record mv ~txn:2 ~inc:0 ~deltas:[| (7, Delta.add 5) |] []);
  ignore (record mv ~txn:4 ~inc:0 ~deltas:[| (7, Delta.sub 2) |] []);
  check_merged "both deltas folded" mv 7 ~txn:6 103;
  check_merged "only the first delta" mv 7 ~txn:3 105;
  (* Below the deltas the anchoring write is still an exact versioned read. *)
  (match Mv.read mv 7 ~txn_idx:2 with
  | Mv.Ok (v, x) ->
      Alcotest.check version "anchor version" (ver 1 0) v;
      Alcotest.(check int) "anchor value" 100 x
  | _ -> Alcotest.fail "expected the plain write below the deltas")

let test_mv_merged_base_cases () =
  (* No plain write below: the base is pre-block storage, or 0 if absent. *)
  let storage l = if l = 3 then Some 40 else None in
  let mv = Mv.create ~storage ~block_size:4 () in
  ignore
    (record mv ~txn:1 ~inc:0 ~deltas:[| (3, Delta.add 2); (9, Delta.add 7) |]
       []);
  check_merged "storage base" mv 3 ~txn:2 42;
  check_merged "absent base is 0" mv 9 ~txn:2 7

let test_mv_delta_estimate () =
  let mv = Mv.create ~block_size:8 () in
  ignore (record mv ~txn:2 ~inc:0 ~deltas:[| (5, Delta.add 1) |] []);
  Mv.convert_writes_to_estimates mv 2;
  (match Mv.read mv 5 ~txn_idx:4 with
  | Mv.Read_error { blocking_txn_idx } ->
      Alcotest.(check int) "dependency on the aborted delta" 2
        blocking_txn_idx
  | _ -> Alcotest.fail "expected Read_error over the ESTIMATE");
  (* The re-execution replaces the marker like any write would. *)
  ignore (record mv ~txn:2 ~inc:1 ~deltas:[| (5, Delta.add 3) |] []);
  check_merged "re-published delta" mv 5 ~txn:4 3

let test_mv_validate_origin () =
  let mv = Mv.create ~block_size:8 () in
  ignore (record mv ~txn:1 ~inc:0 [ (7, 10) ]);
  ignore (record mv ~txn:3 ~inc:0 ~deltas:[| (7, Delta.sub 4) |] []);
  let range = Read_origin.Range { rlo = 4; rhi = max_int } in
  Alcotest.(check bool) "range holds on the original base" true
    (Mv.validate_origin mv 7 ~txn_idx:3 range);
  (* A delta publication below shifts the base but stays in range: the
     whole point — concurrent deltas do not invalidate each other. *)
  ignore (record mv ~txn:2 ~inc:0 ~deltas:[| (7, Delta.add 5) |] []);
  Alcotest.(check bool) "range survives a concurrent delta" true
    (Mv.validate_origin mv 7 ~txn_idx:3 range);
  Alcotest.(check bool) "counter revalidates by re-materializing" true
    (Mv.validate_origin mv 7 ~txn_idx:5 (Read_origin.Counter 11));
  Alcotest.(check bool) "stale counter fails" false
    (Mv.validate_origin mv 7 ~txn_idx:5 (Read_origin.Counter 6));
  (* A plain write below that pushes the base out of range does fail. *)
  ignore (record mv ~txn:2 ~inc:1 [ (7, 1) ]);
  Alcotest.(check bool) "range broken by an out-of-range base" false
    (Mv.validate_origin mv 7 ~txn_idx:3 range)

let test_mv_flush_fold () =
  let mv = Mv.create ~storage:(fun _ -> Some 100) ~block_size:4 () in
  ignore (record mv ~txn:0 ~inc:0 ~deltas:[| (1, Delta.add 5) |] []);
  ignore (record mv ~txn:1 ~inc:0 [ (1, 50) ]);
  ignore (record mv ~txn:2 ~inc:0 ~deltas:[| (1, Delta.add 3) |] []);
  (* Partial flush: the kept node folds tx0's delta onto storage (100 + 5);
     the unflushed suffix still materializes on top of the chain. *)
  Mv.flush_committed mv ~upto:1;
  check_merged "suffix over the kept node" mv 1 ~txn:3 53;
  Mv.flush_committed mv ~upto:3;
  Alcotest.(check int) "chains pruned" 0 (Mv.entry_count mv);
  Alcotest.(check (list (pair int int)))
    "kept node folds write then delta" [ (1, 53) ] (Mv.snapshot mv)

(* --- Engine: delta_ops on/off, differential against sequential ------------ *)

let config ?(num_domains = 1) ?(delta_ops = false) ?(rolling_commit = false)
    () =
  Bstm.optimistic_config ~num_domains (fun o ->
      { o with delta_ops; rolling_commit })

(* A pure aggregator transaction: positive amounts add, negative subtract;
   the output encodes the observed outcome (1 applied, 0 bounds violation,
   -1 not-a-counter), so output equality across engine modes pins the
   delta-routing semantics, not just the final state. *)
let agg l amount : itxn =
 fun e ->
  let d = if amount >= 0 then Delta.add amount else Delta.sub (-amount) in
  match e.delta l d with
  | Txn.Applied -> 1
  | Txn.Bounds_violation -> 0
  | Txn.Not_a_counter -> -1

(* Reads the counter, then deltas it: mixes value descriptors and delta
   descriptors on one hot location. *)
let read_then_agg l amount : itxn =
 fun e ->
  let v = match e.read l with Some v -> v | None -> 0 in
  (match e.delta l (Delta.add amount) with
  | Txn.Applied -> ()
  | Txn.Bounds_violation | Txn.Not_a_counter -> ());
  v

let test_engine_delta_equiv () =
  let n = 160 in
  let txns =
    Array.init n (fun i ->
        match i mod 5 with
        | 0 -> agg 0 (2 + (i mod 7))
        | 1 -> agg 0 (-1)
        | 2 -> incr_txn (1 + (i mod 3))
        | 3 -> agg (1 + (i mod 3)) 3
        | _ -> read_then_agg 0 1)
  in
  List.iter
    (fun num_domains ->
      List.iter
        (fun delta_ops ->
          List.iter
            (fun rolling_commit ->
              ignore
                (assert_equiv
                   ~msg:
                     (Printf.sprintf "domains=%d deltas=%b rolling=%b"
                        num_domains delta_ops rolling_commit)
                   ~config:
                     (config ~num_domains ~delta_ops ~rolling_commit ())
                   ~storage:zero_storage txns))
            [ false; true ])
        [ false; true ])
    [ 1; 2; 4 ]

let test_bounds_violation_fallback () =
  (* txn2's sub overshoots the running balance: in both engine modes the
     violating delta writes nothing, the transaction observes the violation
     (output 0) and every later delta still lands — the hotspot stays
     consistent through an insufficient-funds probe. *)
  let txns = [| agg 0 10; agg 0 (-8); agg 0 (-5); agg 0 2 |] in
  List.iter
    (fun delta_ops ->
      let r =
        assert_equiv
          ~msg:(Printf.sprintf "bounds violation (deltas=%b)" delta_ops)
          ~config:(config ~num_domains:2 ~delta_ops ())
          ~storage:zero_storage txns
      in
      Alcotest.(check (array bool))
        "only the overdraft reports a violation"
        [| true; true; false; true |]
        (Array.map (function Txn.Success 1 -> true | _ -> false) r.outputs);
      Alcotest.(check (list (pair int int)))
        "final balance" [ (0, 4) ] r.snapshot)
    [ false; true ]

let test_not_a_counter_outcome () =
  (* Deltas over a boolean ledger location: Not_a_counter in both modes,
     nothing written. *)
  let module H = Blockstm_workload.Harness in
  let module L = Blockstm_workload.Ledger in
  let storage = L.genesis ~num_accounts:2 () in
  let txn : (L.Loc.t, L.Value.t, int) Txn.t =
   fun e ->
    match e.delta (L.frozen 0) (Delta.add 1) with
    | Txn.Applied -> 1
    | Txn.Bounds_violation -> 0
    | Txn.Not_a_counter -> -1
  in
  List.iter
    (fun delta_ops ->
      let config = H.Bstm.optimistic_config (fun o -> { o with delta_ops }) in
      let r = H.run_blockstm ~config ~storage [| txn; txn |] in
      Array.iter
        (function
          | Txn.Success v ->
              Alcotest.(check int)
                (Fmt.str "not-a-counter (deltas=%b)" delta_ops)
                (-1) v
          | Txn.Failed m -> Alcotest.failf "unexpected failure: %s" m)
        r.outputs;
      Alcotest.(check int) "nothing written" 0 (List.length r.snapshot))
    [ false; true ]

(* --- Hotspot workload: the differential suite ------------------------------ *)

let test_hotspot_differential () =
  let module H = Blockstm_workload.Harness in
  let module P = Blockstm_workload.P2p in
  let module L = Blockstm_workload.Ledger in
  let w =
    P.generate_hotspot
      {
        P.default_hotspot_spec with
        h_num_accounts = 60;
        h_hot_accounts = 2;
        h_block_size = 200;
      }
  in
  let seq = H.run_sequential ~storage:w.h_storage w.h_txns in
  Array.iter
    (function
      | Txn.Success _ -> ()
      | Txn.Failed m -> Alcotest.failf "sequential hotspot failed: %s" m)
    seq.outputs;
  List.iter
    (fun domains ->
      List.iter
        (fun rolling ->
          List.iter
            (fun deltas ->
              let msg =
                Printf.sprintf "domains=%d rolling=%b deltas=%b" domains
                  rolling deltas
              in
              let config =
                H.Bstm.optimistic_config ~num_domains:domains (fun o ->
                    { o with rolling_commit = rolling; delta_ops = deltas })
              in
              let r = H.run_blockstm ~config ~storage:w.h_storage w.h_txns in
              Alcotest.(check bool)
                (msg ^ ": snapshot = sequential")
                true
                (H.equal_snapshot seq.snapshot r.snapshot);
              Alcotest.(check bool)
                (msg ^ ": outputs = sequential")
                true
                (H.equal_outputs seq.outputs r.outputs))
            [ false; true ])
        [ false; true ])
    [ 1; 2; 4; 8 ];
  (* Conservation: every account's final balance is genesis plus its net
     transfer delta (accounts the block never touched stay out of the
     snapshot and must have a zero expected delta). *)
  let expected = P.expected_hotspot_balance_delta w in
  Array.iteri
    (fun a da ->
      match
        List.find_opt
          (fun (l, _) -> L.Loc.equal l (L.balance a))
          seq.snapshot
      with
      | Some (_, L.Value.Int b) ->
          Alcotest.(check int)
            (Fmt.str "balance of account %d" a)
            (L.default_initial_balance + da)
            b
      | Some _ -> Alcotest.failf "non-integer balance at account %d" a
      | None ->
          Alcotest.(check int) (Fmt.str "untouched account %d" a) 0 da)
    expected

(* --- MiniMove aggregators --------------------------------------------------- *)

open Blockstm_minimove
module R = Runtime

(* Run a loaded script once over a plain overlay with the RMW delta
   fallback, catching VM aborts — mirrors what any executor observes. *)
let run_script ~vm ?(store = R.Store.create ()) src ~args :
    (Mv_value.Value.t * int, string) result =
  let s = R.load ~vm src in
  let overlay = Hashtbl.create 8 in
  let read l =
    match Hashtbl.find_opt overlay l with
    | Some v -> Some v
    | None -> R.Store.reader store l
  in
  let write l v = Hashtbl.replace overlay l v in
  let delta =
    Txn.rmw_delta ~read ~write ~as_counter:Mv_value.Value.as_counter
      ~of_counter:Mv_value.Value.of_counter
  in
  match R.script_txn_with_gas s ~args { Txn.read; write; delta } with
  | v -> Ok v
  | exception Interp.Abort m -> Error m

let both_vms msg f =
  let a = f R.Tree_walk and b = f R.Compiled in
  let pp ppf = function
    | Ok (v, g) -> Fmt.pf ppf "Ok (%a, gas %d)" Mv_value.Value.pp v g
    | Error m -> Fmt.pf ppf "Error %S" m
  in
  let eq x y =
    match (x, y) with
    | Ok (v1, g1), Ok (v2, g2) -> Mv_value.Value.equal v1 v2 && g1 = g2
    | Error m1, Error m2 -> String.equal m1 m2
    | _ -> false
  in
  Alcotest.check (Alcotest.testable pp eq) (msg ^ ": tree-walk = compiled") a
    b;
  a

let test_minimove_agg_aborts () =
  let vault args ?store () =
    both_vms "vault" (fun vm ->
        run_script ~vm ?store Stdlib_contracts.vault_source ~args)
  in
  let args ~amount = Mv_value.[
      Value.Addr 0; Value.Addr 1; Value.Int amount; Value.Int 0 ]
  in
  (* Success: gas and result agree across VMs. *)
  let store = R.vault_genesis ~initial_balance:10 ~num_accounts:1 ~treasury:0 () in
  (match vault (args ~amount:7) ~store () with
  | Ok (Mv_value.Value.Int 7, _) -> ()
  | other ->
      Alcotest.failf "expected Ok 7, got %s"
        (match other with Ok _ -> "other Ok" | Error m -> "Error " ^ m));
  (* Underflow: the payer's vault holds 10. *)
  let store = R.vault_genesis ~initial_balance:10 ~num_accounts:1 ~treasury:0 () in
  (match vault (args ~amount:11) ~store () with
  | Error m -> Alcotest.(check string) "underflow" "aggregator underflow" m
  | Ok _ -> Alcotest.fail "underflow accepted");
  (* Overflow: the treasury vault sits at max_int. *)
  let store = R.vault_genesis ~initial_balance:10 ~num_accounts:1 ~treasury:0 () in
  R.Store.set store
    (R.loc ~addr:0 ~resource:"Vault")
    (Mv_value.Value.Int max_int);
  (match vault (args ~amount:1) ~store () with
  | Error m -> Alcotest.(check string) "overflow" "aggregator overflow" m
  | Ok _ -> Alcotest.fail "overflow accepted");
  (* Negative amounts are rejected before any effect. *)
  let store = R.vault_genesis ~initial_balance:10 ~num_accounts:1 ~treasury:0 () in
  (match vault (args ~amount:(-1)) ~store () with
  | Error m ->
      Alcotest.(check string) "negative" "negative aggregator amount" m
  | Ok _ -> Alcotest.fail "negative amount accepted");
  (* Aggregating over a struct resource. *)
  let bad = "fun main(payer) { agg_add(payer, Account, 1); return 0; }" in
  let store = R.vault_genesis ~num_accounts:1 ~treasury:0 () in
  match
    both_vms "non-integer" (fun vm ->
        run_script ~vm ~store bad ~args:[ Mv_value.Value.Addr 1 ])
  with
  | Error m ->
      Alcotest.(check string) "non-integer" "aggregator over non-integer resource" m
  | Ok _ -> Alcotest.fail "aggregator over a struct accepted"

let test_minimove_agg_parse_roundtrip () =
  let src =
    "fun main(a) { agg_add(a, Vault, 3); agg_sub(@2, Vault, 1 + 2); return \
     (); }"
  in
  let p = Parser.parse src in
  let printed = Fmt.str "%a" Ast.pp_program p in
  Alcotest.(check bool) "pp then parse" true (Parser.parse printed = p)

let test_minimove_vault_block () =
  let treasury = 0 in
  let n_accounts = 6 in
  let block = 48 in
  let rng = Rng.create 9 in
  let next_seq = Array.make (n_accounts + 1) 0 in
  let transfers =
    Array.init block (fun _ ->
        let payer = 1 + Rng.int rng n_accounts in
        let amount = 1 + Rng.int rng 50 in
        let seq = next_seq.(payer) in
        next_seq.(payer) <- seq + 1;
        (payer, amount, seq))
  in
  let total = Array.fold_left (fun acc (_, a, _) -> acc + a) 0 transfers in
  let eq_snapshot a b =
    List.length a = List.length b
    && List.for_all2
         (fun (l1, v1) (l2, v2) ->
           Mv_value.Loc.equal l1 l2 && Mv_value.Value.equal v1 v2)
         a b
  in
  List.iter
    (fun vm ->
      let s = R.load ~vm Stdlib_contracts.vault_source in
      let txns =
        Array.map
          (fun (payer, amount, seq) ->
            R.script_txn s
              ~args:
                Mv_value.
                  [
                    Value.Addr treasury;
                    Value.Addr payer;
                    Value.Int amount;
                    Value.Int seq;
                  ])
          transfers
      in
      let storage () =
        R.Store.reader (R.vault_genesis ~num_accounts:n_accounts ~treasury ())
      in
      let seq_r = R.Seq.run ~storage:(storage ()) txns in
      (match
         List.find_opt
           (fun (l, _) ->
             Mv_value.Loc.equal l (R.loc ~addr:treasury ~resource:"Vault"))
           seq_r.snapshot
       with
      | Some (_, Mv_value.Value.Int v) ->
          Alcotest.(check int)
            (R.vm_name vm ^ ": treasury collects every payment")
            total v
      | _ -> Alcotest.fail "treasury vault missing from the snapshot");
      List.iter
        (fun delta_ops ->
          let msg =
            Printf.sprintf "%s deltas=%b" (R.vm_name vm) delta_ops
          in
          let config =
            R.Bstm.optimistic_config ~num_domains:4 (fun o ->
                { o with delta_ops })
          in
          let r = R.Bstm.run ~config ~storage:(storage ()) txns in
          Alcotest.(check bool)
            (msg ^ ": snapshot = sequential")
            true
            (eq_snapshot seq_r.snapshot r.snapshot);
          Array.iteri
            (fun i o ->
              if
                not
                  (Txn.equal_output Mv_value.Value.equal seq_r.outputs.(i) o)
              then Alcotest.failf "%s: output %d differs" msg i)
            r.outputs)
        [ false; true ])
    [ R.Tree_walk; R.Compiled ]

let suite =
  [
    Alcotest.test_case "Delta add/sub/apply/admissible" `Quick
      test_delta_add_sub;
    Alcotest.test_case "Delta compose is order-sensitive" `Quick
      test_delta_compose;
    Alcotest.test_case "Delta compose = stepwise apply" `Quick
      test_delta_compose_equiv;
    Alcotest.test_case "Mv: merged reads fold delta chains" `Quick
      test_mv_merged_read;
    Alcotest.test_case "Mv: merged base from storage / absent" `Quick
      test_mv_merged_base_cases;
    Alcotest.test_case "Mv: aborted delta becomes ESTIMATE" `Quick
      test_mv_delta_estimate;
    Alcotest.test_case "Mv: Range/Counter descriptor validation" `Quick
      test_mv_validate_origin;
    Alcotest.test_case "Mv: commit flush folds deltas in order" `Quick
      test_mv_flush_fold;
    Alcotest.test_case "engine: deltas on/off = sequential" `Quick
      test_engine_delta_equiv;
    Alcotest.test_case "engine: bounds violation falls back to RMW" `Quick
      test_bounds_violation_fallback;
    Alcotest.test_case "engine: not-a-counter outcome" `Quick
      test_not_a_counter_outcome;
    Alcotest.test_case "hotspot: differential across domains x modes" `Quick
      test_hotspot_differential;
    Alcotest.test_case "minimove: aggregator abort parity" `Quick
      test_minimove_agg_aborts;
    Alcotest.test_case "minimove: agg pp/parse round trip" `Quick
      test_minimove_agg_parse_roundtrip;
    Alcotest.test_case "minimove: vault block end-to-end" `Quick
      test_minimove_vault_block;
  ]
