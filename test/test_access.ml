(** Tests for the static access-analysis layer (DESIGN.md §15).

    The centerpiece is the soundness property: over the same 600-program
    corpus the VM differential suite uses ({!Test_vm_diff.gen_source}),
    the spec {!Access.infer} derives for [main] must cover every location
    the program dynamically reads or writes — including delta (aggregator)
    accesses, which record as both. A non-vacuity guard checks the
    property isn't passing because the analysis degraded everything to
    [Unknown]: a healthy majority of corpus programs must infer all-exact
    specs.

    An engine-facing test then drives the engine's spec consumer, ESTIMATE
    seeding ([seed_from_specs]), over a Ledger p2p block and checks it
    against the sequential reference. *)

open Blockstm_kernel
open Blockstm_minimove
open Mv_value
module P2p = Blockstm_workload.P2p
module Harness = Blockstm_workload.Harness
module Bstm = Harness.Bstm

(* --- Soundness over the differential corpus ------------------------------ *)

let main_spec (ic : Interp.compiled) : Loc.t Access_spec.t =
  match Access.infer_func (Interp.ast ic) "main" with
  | None -> Alcotest.fail "generated program has no main"
  | Some fspec -> Access.specialize fspec ~args:[]

let covers entries loc =
  Access_spec.covers ~equal:Loc.equal ~namespace:Access.namespace entries loc

let prop_spec_soundness =
  QCheck2.Test.make
    ~name:"inferred spec covers every dynamic access (600 programs)"
    ~count:600 ~print:Test_vm_diff.gen_source
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let ic = Interp.compile (Test_vm_diff.gen_source seed) in
      let spec = main_spec ic in
      (* Ample gas: soundness must hold over complete executions; aborted
         prefixes are covered a fortiori (the log only shrinks). *)
      let log =
        Test_vm_diff.exec
          (fun ~gas_limit e -> Interp.run_with_gas ~gas_limit ic ~args:[] e)
          ~gas_limit:1_000_000
      in
      List.for_all
        (fun (loc, _) -> covers spec.Access_spec.reads loc)
        log.Test_vm_diff.reads
      && List.for_all
           (fun (loc, _) -> covers spec.Access_spec.writes loc)
           log.Test_vm_diff.writes)

(* Guard against a vacuous pass: [Unknown] entries cover everything, so the
   property above would also hold for an analysis that learned nothing. The
   corpus uses literal addresses throughout, so most programs should infer
   fully exact specs; require that a majority actually do, and that the
   corpus isn't dominated by access-free programs. *)
let test_non_vacuity () =
  let accessing = ref 0 and all_exact = ref 0 in
  for seed = 0 to 599 do
    let ic = Interp.compile (Test_vm_diff.gen_source seed) in
    let spec = main_spec ic in
    if spec.Access_spec.reads <> [] || spec.Access_spec.writes <> [] then begin
      incr accessing;
      if Access_spec.all_exact spec then incr all_exact
    end
  done;
  Alcotest.(check bool)
    "most corpus programs access storage" true (!accessing > 300);
  Alcotest.(check bool)
    (Fmt.str "majority of accessing programs infer all-exact specs (%d/%d)"
       !all_exact !accessing)
    true
    (2 * !all_exact > !accessing)

(* --- Interprocedural precision on the real coin contract ----------------- *)

let test_coin_contract () =
  let prog = Parser.parse Stdlib_contracts.coin_source in
  Check.check prog;
  let fspec =
    match Access.infer_func prog "main" with
    | None -> Alcotest.fail "coin contract has no main"
    | Some f -> f
  in
  let spec s r =
    Access.specialize fspec
      ~args:[ Value.Addr s; Value.Addr r; Value.Int 5; Value.Int 0 ]
  in
  (* Address arguments flow through withdraw/deposit into exact entries. *)
  Alcotest.(check bool)
    "specialized transfer spec is all-exact" true
    (Access_spec.all_exact (spec 1 2));
  let conflict a b =
    Access_spec.conflict ~equal:Loc.equal ~namespace:Access.namespace a b
  in
  Alcotest.(check bool)
    "disjoint account pairs don't conflict (config reads are read-read)"
    false
    (conflict (spec 1 2) (spec 3 4));
  Alcotest.(check bool)
    "overlapping account pairs conflict" true
    (conflict (spec 1 2) (spec 2 3));
  (* Non-address binding for a parameter degrades that entry, soundly. *)
  let degraded =
    Access.specialize fspec
      ~args:[ Value.Int 0; Value.Addr 2; Value.Int 5; Value.Int 0 ]
  in
  Alcotest.(check bool)
    "non-address argument degrades to wildcard, not exact" false
    (Access_spec.all_exact degraded)

(* --- Engine consumers over the Ledger p2p workloads ---------------------- *)

let check_identical label (seq : int Harness.Seq.result)
    (r : int Bstm.result) =
  Alcotest.(check bool)
    (label ^ ": snapshot matches sequential")
    true
    (Harness.equal_snapshot seq.Harness.Seq.snapshot r.Bstm.snapshot);
  Alcotest.(check bool)
    (label ^ ": outputs match sequential")
    true
    (Harness.equal_outputs seq.Harness.Seq.outputs r.Bstm.outputs)

(* Spec seeding over a large account range, on 4 domains: ESTIMATE markers
   seeded from every transfer's declared writes must commit the same state
   and outputs as the sequential reference. *)
let test_seeding_identity () =
  let w =
    P2p.generate
      { P2p.default_spec with num_accounts = 10_000; block_size = 1_000 }
  in
  let specs = P2p.txn_specs w in
  let seq = Harness.run_sequential ~storage:w.P2p.storage w.P2p.txns in
  let config =
    {
      Bstm.default_config with
      num_domains = 4;
      marking = Estimates { seed_from_specs = true };
    }
  in
  let r =
    Harness.run_blockstm ~config ~specs ~storage:w.P2p.storage w.P2p.txns
  in
  check_identical "spec seeding" seq r

let suite =
  [
    Tutil.qcheck_to_alcotest prop_spec_soundness;
    Alcotest.test_case "non-vacuity: corpus infers exact specs" `Quick
      test_non_vacuity;
    Alcotest.test_case "coin contract: interprocedural specs" `Quick
      test_coin_contract;
    Alcotest.test_case "engine: seeding identity vs sequential" `Quick
      test_seeding_identity;
  ]
