(** Cross-domain stress tests for the lock-free hot paths: seeded random
    read-modify-write blocks executed on 1/2/4/8 real domains, in both lazy
    and rolling commit modes, asserting that Block-STM's final state, outputs
    {e and per-transaction read-set descriptors} are identical to sequential
    execution.

    The descriptor check is the sharp edge: it fails if the lock-free
    MVMemory ever serves a read from the wrong version (wrong writer, or
    base leaking to a transaction at or below its writer), even when the
    final values happen to coincide. Descriptors are compared by (location,
    Storage-or-writer-index) — incarnation numbers legitimately vary across
    domain counts. *)

open Blockstm_kernel
open Tutil

let stress_config ~domains ~rolling =
  { Bstm.default_config with num_domains = domains; rolling_commit = rolling }

(* A transaction plan: [(src, dst, c)] steps, each reading [src] and writing
   [dst := src_value + c]; the output is the sum of all values read. Plans
   are generated up front so the txn closures are deterministic (Block-STM
   re-executes them). *)
type plan = (int * int * int) array

let txn_of_plan (p : plan) : itxn =
 fun e ->
  Array.fold_left
    (fun acc (src, dst, c) ->
      let v = match e.read src with Some v -> v | None -> 0 in
      e.write dst (v + c);
      acc + v)
    0 p

let gen_block ~seed ~ntxns ~nlocs : plan array =
  let st = Random.State.make [| seed |] in
  Array.init ntxns (fun _ ->
      Array.init
        (1 + Random.State.int st 4)
        (fun _ ->
          ( Random.State.int st nlocs,
            Random.State.int st nlocs,
            Random.State.int st 100 )))

(* The origin a correct execution must record for each read: [Storage], or
   the preset index of the highest lower writer. *)
type origin = O_storage | O_writer of int

let pp_origin ppf = function
  | O_storage -> Fmt.string ppf "storage"
  | O_writer i -> Fmt.pf ppf "txn%d" i

let origin_eq a b =
  match (a, b) with
  | O_storage, O_storage -> true
  | O_writer i, O_writer j -> i = j
  | _ -> false

(* Sequential reference: interpret the plans in preset order, tracking the
   last writer per location, and record the descriptor list each transaction
   must observe. Mirrors the engine's VM: reads satisfied by the
   transaction's own earlier writes are not recorded. *)
let expected_read_sets (block : plan array) : (int * origin) list array =
  let writer : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Array.mapi
    (fun j p ->
      let own : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      let log = ref [] in
      Array.iter
        (fun (src, dst, _c) ->
          if not (Hashtbl.mem own src) then
            log :=
              ( src,
                match Hashtbl.find_opt writer src with
                | Some i -> O_writer i
                | None -> O_storage )
              :: !log;
          Hashtbl.replace own dst ())
        p;
      Hashtbl.iter (fun loc () -> Hashtbl.replace writer loc j) own;
      List.rev !log)
    block

let actual_read_set (inst : int Bstm.instance) j : (int * origin) list =
  let { Mv.locs; origins } = Bstm.recorded_read_set inst j in
  List.combine (Array.to_list locs) (Array.to_list origins)
  |> List.map (fun (loc, (o : Read_origin.t)) ->
         ( loc,
           match o with
           | Read_origin.Storage -> O_storage
           | Read_origin.Mv v -> O_writer (Version.txn_idx v)
           | Read_origin.Range _ | Read_origin.Counter _
           | Read_origin.Not_counter ->
               Alcotest.fail "delta descriptor in a deltas-off run"))

(* Run the engine the way [Bstm.run] does, but keep the instance so the
   recorded read-sets can be inspected after the domains join. *)
let run_keeping_instance ~config txns =
  let inst = Bstm.create_instance ~config ~storage:zero_storage txns in
  let others =
    Array.init
      (config.Bstm.num_domains - 1)
      (fun i -> Domain.spawn (fun () -> Bstm.worker_loop ~worker:(i + 1) inst))
  in
  Bstm.worker_loop ~worker:0 inst;
  Array.iter Domain.join others;
  (inst, Bstm.finalize inst)

let check_run ~seed ~domains ~rolling =
  let ntxns = 150 and nlocs = 24 in
  let block = gen_block ~seed ~ntxns ~nlocs in
  let txns = Array.map txn_of_plan block in
  let seq = Seq.run ~storage:zero_storage txns in
  let config = stress_config ~domains ~rolling in
  let inst, par = run_keeping_instance ~config txns in
  let ctx =
    Printf.sprintf "seed=%d domains=%d %s" seed domains
      (if rolling then "rolling" else "lazy")
  in
  (* Final state and outputs identical to sequential. *)
  Alcotest.(check (list (pair int int)))
    (ctx ^ ": snapshot") seq.snapshot (sorted par.snapshot);
  Array.iteri
    (fun j a ->
      if not (Txn.equal_output Int.equal a par.outputs.(j)) then
        Alcotest.failf "%s: output %d differs: %a vs %a" ctx j
          (Txn.pp_output Fmt.int) a (Txn.pp_output Fmt.int) par.outputs.(j))
    seq.outputs;
  (* Read-set descriptors identical to the sequential reference. *)
  let expected = expected_read_sets block in
  for j = 0 to ntxns - 1 do
    let act = actual_read_set inst j in
    let exp = expected.(j) in
    if
      List.length act <> List.length exp
      || not
           (List.for_all2
              (fun (l1, o1) (l2, o2) -> l1 = l2 && origin_eq o1 o2)
              exp act)
    then
      Alcotest.failf "%s: txn %d read-set differs:@ expected %a@ got %a" ctx j
        Fmt.(list ~sep:semi (pair ~sep:comma int pp_origin))
        exp
        Fmt.(list ~sep:semi (pair ~sep:comma int pp_origin))
        act
  done

let test_sweep ~rolling () =
  List.iter
    (fun domains ->
      List.iter
        (fun seed -> check_run ~seed ~domains ~rolling)
        [ 11; 42; 1234; 7; 99; 2024 ])
    [ 1; 2; 4; 8 ]

(* Contended singleton counter across domains: every transaction chains on
   the previous one, maximizing aborts/estimates through the lock-free
   cells. *)
let test_counter_chain () =
  let ntxns = 120 in
  let txns = Array.init ntxns (fun _ -> incr_txn 0) in
  List.iter
    (fun domains ->
      List.iter
        (fun rolling ->
          let config = stress_config ~domains ~rolling in
          let _, par = run_keeping_instance ~config txns in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "counter domains=%d rolling=%b" domains rolling)
            [ (0, ntxns) ] par.snapshot)
        [ false; true ])
    [ 2; 4; 8 ]

let suite =
  [
    Alcotest.test_case "random blocks, lazy commit, 1/2/4/8 domains" `Slow
      (test_sweep ~rolling:false);
    Alcotest.test_case "random blocks, rolling commit, 1/2/4/8 domains" `Slow
      (test_sweep ~rolling:true);
    Alcotest.test_case "contended counter chain across domains" `Slow
      test_counter_chain;
  ]
