(** Bechamel micro-benchmarks for the engine's building blocks: MVMemory
    reads/writes, scheduler operations, the atomic fetch_min, the MiniMove
    interpreter, and one end-to-end block execution per executor. *)

open Bechamel
open Toolkit
open Blockstm_workload

module IntLoc = struct
  type t = int

  let equal = Int.equal
  let hash x = x * 0x9E3779B1
  let compare = Int.compare
  let pp = Fmt.int
end

module IntVal = struct
  type t = int

  let equal = Int.equal
  let hash v = v * 0x9E3779B1
  let pp = Fmt.int
  let as_counter v = Some v
  let of_counter v = v
end

module Mv = Blockstm_mvmemory.Mvmemory.Make (IntLoc) (IntVal)
module Sched = Blockstm_scheduler.Scheduler

let ver t i = Blockstm_kernel.Version.make ~txn_idx:t ~incarnation:i

(* --- Individual operations ------------------------------------------------ *)

let test_mv_read =
  let mv = Mv.create ~block_size:1024 () in
  for j = 0 to 1023 do
    ignore (Mv.record mv (ver j 0) Mv.empty_read_set [| (j land 63, j) |])
  done;
  Test.make ~name:"mvmemory.read (64 locs, 1024 versions)"
    (Staged.stage (fun () -> Sys.opaque_identity (Mv.read mv 17 ~txn_idx:800)))

(* p2p-low's shape: 1,000 transactions writing four locations each, so every
   written location has one writer, and most reads find no slot. *)
let p2p_low_mv =
  let mv = Mv.create ~block_size:1000 () in
  for j = 0 to 999 do
    ignore
      (Mv.record mv (ver j 0) Mv.empty_read_set
         (Array.init 4 (fun k -> ((4 * j) + k, j))))
  done;
  mv

let test_mv_read_hit =
  Test.make ~name:"mvmemory.read hit (1 writer, 4000 locs)"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Mv.read p2p_low_mv 2000 ~txn_idx:900)))

let test_mv_read_miss =
  Test.make ~name:"mvmemory.read miss (no slot, 4000 locs)"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Mv.read p2p_low_mv 4007 ~txn_idx:900)))

let test_mv_record =
  let mv = Mv.create ~block_size:1024 () in
  let i = ref 0 in
  Test.make ~name:"mvmemory.record (4 writes)"
    (Staged.stage (fun () ->
         incr i;
         let j = !i land 1023 in
         Sys.opaque_identity
           (Mv.record mv (ver j (!i lsr 10)) Mv.empty_read_set
              [| (j, 0); (j + 1, 1); (j + 2, 2); (j + 3, 3) |])))

let test_mv_validate =
  let mv = Mv.create ~block_size:64 () in
  ignore (Mv.record mv (ver 1 0) Mv.empty_read_set [| (0, 1) |]);
  let read_set =
    {
      Mv.locs = Array.init 21 Fun.id;
      origins =
        Array.init 21 (fun k ->
            if k = 0 then Blockstm_kernel.Read_origin.Mv (ver 1 0)
            else Blockstm_kernel.Read_origin.Storage);
    }
  in
  ignore (Mv.record mv (ver 5 0) read_set [||]);
  Test.make ~name:"mvmemory.validate_read_set (21 reads)"
    (Staged.stage (fun () -> Sys.opaque_identity (Mv.validate_read_set mv 5)))

let test_fetch_min =
  let a = Atomic.make max_int in
  let i = ref 0 in
  Test.make ~name:"atomic fetch_min"
    (Staged.stage (fun () ->
         incr i;
         Sys.opaque_identity
           (Blockstm_kernel.Atomic_util.fetch_min a (max_int - (!i land 255)))))

let test_scheduler_cycle =
  (* One full execute+validate cycle through a fresh 1-txn scheduler. *)
  Test.make ~name:"scheduler full cycle (1 txn)"
    (Staged.stage (fun () ->
         let s = Sched.create ~block_size:1 () in
         (match Sched.next_task s with
         | Some (Sched.Execution _) ->
             ignore
               (Sched.finish_execution s ~txn_idx:0 ~incarnation:0
                  ~wrote_new_location:true)
         | _ -> assert false);
         (match Sched.next_task s with
         | Some (Sched.Validation (version, _)) ->
             ignore (Sched.finish_validation s ~version ~aborted:false)
         | _ -> assert false);
         ignore (Sched.next_task s);
         Sys.opaque_identity (Sched.done_ s)))

let test_rng =
  let rng = Rng.create 1 in
  Test.make ~name:"rng.next_int64"
    (Staged.stage (fun () -> Sys.opaque_identity (Rng.next_int64 rng)))

(* --- VM-level: one transaction end to end ---------------------------------- *)

let test_seq_p2p_txn =
  let w =
    P2p.generate { P2p.default_spec with block_size = 1; num_accounts = 2 }
  in
  Test.make ~name:"sequential standard-p2p txn (21r/4w)"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Harness.run_sequential ~storage:w.storage w.txns)))

let test_minimove_txn =
  let open Blockstm_minimove in
  let coin = Interp.compile Stdlib_contracts.coin_source in
  let store = Runtime.coin_genesis ~num_accounts:2 () in
  let txn =
    Interp.txn coin
      ~args:
        Mv_value.
          [ Value.Addr 1; Value.Addr 2; Value.Int 1; Value.Int 0 ]
  in
  (* Sequence number would advance if writes persisted; run against a fresh
     reader each time (Seq.run buffers and discards). *)
  Test.make ~name:"minimove coin transfer (interpreted)"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Runtime.Seq.run ~storage:(Runtime.Store.reader store) [| txn |])))

(* --- Block-level ------------------------------------------------------------ *)

let test_blockstm_block =
  let w =
    P2p.generate
      { P2p.default_spec with block_size = 200; num_accounts = 1_000 }
  in
  Test.make ~name:"block-stm block (200 txns, 1 domain)"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Harness.run_blockstm ~storage:w.storage w.txns)))

let tests =
  [
    test_mv_read;
    test_mv_read_hit;
    test_mv_read_miss;
    test_mv_record;
    test_mv_validate;
    test_fetch_min;
    test_scheduler_cycle;
    test_rng;
    test_seq_p2p_txn;
    test_minimove_txn;
    test_blockstm_block;
  ]

(* --- Runner ------------------------------------------------------------------ *)

let run () =
  Fmt.pr "@.== Micro-benchmarks (bechamel, ns/run via OLS) ==@.";
  let instances = Instance.[ monotonic_clock ] in
  (* No collector stabilization between samples: a compaction before each
     sample leaves the caches cold, which swamped the small operations (OLS
     r² below zero); the engine runs them warm. *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> e
            | _ -> nan
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> r
            | None -> nan
          in
          Fmt.pr "%-48s %12.1f ns/run  (r²=%.3f)@." name ns r2)
        analyzed)
    tests
