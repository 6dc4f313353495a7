(** Instantiations of every executor over the benchmark {!Ledger} types,
    plus convenience runners and equivalence checks. This is the module
    tests, benches and examples use to run the same block through Block-STM,
    Sequential, BOHM and LiTM and compare results. *)

open Ledger

module Bstm = Blockstm_core.Block_stm.Make (Loc) (Value)
module ChainX = Blockstm_chain.Chain.Make (Loc) (Value)
module Seq = Blockstm_baselines.Sequential.Make (Loc) (Value)
module BohmX = Blockstm_baselines.Bohm.Make (Loc) (Value)
module LitmX = Blockstm_baselines.Litm.Make (Loc) (Value)
module Prof = Blockstm_baselines.Profile.Make (Loc) (Value)
module Cost_model = Blockstm_simexec.Cost_model
module Virtual_exec = Blockstm_simexec.Virtual_exec
module Dag_sim = Blockstm_simexec.Dag_sim
module LanesX = Blockstm_lanes.Lanes.Make (Loc) (Value)

type snapshot = (Loc.t * Value.t) list

(** The reference's comparison, {!Seq.same_snapshot}: the same bindings, in
    whatever order each executor lists them. *)
let equal_snapshot : snapshot -> snapshot -> bool = Seq.same_snapshot

let equal_outputs (a : int Blockstm_kernel.Txn.output array)
    (b : int Blockstm_kernel.Txn.output array) =
  Array.length a = Array.length b
  && Array.for_all2 (Blockstm_kernel.Txn.equal_output Int.equal) a b

(** Run Block-STM on [num_domains] real domains. *)
let run_blockstm ?(config = Bstm.default_config) ?trace ?on_commit ~storage
    txns =
  Bstm.run ~config ?trace ?on_commit ~storage:(Store.reader storage) txns

let run_sequential ~storage txns =
  Seq.run ~storage:(Store.reader storage) txns

let run_bohm ?(num_domains = 1) ~storage ~declared_writes txns =
  BohmX.run ~num_domains ~storage:(Store.reader storage) ~declared_writes txns

let run_litm ?(num_domains = 1) ~storage txns =
  LitmX.run ~num_domains ~storage:(Store.reader storage) txns

(** Result of comparing a parallel executor against the sequential
    reference. *)
type check = {
  snapshot_ok : bool;
  outputs_ok : bool;
}

let check_ok c = c.snapshot_ok && c.outputs_ok

(** Compare an executor's [snapshot] and every transaction's [outputs]
    with the sequential reference [seq]. *)
let check_against (seq : int Seq.result) ~outputs snapshot : check =
  {
    snapshot_ok = equal_snapshot seq.Seq.snapshot snapshot;
    outputs_ok = equal_outputs seq.outputs outputs;
  }

(** Run Block-STM with [num_domains] domains and compare snapshot and
    outputs against the sequential reference. *)
let check_blockstm ?config ~storage txns : check =
  let seq = run_sequential ~storage txns in
  let par = run_blockstm ?config ~storage txns in
  check_against seq ~outputs:par.Bstm.outputs par.snapshot

let check_bohm ?num_domains ~storage ~declared_writes txns : check =
  let seq = run_sequential ~storage txns in
  let bohm = run_bohm ?num_domains ~storage ~declared_writes txns in
  check_against seq ~outputs:bohm.BohmX.outputs bohm.snapshot

(** Compare a LiTM result [r] over [txns] with the sequential executor run
    over the block in LiTM's own serialization, {!LitmX.result.order}:
    LiTM commits round by round, not in preset order. *)
let check_litm ~storage txns (r : int LitmX.result) : check =
  let in_order a = Array.map (fun j -> a.(j)) r.LitmX.order in
  check_against
    (run_sequential ~storage (in_order txns))
    ~outputs:(in_order r.LitmX.outputs) r.LitmX.snapshot

(* --- Virtual-time (simulated parallelism) runners ------------------------ *)
(* These reproduce the paper's thread-scaling measurements on a single-core
   host: the real engine runs, but time is virtual (see DESIGN.md §3 and
   lib/simexec). All makespans are in virtual microseconds. *)

let tps_of_makespan ~txns makespan_us =
  if makespan_us <= 0. then infinity
  else float_of_int txns /. (makespan_us /. 1e6)

(** Run Block-STM under virtual time with [num_threads] virtual threads.
    Returns the block result (checked-able against sequential) and the
    simulator stats. *)
let sim_blockstm ?(config = Bstm.default_config) ?(cost = Cost_model.default)
    ~num_threads ~storage txns : int Bstm.result * Virtual_exec.stats =
  let config = { config with Bstm.num_domains = 1 } in
  let inst =
    Bstm.create_instance ~config ~storage:(Store.reader storage) txns
  in
  let engine =
    {
      Virtual_exec.start = Bstm.start_task inst;
      finish = Bstm.finish_task inst;
      profile = Bstm.pending_profile;
      next_task = (fun () -> Bstm.next_task inst);
      is_done = (fun () -> Bstm.is_done inst);
    }
  in
  let stats = Virtual_exec.run ~num_threads ~cost engine in
  (Bstm.finalize inst, stats)

(** Virtual-time cost of sequential execution: the sum of per-transaction
    VM costs derived from the profiling pass. *)
let sim_sequential_makespan ?(cost = Cost_model.default) ~storage txns : float
    =
  let profiles = Prof.run ~storage:(Store.reader storage) txns in
  Array.fold_left
    (fun acc (p : Prof.txn_profile) ->
      acc +. Cost_model.exec_cost cost ~reads:p.reads ~writes:p.writes)
    0.0 profiles

(** Virtual-time makespan of an ideal BOHM (perfect write-sets, each
    transaction executed exactly once as soon as its read-dependencies
    resolve): greedy list scheduling of the true dependency DAG. *)
let sim_bohm_makespan ?(cost = Cost_model.default) ~num_threads ~storage txns
    : float =
  let profiles = Prof.run ~storage:(Store.reader storage) txns in
  let costs =
    Array.map
      (fun (p : Prof.txn_profile) ->
        Cost_model.exec_cost cost ~reads:p.reads ~writes:p.writes)
      profiles
  in
  let deps = Array.map (fun (p : Prof.txn_profile) -> p.deps) profiles in
  Dag_sim.makespan (Dag_sim.create ~costs ~deps) ~num_threads

(** Virtual-time makespan of LiTM: runs the real round-based algorithm to
    obtain the per-round batch sizes, then charges each round a parallel
    execution phase plus a sequential commit scan. *)
let sim_litm_makespan ?(cost = Cost_model.default) ~num_threads ~storage
    ~reads_per_txn ~writes_per_txn txns : float * int LitmX.result =
  let r = run_litm ~storage txns in
  let per_exec =
    Cost_model.exec_cost cost ~reads:reads_per_txn ~writes:writes_per_txn
    *. cost.Cost_model.litm_exec_factor
  in
  let time =
    List.fold_left
      (fun acc nb ->
        let exec_phase =
          float_of_int nb *. per_exec /. float_of_int num_threads
        in
        let commit_phase = float_of_int nb *. cost.Cost_model.commit_unit in
        acc +. exec_phase +. commit_phase +. cost.Cost_model.litm_round_barrier)
      0.0 r.LitmX.round_sizes
  in
  (time, r)

(* --- Sharded execution lanes (DESIGN.md §16) ---------------------------- *)

(** Contiguous account-range partition over the {!Ledger} location space:
    the flat-workload default for sharded execution lanes. *)
let account_partition ~num_accounts ~lanes : LanesX.partition =
  { LanesX.lanes; loc_lane = Ledger.loc_lane ~num_accounts ~lanes }

(** Run the block through [partition.lanes] parallel engine instances under
    the lane coordinator; [partition.lanes = 1] is the unmodified paper
    engine. Results are bit-identical to {!run_blockstm} either way. *)
let run_lanes ?config ?on_commit ?trace_for ~partition ~specs ~storage txns =
  LanesX.run ?config ~loc_namespace:Loc.namespace ?on_commit ?trace_for
    ~partition ~specs ~storage:(Store.reader storage) txns

(** Virtual-time lane execution result (the lane analogue of
    {!sim_blockstm}'s [result * stats]). *)
type sim_lanes_result = {
  sl_snapshot : snapshot;
  sl_outputs : int Blockstm_kernel.Txn.output array;
  sl_makespan_us : float;
  sl_batches : int;
  sl_cross_lane_txns : int;
  sl_imbalance : float;
}

(** Simulate sharded-lane execution under virtual time: [num_threads]
    virtual threads split evenly across each batch's non-empty lanes, every
    lane driven by its own engine instance through {!Virtual_exec}; a
    batch's lane phase costs the maximum lane makespan (lanes run
    concurrently on disjoint thread pools — waves of [num_threads] when a
    batch has more lanes than threads), and parked cross-lane stragglers
    then execute sequentially at their profiled VM cost. Deterministic, and
    the snapshot/outputs are checked-able against {!sim_blockstm} /
    {!run_sequential} — the identity the lane-scaling experiment asserts at
    every grid point. *)
let sim_lanes ?(config = Bstm.default_config) ?(cost = Cost_model.default)
    ~num_threads ~(partition : LanesX.partition)
    ~specs ~storage txns : sim_lanes_result =
  let module LT = Hashtbl.Make (Loc) in
  let n = Array.length txns in
  if Array.length specs <> n then
    invalid_arg "Harness.sim_lanes: specs length mismatch";
  if num_threads < 1 then
    invalid_arg "Harness.sim_lanes: num_threads must be >= 1";
  let pl = LanesX.plan ~namespace:Loc.namespace partition specs in
  let lane_cfg =
    { (LanesX.lane_config config ~lanes:partition.lanes) with
      Bstm.num_domains = 1 }
  in
  let overlay : Value.t LT.t = LT.create 1024 in
  let base = Store.reader storage in
  let read_overlay loc =
    match LT.find_opt overlay loc with Some v -> Some v | None -> base loc
  in
  let outputs : int Blockstm_kernel.Txn.output option array =
    Array.make n None
  in
  let makespan = ref 0.0 in
  let subset arr idxs = Array.map (fun i -> arr.(i)) idxs in
  let sim_lane idxs ~threads : float =
    let inst =
      Bstm.create_instance ~config:lane_cfg ~storage:read_overlay
        (subset txns idxs)
    in
    let engine =
      {
        Virtual_exec.start = Bstm.start_task inst;
        finish = Bstm.finish_task inst;
        profile = Bstm.pending_profile;
        next_task = (fun () -> Bstm.next_task inst);
        is_done = (fun () -> Bstm.is_done inst);
      }
    in
    let stats = Virtual_exec.run ~num_threads:threads ~cost engine in
    let r = Bstm.finalize inst in
    List.iter (fun (l, v) -> LT.replace overlay l v) r.Bstm.snapshot;
    Array.iteri (fun j o -> outputs.(idxs.(j)) <- Some o) r.Bstm.outputs;
    stats.Virtual_exec.makespan_us
  in
  let exec_straggler i : float =
    let r = Seq.run ~storage:read_overlay [| txns.(i) |] in
    List.iter (fun (l, v) -> LT.replace overlay l v) r.Seq.snapshot;
    outputs.(i) <- Some r.Seq.outputs.(0);
    Cost_model.exec_cost cost ~reads:r.Seq.reads ~writes:r.Seq.writes
  in
  List.iter
    (fun (b : LanesX.batch) ->
      let jobs =
        List.filter
          (fun idxs -> Array.length idxs > 0)
          (Array.to_list b.LanesX.lane_txns)
      in
      (* Waves of at most [num_threads] concurrent lanes; each wave's cost
         is its slowest lane. *)
      let rec waves = function
        | [] -> ()
        | jobs ->
            let rec take k = function
              | x :: rest when k > 0 ->
                  let a, b = take (k - 1) rest in
                  (x :: a, b)
              | rest -> ([], rest)
            in
            let wave, rest = take num_threads jobs in
            let threads = max 1 (num_threads / List.length wave) in
            let phase =
              List.fold_left
                (fun acc idxs -> Float.max acc (sim_lane idxs ~threads))
                0.0 wave
            in
            makespan := !makespan +. phase;
            waves rest
      in
      waves jobs;
      Array.iter
        (fun i -> makespan := !makespan +. exec_straggler i)
        b.LanesX.stragglers)
    pl.LanesX.batches;
  let outputs =
    Array.mapi
      (fun j -> function
        | Some o -> o
        | None -> Fmt.failwith "Harness.sim_lanes: txn %d has no output" j)
      outputs
  in
  {
    sl_snapshot = LT.fold (fun l v acc -> (l, v) :: acc) overlay [];
    sl_outputs = outputs;
    sl_makespan_us = !makespan;
    sl_batches = List.length pl.LanesX.batches;
    sl_cross_lane_txns = pl.LanesX.cross_lane_txns;
    sl_imbalance =
      (let counts = pl.LanesX.lane_txn_counts in
       let total = Array.fold_left ( + ) 0 counts in
       if total = 0 then 0.
       else
         float_of_int (Array.fold_left max 0 counts)
         *. float_of_int partition.LanesX.lanes /. float_of_int total);
  }
