(** The grid runner every experiment runs on (DESIGN.md §5).

    An experiment is a product of axes (executor × workload × accounts ×
    block size × threads or domains); each point of the product runs one or
    more blocks and yields table rows. This module owns what every
    experiment used to repeat:

    - the axis product and row emission ({!table});
    - one adapter per clock: virtual time through [Harness.sim_*]
      ({!sim}, {!sim_lanes}, {!sim_litm}, {!sim_bohm}) and wall clock as
      the fastest of [n] timed runs ({!wall});
    - the samples recorded under the labels each experiment supplies
      ({!seeds} for virtual points averaged over seeds, {!wall}'s [label]);
    - the identity oracle ({!check}): every block result a point produces
      is compared with that block's sequential reference, and a mismatch
      fails the run, naming the point. *)

open Blockstm_workload
module T = Blockstm_stats.Table
module D = Blockstm_stats.Descriptive
module Txn = Blockstm_kernel.Txn

(* --- Axes and rows -------------------------------------------------------- *)

(** Every pair of [xs] and [ys], [xs] outermost. *)
let cross xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(** One table: [rows p] gives the rows of point [p], in point order. *)
let table ~title ~header points rows =
  let t = T.create ~title ~header in
  List.iter (fun p -> List.iter (T.add_row t) (rows p)) points;
  Report.emit_table t

let fmt_tps v = if Float.is_finite v then Printf.sprintf "%.0f" v else "inf"
let fmt_x v = Printf.sprintf "%.1fx" v

(** A count per transaction, to three places. *)
let per ~txns x = Printf.sprintf "%.3f" (float_of_int x /. float_of_int txns)

(* --- Samples ------------------------------------------------------------- *)

(** Mean of [f ~point seed] over [n] seeds (42, 1042, ...), each recorded
    under [label]; [point] names the seed's run for the oracle. The
    virtual-time executor is deterministic given a seed, so the seeds stand
    in for the paper's repetitions. *)
let seeds ~label ~n f =
  let xs =
    Array.init n (fun i ->
        let seed = 42 + (1000 * i) in
        f ~point:(Printf.sprintf "%s/seed=%d" label seed) seed)
  in
  Array.iter (fun v -> Report.sample ~label v) xs;
  D.mean xs

(* --- The identity oracle ------------------------------------------------- *)

(** A sequential reference, computed on first use, and the equality a
    result must have with it. *)
type 'r oracle = { reference : 'r Lazy.t; same : 'r -> 'r -> bool }

(** Fail, naming [point], unless [r] agrees with the oracle's reference. *)
let check ~point o r =
  if not (o.same (Lazy.force o.reference) r) then
    Fmt.failwith "%s: result differs from the sequential reference" point

(** A block result: the committed snapshot and the outputs. *)
type ('l, 'v, 'o) result = ('l * 'v) list * 'o Txn.output array

let same_result ~loc ~value ~output ((s, o) : _ result) ((s', o') : _ result)
    =
  List.equal (fun (l, v) (l', v') -> loc l l' && value v v') s s'
  && Array.length o = Array.length o'
  && Array.for_all2 (Txn.equal_output output) o o'

(** A ledger block with its oracle. *)
type block = {
  storage : Ledger.Store.t;
  txns : (Ledger.Loc.t, Ledger.Value.t, int) Txn.t array;
  oracle : (Ledger.Loc.t, Ledger.Value.t, int) result oracle;
}

let block ~storage txns =
  {
    storage;
    txns;
    oracle =
      {
        reference =
          lazy
            (let r = Harness.run_sequential ~storage txns in
             (r.snapshot, r.outputs));
        same =
          same_result ~loc:Ledger.Loc.equal ~value:Ledger.Value.equal
            ~output:Int.equal;
      };
  }

let p2p spec =
  let w = P2p.generate spec in
  block ~storage:w.storage w.txns

let txns b = Array.length b.txns

(* --- Virtual clock (Harness.sim_* ) -------------------------------------- *)

(** Block-STM on [threads] virtual threads: throughput and the engine's
    counters. *)
let sim ?config ~point ~threads b =
  let r, stats =
    Harness.sim_blockstm ?config ~num_threads:threads ~storage:b.storage b.txns
  in
  check ~point b.oracle (r.snapshot, r.outputs);
  (Blockstm_simexec.Virtual_exec.tps ~txns:(txns b) stats, r.metrics)

(** Execution lanes under the coordinator, on [threads] virtual threads. *)
let sim_lanes ~point ~threads ~partition ~specs b =
  let s =
    Harness.sim_lanes ~num_threads:threads ~partition ~specs
      ~storage:b.storage b.txns
  in
  check ~point b.oracle (s.sl_snapshot, s.sl_outputs);
  (Harness.tps_of_makespan ~txns:(txns b) s.sl_makespan_us, s)

(** LiTM commits in its own round-greedy order, not the preset order
    (lib/baselines/litm.ml), so its result has no sequential reference to agree
    with. *)
let sim_litm ~threads ~reads ~writes b =
  Harness.tps_of_makespan ~txns:(txns b)
    (fst
       (Harness.sim_litm_makespan ~num_threads:threads ~storage:b.storage
          ~reads_per_txn:reads ~writes_per_txn:writes b.txns))

(** BOHM's virtual time comes from the block's sequential profile; it
    commits no result of its own to check. *)
let sim_bohm ~threads b =
  Harness.tps_of_makespan ~txns:(txns b)
    (Harness.sim_bohm_makespan ~num_threads:threads ~storage:b.storage b.txns)

(* --- Wall clock ---------------------------------------------------------- *)

(** Throughput of [txns] transactions in [ns] nanoseconds. *)
let tps ~txns ns =
  if ns <= 0. then infinity else float_of_int txns /. (ns /. 1e9)

(** The fastest of [n] timed runs [run rep] (rep = 0 .. n-1), projected by
    [metric] from its elapsed nanoseconds. Each run's result goes to
    [check] outside the timed window, and each run's metric is recorded
    under [label]. The fastest run is robust to scheduler and collector
    noise on a shared host. *)
let wall ?(n = 1) ?label ?(check = ignore) ~metric run =
  let best = ref infinity in
  for rep = 0 to n - 1 do
    let r, ns = Blockstm_stats.Clock.time_ns (fun () -> run rep) in
    let ns = Int64.to_float ns in
    check r;
    Option.iter (fun label -> Report.sample ~label (metric ns)) label;
    best := Float.min !best ns
  done;
  metric !best

(** Wall-clock throughput of a chain [executor] on [b], the fastest of [n]
    runs through the chain's own block runner, each checked by the oracle;
    [specs] feeds the lanes executor, and [label] names the point. *)
let wall_tps ?n ?specs ~label b executor =
  wall ?n ~label ~check:(check ~point:label b.oracle)
    ~metric:(tps ~txns:(txns b))
    (fun _ ->
      let snapshot, outputs, _ =
        Harness.ChainX.exec_block ?specs executor
          ~storage:(Ledger.Store.reader b.storage) b.txns
      in
      (snapshot, outputs))
