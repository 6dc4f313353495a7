(** Block-STM: the parallel execution engine (Algorithms 1 and 4 of the
    paper, on top of {!Blockstm_mvmemory.Mvmemory} and
    {!Blockstm_scheduler.Scheduler}).

    Given a block of transactions [tx_0 < tx_1 < ... < tx_{n-1}] and a
    read-only storage snapshot, [run] executes the block on [num_domains]
    domains and returns the final write snapshot plus per-transaction outputs
    — guaranteed identical to executing the block sequentially in the preset
    order.

    Transactions are closures over an {!type:effects} handle; the VM wrapper
    intercepts every read and write, accumulating the incarnation's read- and
    write-sets exactly as Algorithm 4 prescribes. *)

open Blockstm_kernel
module Scheduler = Blockstm_scheduler.Scheduler
module Spec_dag = Blockstm_scheduler.Spec_dag
module Metrics = Blockstm_obs.Metrics
module Trace = Blockstm_obs.Trace

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  module Mv = Blockstm_mvmemory.Mvmemory.Make (L) (V)
  module Store = Blockstm_storage.Memstore.Make (L) (V)
  module LTbl = Hashtbl.Make (L)

  (** Raised internally when a speculative read hits an [ESTIMATE] marker:
      the executing transaction depends on [blocking_txn_idx]. A transaction
      that catches it still ends blocked on that dependency. *)
  exception Dependency of int

  (** The handle a transaction uses to access state (see {!Txn.effects}). *)
  type effects = (L.t, V.t) Txn.effects

  (** A transaction: deterministic code over an effects handle, producing an
      output of type ['o] (events, return value, gas used, ...). *)
  type 'o txn = (L.t, V.t, 'o) Txn.t

  (** Outcome of the final incarnation of a transaction. *)
  type 'o txn_output = 'o Txn.output = Success of 'o | Failed of string

  let pp_txn_output = Txn.pp_output

  (** Execution statistics, aggregated across all domains. *)
  type metrics = {
    incarnations : int;  (** VM executions that ran to completion. *)
    dependency_aborts : int;  (** Executions stopped by an ESTIMATE read. *)
    validations : int;  (** Validation tasks performed. *)
    validation_aborts : int;  (** Validations that failed and won the abort. *)
    prevalidation_skips : int;
        (** Re-executions short-circuited by the read-set pre-check (§4). *)
    commits : int;
        (** Transactions committed by the rolling sweep (0 when
            [rolling_commit] is off: the block commits lazily as a whole). *)
    delta_applies : int;
        (** Commutative delta entries recorded by committed-to-MVMemory
            incarnations (0 unless [delta_ops]). *)
    spec_skips : int;
        (** Validation tasks short-circuited because the transaction's
            static access spec is disjoint from every other transaction's
            (0 unless [specs] were given; DESIGN.md §15). Not counted in
            [validations]. *)
  }

  let pp_metrics ppf m =
    Fmt.pf ppf
      "{ incarnations=%d; dep_aborts=%d; validations=%d; val_aborts=%d; \
       preval_skips=%d; commits=%d; deltas=%d; spec_skips=%d }"
      m.incarnations m.dependency_aborts m.validations m.validation_aborts
      m.prevalidation_skips m.commits m.delta_applies m.spec_skips

  (* The engine configuration is shaped so that every value runs: options
     that only make sense for the optimistic scheduler live inside
     [Optimistic], and options that need ESTIMATE markers inside
     [Estimates]. The interface documents each field. *)
  type marking = Estimates of { seed_from_specs : bool } | Remove_on_abort

  type optimistic = {
    marking : marking;
    prevalidate_reads : bool;
    rolling_commit : bool;
    delta_ops : bool;
  }

  type sched = Spec_dag | Optimistic of optimistic

  type config = { num_domains : int; record_exec_ns : bool; sched : sched }

  let default_optimistic =
    {
      marking = Estimates { seed_from_specs = false };
      prevalidate_reads = true;
      rolling_commit = false;
      delta_ops = false;
    }

  let default_config =
    {
      num_domains = 1;
      record_exec_ns = false;
      sched = Optimistic default_optimistic;
    }

  let optimistic_config ?(num_domains = 1) f =
    {
      default_config with
      num_domains;
      sched = Optimistic (f default_optimistic);
    }

  type 'o result = {
    snapshot : (L.t * V.t) list;  (** Final value per affected location. *)
    outputs : 'o txn_output array;  (** Per-transaction outputs, in order. *)
    metrics : metrics;
    commit_ns : int array;
        (** Per-transaction time-to-commit (ns since the instance was
            created), in preset order. Empty unless [rolling_commit]. *)
    exec_ns : int array;
        (** Per-transaction VM execution time (ns) of the final — i.e.
            committed — incarnation, in preset order. Empty unless
            [record_exec_ns]. *)
  }

  (* ---------------------------------------------------------------------- *)
  (* Engine instance: shared state of one block execution.                  *)
  (* ---------------------------------------------------------------------- *)

  (* Batched per-worker stat slots (see [local_stats] below): one index per
     counter that the step loop accumulates. The registry counter names live
     in [stat_names], in slot order. *)
  let stat_incarnations = 0

  let stat_dep_aborts = 1
  let stat_validations = 2
  let stat_val_aborts = 3
  let stat_preval_skips = 4
  let stat_vm_reads = 5
  let stat_vm_writes = 6
  let stat_delta_applies = 7
  let stat_spec_skips = 8

  let stat_names =
    [|
      "incarnations";
      "dependency_aborts";
      "validations";
      "validation_aborts";
      "prevalidation_skips";
      "vm_reads";
      "vm_writes";
      "delta_applies";
      "spec_skips";
    |]

  type 'o instance = {
    txns : 'o txn array;
    storage : (L.t, V.t) Intf.storage;
    mv : Mv.t;
    sched : Scheduler.t;
    dag : Spec_dag.t option;
        (* Spec-derived dependency DAG (Spec_dag mode): replaces the
           collaborative scheduler as the task source; [sched] still exists
           but issues no tasks (its counters stay at their initial state). *)
    indep : bool array;
        (* [indep.(j)]: transaction j's static spec is disjoint from every
           other transaction's, so its reads can never be invalidated — its
           validation tasks short-circuit to success ([spec_skips]). All-false
           unless [specs] were given (DESIGN.md §15). *)
    (* The config, resolved once by [create_instance] (Spec_dag resolves to
       the inert defaults), so each hot-path check is one load. *)
    estimates : bool;  (* [Estimates] marking; [false]: remove on abort. *)
    prevalidate : bool;
    rolling : bool;
    deltas : bool;
    record_exec : bool;
    outputs : 'o txn_output option array;
        (* Slot [j] is written only by the executor of tx_j's incarnations
           (sequential per Corollary 1) and read after all domains join. *)
    obs : Metrics.t;
        (* Engine counters live in per-domain padded cells — no cross-domain
           contention on the hot path (previously: shared atomics). *)
    ctab : Metrics.counter array;
        (* Batch-flushed counters, indexed by the [stat_*] constants. *)
    c_commits : Metrics.counter;
    h_exec_ns : Metrics.histogram;
        (* Step-duration histograms, observed only when tracing is on (the
           untraced loop takes no timestamps). *)
    h_val_ns : Metrics.histogram;
    h_commit_ns : Metrics.histogram;
        (* Time-to-commit per transaction (rolling_commit only). *)
    trace : Trace.t option;
    (* Rolling-commit streaming state. [commit_ns.(j)] is written once, by
       whichever domain commits j (under the scheduler's commit mutex), and
       read after all domains join. [t0_ns] is the latency origin. *)
    t0_ns : int;
    commit_ns : int array;
    exec_ns : int array;
        (* Slot [j] is written only by the executor of tx_j's incarnations
           (sequential per Corollary 1, same argument as [outputs]) and read
           after all domains join. Each incarnation overwrites, so the final
           value is the committed incarnation's. *)
    on_commit : (int -> 'o txn_output -> unit) option;
    failure : (exn * Printexc.raw_backtrace) option Atomic.t;
        (* First exception that escaped a worker of [run]. A failed worker
           may leave a claimed task unfinished, so the block can never reach
           [is_done]: the other workers poll this and stop. *)
  }

  (** Outcome of running the VM for one incarnation. *)
  type 'o vm_outcome =
    | Vm_done of 'o vm_result
    | Vm_blocked of { blocking : int; reads_so_far : int }

  and 'o vm_result = {
    vm_read_set : Mv.read_set;
    vm_write_set : Mv.write_set;
    vm_delta_set : Mv.delta_set;
        (** Composed commutative delta per location (delta_ops mode). *)
    vm_output : 'o txn_output;
    vm_reads : int;  (** Dynamic read count (cost accounting). *)
    vm_writes : int;
        (** Distinct locations written or delta'd (cost accounting). *)
  }

  (* ---------------------------------------------------------------------- *)
  (* Static access specs: independence and the dependency DAG (§15)         *)
  (* ---------------------------------------------------------------------- *)

  (* Total order on spec entries (dedup); Exact entries order by L.compare. *)
  let entry_cmp (a : L.t Access_spec.entry) (b : L.t Access_spec.entry) : int =
    match (a, b) with
    | Access_spec.Exact x, Access_spec.Exact y -> L.compare x y
    | Access_spec.Exact _, _ -> -1
    | _, Access_spec.Exact _ -> 1
    | Access_spec.Wildcard x, Access_spec.Wildcard y -> String.compare x y
    | Access_spec.Wildcard _, _ -> -1
    | _, Access_spec.Wildcard _ -> 1
    | Access_spec.Unknown, Access_spec.Unknown -> 0

  (* Which transactions' specs are disjoint from every other transaction's?
     Computed with per-location and per-namespace access counts instead of
     the O(n^2) pairwise test. Transaction j is independent iff its spec is
     all-Exact and (a) no other transaction may write any location j reads
     or writes, and (b) no other transaction may read any location j
     writes. Wildcard/Unknown entries of OTHER transactions count against j
     through the namespace ([loc_namespace]) or, absent one, against
     everything — conservative in exactly the direction soundness needs. *)
  let spec_independence ?loc_namespace (specs : L.t Access_spec.t array) :
      bool array =
    let n = Array.length specs in
    let rd = LTbl.create (4 * n) and wr = LTbl.create (4 * n) in
    let wild_r = Hashtbl.create 8 and wild_w = Hashtbl.create 8 in
    let unk_r = ref 0 and unk_w = ref 0 in
    let bump_loc tbl l =
      match LTbl.find_opt tbl l with
      | Some r -> incr r
      | None -> LTbl.add tbl l (ref 1)
    in
    let bump_ns tbl r =
      match Hashtbl.find_opt tbl r with
      | Some c -> incr c
      | None -> Hashtbl.add tbl r (ref 1)
    in
    let count tbl l =
      match LTbl.find_opt tbl l with Some r -> !r | None -> 0
    in
    let count_ns tbl r =
      match Hashtbl.find_opt tbl r with Some c -> !c | None -> 0
    in
    (* Count each transaction's distinct entries once, so a transaction's
       own contribution to a per-location count is exactly 0 or 1. *)
    let deduped = Array.make n Access_spec.empty in
    Array.iteri
      (fun j (s : L.t Access_spec.t) ->
        let d =
          {
            Access_spec.reads = List.sort_uniq entry_cmp s.reads;
            writes = List.sort_uniq entry_cmp s.writes;
          }
        in
        deduped.(j) <- d;
        let side unk wild loc_tbl =
          List.iter (function
            | Access_spec.Exact l -> bump_loc loc_tbl l
            | Access_spec.Wildcard r -> bump_ns wild r
            | Access_spec.Unknown -> incr unk)
        in
        side unk_r wild_r rd d.Access_spec.reads;
        side unk_w wild_w wr d.Access_spec.writes)
      specs;
    let total_wild tbl = Hashtbl.fold (fun _ c acc -> acc + !c) tbl 0 in
    let wild_hits tbl l =
      (* Wildcard entries of other transactions that may cover [l]. The
         independent transaction itself is all-Exact, so every wildcard in
         the tables belongs to another transaction. *)
      match loc_namespace with
      | Some ns -> count_ns tbl (ns l)
      | None -> total_wild tbl
    in
    Array.map
      (fun (s : L.t Access_spec.t) ->
        Access_spec.all_exact s
        && !unk_w = 0
        && (s.Access_spec.writes = [] || !unk_r = 0)
        && (let mem entries l =
              List.exists
                (function
                  | Access_spec.Exact x -> L.equal x l | _ -> false)
                entries
            in
            List.for_all
              (fun l ->
                count wr l - (if mem s.Access_spec.writes l then 1 else 0) = 0
                && wild_hits wild_w l = 0)
              (Access_spec.exact_locs s.Access_spec.reads)
            && List.for_all
                 (fun l ->
                   count wr l = 1
                   && count rd l
                      - (if mem s.Access_spec.reads l then 1 else 0)
                      = 0
                   && wild_hits wild_w l = 0
                   && wild_hits wild_r l = 0)
                 (Access_spec.exact_locs s.Access_spec.writes)))
      deduped

  (* Dependency edges of the spec DAG (Spec_dag mode): transaction j waits
     for EVERY lower transaction whose write spec contains a location j
     reads — all potential writers, not just the highest, because a sound
     spec may overdeclare: if the highest declared writer dynamically skips
     the write, the read falls through to the next lower version, which
     must therefore also be final. WAW/WAR edges are unnecessary — MVMemory
     entries are keyed by transaction index, so a read at j only ever
     observes versions below j and the snapshot takes the highest write per
     location regardless of arrival order. A transaction with any
     non-Exact entry becomes an order barrier: it waits for everything
     since the previous barrier (and the barrier chain covers the rest
     transitively), and later transactions wait for it. *)
  let spec_dag_preds (specs : L.t Access_spec.t array) : int list array =
    let n = Array.length specs in
    let preds = Array.make n [] in
    let writers : int list ref LTbl.t = LTbl.create (4 * n) in
    let last_barrier = ref (-1) in
    for j = 0 to n - 1 do
      let s = specs.(j) in
      let base = if !last_barrier >= 0 then [ !last_barrier ] else [] in
      if Access_spec.all_exact s then begin
        let ps = ref base in
        List.iter
          (fun l ->
            match LTbl.find_opt writers l with
            | Some lst -> ps := List.rev_append !lst !ps
            | None -> ())
          (Access_spec.exact_locs s.Access_spec.reads);
        preds.(j) <- List.sort_uniq compare !ps;
        List.iter
          (fun l ->
            match LTbl.find_opt writers l with
            | Some lst -> lst := j :: !lst
            | None -> LTbl.add writers l (ref [ j ]))
          (Access_spec.exact_locs s.Access_spec.writes)
      end
      else begin
        (* Barrier: wait for everything since the previous barrier. *)
        let ps = ref base in
        for i = !last_barrier + 1 to j - 1 do
          ps := i :: !ps
        done;
        preds.(j) <- !ps;
        last_barrier := j;
        (* Earlier writers are now covered transitively through j. *)
        LTbl.reset writers
      end
    done;
    preds

  let create_instance ?(config = default_config) ?trace ?on_commit ?specs
      ?loc_namespace ~storage (txns : 'o txn array) : 'o instance =
    let n = Array.length txns in
    if config.num_domains < 1 then
      invalid_arg "Block_stm: num_domains must be >= 1";
    (match trace with
    | Some tr when Trace.num_workers tr < config.num_domains ->
        invalid_arg "Block_stm: trace has fewer workers than num_domains"
    | _ -> ());
    (match specs with
    | Some sp when Array.length sp <> n ->
        invalid_arg "Block_stm: specs length mismatch"
    | _ -> ());
    let need_specs what =
      match specs with
      | Some sp -> sp
      | None -> invalid_arg ("Block_stm: " ^ what ^ " requires specs")
    in
    let o, dag =
      match config.sched with
      | Optimistic o -> (o, None)
      | Spec_dag ->
          (* Every transaction executes exactly once, so the default
             optimistic options (estimates and prevalidation aside, all off)
             are inert: nothing aborts and nothing re-executes. *)
          let preds = spec_dag_preds (need_specs "Spec_dag") in
          (default_optimistic, Some (Spec_dag.create ~preds))
    in
    let estimates, seed =
      match o.marking with
      | Estimates { seed_from_specs } -> (true, seed_from_specs)
      | Remove_on_abort -> (false, false)
    in
    let mv = Mv.create ~storage ~block_size:n () in
    if seed then
      Array.iteri
        (fun j s ->
          match Access_spec.exact_writes s with
          | Some locs when Array.length locs > 0 ->
              Mv.prefill_estimates mv j locs
          | _ -> ())
        (need_specs "seed_from_specs");
    let rolling = o.rolling_commit in
    let obs =
      (* 9 stat slots + 1 named counter; leave headroom for probes. *)
      Metrics.create ~max_domains:(config.num_domains + 1) ~max_counters:24 ()
    in
    {
      txns;
      storage;
      mv;
      dag;
      indep =
        (match specs with
        | Some sp when Option.is_none dag ->
            spec_independence ?loc_namespace sp
        | _ -> Array.make n false);
      sched = Scheduler.create ~rolling ~block_size:n ();
      estimates;
      prevalidate = o.prevalidate_reads;
      rolling;
      deltas = o.delta_ops;
      record_exec = config.record_exec_ns;
      outputs = Array.make n None;
      obs;
      ctab = Array.map (Metrics.counter obs) stat_names;
      c_commits = Metrics.counter obs "commits";
      h_exec_ns = Metrics.histogram obs "exec_step_ns";
      h_val_ns = Metrics.histogram obs "validation_step_ns";
      h_commit_ns = Metrics.histogram obs "commit_latency_ns";
      trace;
      t0_ns = Trace.now_ns ();
      commit_ns = (if rolling then Array.make n (-1) else [||]);
      exec_ns = (if config.record_exec_ns then Array.make n 0 else [||]);
      on_commit;
      failure = Atomic.make None;
    }

  (* ---------------------------------------------------------------------- *)
  (* Algorithm 4: the VM — speculative execution with instrumented accesses *)
  (* ---------------------------------------------------------------------- *)

  (* Per-worker VM state, held in domain-local storage: the incarnation's
     read log and the own-writes table, which is reset and reused across
     incarnations.

     The read log is two arrays filled in step, of locations and of
     origins, so logging a read stores two fields and allocates no tuple.
     Each incarnation allocates them afresh, sized to the worker's previous
     read log; when the size matched, they become the recorded read set
     without a copy. They are therefore young while they are filled: a store
     into a promoted buffer reused across incarnations would go through the
     write barrier, which records the young value in the remembered set and,
     while the collector marks, darkens the dead read it overwrites, and
     that darkening kept a helper domain's marking open until the domain
     terminated (EXPERIMENTS.md, "Retained bookkeeping"). *)
  type scratch = {
    mutable r_locs : L.t array;
    mutable r_origins : Read_origin.t array;
    mutable r_len : int;  (** Reads logged; both arrays hold at least this. *)
    mutable r_hint : int;  (** Length of the worker's previous read log. *)
    s_writes : V.t LTbl.t;
    mutable s_worder : L.t list;  (** Write order, reversed; writes are few. *)
    s_deltas : (int * Delta.t) LTbl.t;
        (** Pending composed delta per location (delta_ops mode): the
            external materialized base observed at the first delta op, and
            the composition of every delta op since. *)
    mutable s_dorder : L.t list;  (** Delta order, reversed. *)
    mutable s_blocked : int;
        (** The transaction a read of this incarnation found an ESTIMATE of,
            or -1. Set before [Dependency] unwinds the transaction, so the
            incarnation ends blocked even if its code catches the
            exception. *)
  }

  let fresh_scratch () =
    {
      r_locs = [||];
      r_origins = [||];
      r_len = 0;
      r_hint = 8;
      s_writes = LTbl.create 64;
      s_worder = [];
      s_deltas = LTbl.create 8;
      s_dorder = [];
      s_blocked = -1;
    }

  let scratch_key = Domain.DLS.new_key fresh_scratch

  let push_read (sc : scratch) loc (origin : Read_origin.t) : unit =
    let n = sc.r_len in
    if n = Array.length sc.r_locs then begin
      let cap = if n = 0 then sc.r_hint else 2 * n in
      let locs = Array.make cap loc and origins = Array.make cap origin in
      Array.blit sc.r_locs 0 locs 0 n;
      Array.blit sc.r_origins 0 origins 0 n;
      sc.r_locs <- locs;
      sc.r_origins <- origins
    end;
    sc.r_locs.(n) <- loc;
    sc.r_origins.(n) <- origin;
    sc.r_len <- n + 1

  (* The finished incarnation's read set: the buffers themselves when they
     are full, else copies cut to length. The next incarnation starts from
     fresh buffers of this length. *)
  let take_reads (sc : scratch) : Mv.read_set =
    let n = sc.r_len in
    if n = 0 then Mv.empty_read_set
    else begin
      sc.r_hint <- n;
      if n = Array.length sc.r_locs then
        { locs = sc.r_locs; origins = sc.r_origins }
      else
        { locs = Array.sub sc.r_locs 0 n; origins = Array.sub sc.r_origins 0 n }
    end

  (* A read found an ESTIMATE of transaction [b]: record the dependency,
     then unwind the transaction. *)
  let block_on (sc : scratch) b =
    if sc.s_blocked < 0 then sc.s_blocked <- b;
    raise (Dependency b)

  (* The incarnation's own buffered write and pending delta at [loc]. Most
     reads come before the first write, so an empty table is not hashed. *)
  let own_write (sc : scratch) loc =
    if LTbl.length sc.s_writes = 0 then None else LTbl.find_opt sc.s_writes loc

  let own_delta (sc : scratch) loc =
    if LTbl.length sc.s_deltas = 0 then None else LTbl.find_opt sc.s_deltas loc

  (* Fill [ws] downward from index [i] with the buffered writes of [locs],
     the write order reversed. *)
  let rec fill_writes (sc : scratch) ws i = function
    | [] -> ()
    | loc :: locs ->
        ws.(i) <- (loc, LTbl.find sc.s_writes loc);
        fill_writes sc ws (i - 1) locs

  (* Executes the transaction's code, intercepting reads and writes. Never
     touches MVMemory or Storage mutably. Returns [Vm_blocked] when a read
     observed an ESTIMATE written by a lower transaction. *)
  let vm_execute (inst : 'o instance) ~(txn_idx : int) : 'o vm_outcome =
    let txn = inst.txns.(txn_idx) in
    let sc = Domain.DLS.get scratch_key in
    sc.r_len <- 0;
    sc.r_locs <- [||];
    sc.r_origins <- [||];
    LTbl.clear sc.s_writes;
    sc.s_worder <- [];
    LTbl.clear sc.s_deltas;
    sc.s_dorder <- [];
    sc.s_blocked <- -1;
    let nreads = ref 0 in
    let read loc =
      incr nreads;
      match own_write sc loc with
      | Some _ as v -> v (* read-your-writes: not recorded in the read-set *)
      | None -> (
          match own_delta sc loc with
          | Some (b, c) ->
              (* Value read over this transaction's own pending delta: the
                 external observation is the materialized base [b] — pin it
                 exactly, since the returned value depends on it. *)
              push_read sc loc (Read_origin.Counter b);
              Some (V.of_counter (b + c.Delta.net))
          | None -> (
              (* An MVMemory read, recorded in the read log. *)
              match Mv.read inst.mv loc ~txn_idx with
              | Mv.Read_error { blocking_txn_idx } ->
                  block_on sc blocking_txn_idx
              | Mv.Not_found ->
                  let v = inst.storage loc in
                  push_read sc loc Read_origin.Storage;
                  v
              | Mv.Ok (version, value) ->
                  push_read sc loc (Read_origin.Mv version);
                  Some value
              | Mv.Merged { value } ->
                  (* Value read over lower transactions' delta entries:
                     version-free, so pin the exact materialized sum. *)
                  push_read sc loc (Read_origin.Counter value);
                  Some (V.of_counter value)))
    in
    let write loc v =
      if LTbl.length sc.s_deltas > 0 then LTbl.remove sc.s_deltas loc;
      if not (LTbl.mem sc.s_writes loc) then sc.s_worder <- loc :: sc.s_worder;
      LTbl.replace sc.s_writes loc v
    in
    (* delta_ops off: route delta ops through the instrumented read/write
       pair — exactly the sequential fallback, so recorded read/write sets
       (and therefore scheduling and validation) are byte-identical to a
       build without delta support. *)
    let delta_off = Txn.rmw_delta ~read ~write ~as_counter:V.as_counter
        ~of_counter:V.of_counter in
    (* delta_ops on: accumulate a composed pending delta per location and
       record a Range descriptor over its admissible bases (DESIGN.md §12),
       instead of a value-equality read that concurrent increments abort. *)
    let delta_on loc (d : Delta.t) : Txn.delta_outcome =
      incr nreads;
      match own_write sc loc with
      | Some v -> (
          (* Own plain write buffered: plain read-modify-write on it. *)
          match V.as_counter v with
          | None -> Txn.Not_a_counter
          | Some b -> (
              match Delta.apply d b with
              | Some r ->
                  LTbl.replace sc.s_writes loc (V.of_counter r);
                  Txn.Applied
              | None -> Txn.Bounds_violation))
      | None -> (
          match own_delta sc loc with
          | Some (b, c) -> (
              let c' = Delta.compose c d in
              match Delta.apply c' b with
              | Some _ ->
                  LTbl.replace sc.s_deltas loc (b, c');
                  let rlo, rhi = Delta.admissible c' in
                  push_read sc loc (Read_origin.Range { rlo; rhi });
                  Txn.Applied
              | None ->
                  (* The outcome leaked the exact base: pin it. *)
                  push_read sc loc (Read_origin.Counter b);
                  Txn.Bounds_violation)
          | None -> (
              (* First delta op on this location: materialize the external
                 integer base (same walk the read path does). *)
              let ext =
                match Mv.read inst.mv loc ~txn_idx with
                | Mv.Read_error { blocking_txn_idx } ->
                    block_on sc blocking_txn_idx
                | Mv.Merged { value } -> Some value
                | Mv.Ok (_, value) -> V.as_counter value
                | Mv.Not_found -> (
                    match inst.storage loc with
                    | None -> Some 0 (* absent counts as 0 *)
                    | Some v -> V.as_counter v)
              in
              match ext with
              | None ->
                  push_read sc loc Read_origin.Not_counter;
                  Txn.Not_a_counter
              | Some b -> (
                  match Delta.apply d b with
                  | Some _ ->
                      LTbl.replace sc.s_deltas loc (b, d);
                      sc.s_dorder <- loc :: sc.s_dorder;
                      let rlo, rhi = Delta.admissible d in
                      push_read sc loc (Read_origin.Range { rlo; rhi });
                      Txn.Applied
                  | None ->
                      push_read sc loc (Read_origin.Counter b);
                      Txn.Bounds_violation)))
    in
    let delta = if inst.deltas then delta_on else delta_off in
    let finish vm_output ~keep_writes =
      let vm_read_set = take_reads sc in
      let vm_write_set =
        (* Deterministic order: first-write order of distinct locations.
           [s_worder] is reversed, so its head is the last entry. *)
        match sc.s_worder with
        | loc :: locs when keep_writes ->
            let n = LTbl.length sc.s_writes in
            let ws = Array.make n (loc, LTbl.find sc.s_writes loc) in
            fill_writes sc ws (n - 2) locs;
            ws
        | _ -> [||]
      in
      let vm_delta_set =
        (* First-delta order; a later plain write to the location removed
           its pending delta, so filter through the live table. *)
        if keep_writes && sc.s_dorder <> [] then
          sc.s_dorder |> List.rev
          |> List.filter_map (fun loc ->
                 match LTbl.find_opt sc.s_deltas loc with
                 | Some (_, c) -> Some (loc, c)
                 | None -> None)
          |> Array.of_list
        else [||]
      in
      {
        vm_read_set;
        vm_write_set;
        vm_delta_set;
        vm_output;
        vm_reads = !nreads;
        vm_writes = LTbl.length sc.s_writes + Array.length vm_delta_set;
      }
    in
    (* A read that hit an ESTIMATE decides the outcome however the
       transaction ends: returning after catching [Dependency] must not
       commit a result computed without that read. *)
    match txn { Txn.read; write; delta } with
    | output when sc.s_blocked < 0 ->
        Vm_done (finish (Success output) ~keep_writes:true)
    | exception e when sc.s_blocked < 0 ->
        (* The VM captures transaction failures (§4): the incarnation commits
           with no writes. Validation still covers the observed read-set, so
           failures caused purely by inconsistent speculative reads get
           re-executed. *)
        Vm_done (finish (Failed (Printexc.to_string e)) ~keep_writes:false)
    | _ | exception _ ->
        Vm_blocked { blocking = sc.s_blocked; reads_so_far = !nreads }

  (* ---------------------------------------------------------------------- *)
  (* Algorithm 1: per-task handlers and the worker loop                     *)
  (* ---------------------------------------------------------------------- *)

  (** What a single engine step did — consumed by the virtual-time simulator
      for cost accounting, and by tests. *)
  type step_event = Step_event.t =
    | Executed of { version : Version.t; reads : int; writes : int }
    | Exec_dependency of { version : Version.t; blocking : int; reads : int }
    | Validated of { version : Version.t; aborted : bool; reads : int }
    | Got_task
    | No_task
    | Committed of { upto : int; count : int }
    | Cold_fetch of { version : Version.t; reads : int }

  (* The first ESTIMATE writer below [txn_idx] at [locs.(i..)], if any. *)
  let rec find_estimate_from mv ~txn_idx locs i : int option =
    if i = Array.length locs then None
    else
      match Mv.read mv locs.(i) ~txn_idx with
      | Mv.Read_error { blocking_txn_idx } -> Some blocking_txn_idx
      | _ -> find_estimate_from mv ~txn_idx locs (i + 1)

  (* §4 optimization: before re-running the VM, re-read the previous
     incarnation's read-set; return the first blocking transaction if any
     location now carries an ESTIMATE. *)
  let find_read_set_dependency (inst : _ instance) ~txn_idx : int option =
    find_estimate_from inst.mv ~txn_idx
      (Mv.last_read_set inst.mv txn_idx).locs 0

  (** Work whose observable reads have happened but whose effects are not
      yet applied. The two-phase split exists for the virtual-time simulator:
      [start_task] performs everything a real thread would do {e at the start
      of} a task (claiming, VM execution reads, validation re-reads), and
      [finish_task] applies the state mutations a real thread performs {e at
      the end} (recording writes, abort bookkeeping, follow-up scheduling).
      The real domain-based executor calls them back to back. *)
  type 'o pending =
    | P_exec of { version : Version.t; vm : 'o vm_result }
    | P_exec_dep of { version : Version.t; blocking : int; reads : int }
    | P_val of { version : Version.t; wave : int; valid : bool; reads : int }

  (** Planned work profile of a pending task, for cost models. *)
  let pending_profile : _ pending -> [ `Exec of int * int | `Dep of int | `Val of int ]
      = function
    | P_exec { vm; _ } -> `Exec (vm.vm_reads, vm.vm_writes)
    | P_exec_dep { reads; _ } -> `Dep reads
    | P_val { reads; _ } -> `Val reads

  (* Per-worker batched metric accumulation: the step loop counts into a
     plain int array — one slot per [stat_*] constant, mirroring the
     instance's [ctab] — and flushes once (via [Metrics.add]) when the
     worker loop exits, so the hot path never touches the shared registry
     cells. Table-driven: adding a counter means adding a slot constant, a
     name in [stat_names], and the [bump] call sites. The public
     {!start_task}/{!finish_task} wrappers flush per call, keeping counter
     visibility unchanged for external drivers (the virtual-time simulator
     reads metrics between steps). *)
  type local_stats = int array

  let fresh_stats () : local_stats = Array.make (Array.length stat_names) 0
  let bump (s : local_stats) i = s.(i) <- s.(i) + 1
  let bump_by (s : local_stats) i n = s.(i) <- s.(i) + n

  let flush_stats (inst : _ instance) (s : local_stats) : unit =
    Array.iteri
      (fun i n ->
        if n <> 0 then begin
          Metrics.add inst.ctab.(i) n;
          s.(i) <- 0
        end)
      s

  let start_task_s (inst : 'o instance) (stats : local_stats)
      (task : Scheduler.task) : 'o pending =
    match task with
    | Scheduler.Execution version -> (
        let txn_idx = Version.txn_idx version in
        let t0 = if inst.record_exec then Trace.now_ns () else 0 in
        let blocked =
          if
            inst.prevalidate
            && Version.incarnation version > 0
            && not inst.indep.(txn_idx)
          then find_read_set_dependency inst ~txn_idx
          else None
        in
        match blocked with
        | Some b ->
            bump stats stat_preval_skips;
            P_exec_dep { version; blocking = b; reads = 0 }
        | None -> (
            match vm_execute inst ~txn_idx with
            | Vm_blocked { blocking; reads_so_far } ->
                P_exec_dep { version; blocking; reads = reads_so_far }
            | Vm_done vm ->
                if inst.record_exec then
                  inst.exec_ns.(txn_idx) <- Trace.now_ns () - t0;
                P_exec { version; vm }))
    | Scheduler.Validation (version, wave) ->
        let txn_idx = Version.txn_idx version in
        if inst.indep.(txn_idx) then begin
          (* Spec-disjoint transaction (DESIGN.md §15): its static spec
             proves no other transaction writes anything it read, so the
             read-set walk is a foregone conclusion — short-circuit it.
             Counted in [spec_skips], not [validations]. *)
          bump stats stat_spec_skips;
          P_val { version; wave; valid = true; reads = 0 }
        end
        else begin
          bump stats stat_validations;
          let reads = Array.length (Mv.last_read_set inst.mv txn_idx).locs in
          let valid = Mv.validate_read_set inst.mv txn_idx in
          P_val { version; wave; valid; reads }
        end

  let finish_task_s (inst : 'o instance) (stats : local_stats)
      (p : 'o pending) : Scheduler.task option * step_event =
    match p with
    | P_exec { version; vm } ->
        let txn_idx = Version.txn_idx version in
        let incarnation = Version.incarnation version in
        bump stats stat_incarnations;
        bump_by stats stat_vm_reads vm.vm_reads;
        bump_by stats stat_vm_writes vm.vm_writes;
        bump_by stats stat_delta_applies (Array.length vm.vm_delta_set);
        inst.outputs.(txn_idx) <- Some vm.vm_output;
        let wrote_new_location =
          Mv.record ~deltas:vm.vm_delta_set inst.mv version vm.vm_read_set
            vm.vm_write_set
        in
        let next =
          match inst.dag with
          | Some dag ->
              (* Spec-DAG mode: every predecessor that may write what this
                 transaction reads has already finished, so the write is
                 final — release the successors. No validation task is ever
                 scheduled. *)
              Spec_dag.finish_execution dag ~txn_idx
          | None ->
              Scheduler.finish_execution inst.sched ~txn_idx ~incarnation
                ~wrote_new_location
        in
        (next, Executed { version; reads = vm.vm_reads; writes = vm.vm_writes })
    | P_exec_dep { version; blocking; reads } ->
        bump stats stat_dep_aborts;
        let txn_idx = Version.txn_idx version in
        if
          Scheduler.add_dependency inst.sched ~txn_idx
            ~blocking_txn_idx:blocking
        then (None, Exec_dependency { version; blocking; reads })
        else
          (* Dependency already resolved: hand the execution task back so the
             caller immediately retries (paper Line 15). *)
          ( Some (Scheduler.Execution version),
            Exec_dependency { version; blocking; reads } )
    | P_val { version; wave; valid; reads } ->
        let txn_idx = Version.txn_idx version in
        let aborted =
          (not valid) && Scheduler.try_validation_abort inst.sched version
        in
        if aborted then (
          bump stats stat_val_aborts;
          if inst.estimates then
            Mv.convert_writes_to_estimates inst.mv txn_idx
          else Mv.remove_written_entries inst.mv txn_idx);
        let next =
          Scheduler.finish_validation inst.sched ~version ~wave ~aborted
        in
        (next, Validated { version; aborted; reads })

  (** Fetch the next task from whichever source drives this instance: the
      spec DAG in [spec_dag] mode, the collaborative scheduler otherwise. *)
  let next_task (inst : _ instance) : Scheduler.task option =
    match inst.dag with
    | Some dag -> Spec_dag.next_task dag
    | None -> Scheduler.next_task inst.sched

  (** Whether every transaction has finished under this instance's task
      source (see {!next_task}). Monotone. *)
  let is_done (inst : _ instance) : bool =
    match inst.dag with
    | Some dag -> Spec_dag.done_ dag
    | None -> Scheduler.done_ inst.sched

  let step_s (inst : _ instance) (stats : local_stats)
      (task : Scheduler.task option) : Scheduler.task option * step_event =
    match task with
    | Some t -> finish_task_s inst stats (start_task_s inst stats t)
    | None -> (
        match next_task inst with
        | Some t -> (Some t, Got_task)
        | None -> (None, No_task))

  (* Public per-call variants: flush the counters immediately so external
     drivers observe every step's metrics, exactly as before batching. *)

  let start_task (inst : 'o instance) (task : Scheduler.task) : 'o pending =
    let stats = fresh_stats () in
    let p = start_task_s inst stats task in
    flush_stats inst stats;
    p

  let finish_task (inst : 'o instance) (p : 'o pending) :
      Scheduler.task option * step_event =
    let stats = fresh_stats () in
    let r = finish_task_s inst stats p in
    flush_stats inst stats;
    r

  (** One step of the Algorithm 1 loop body: run the carried task (start and
      finish back to back), or fetch a new one. Returns the task to carry
      into the next step plus the event describing what happened.
      Thread-safe: any number of domains may call it concurrently. *)
  let step (inst : _ instance) (task : Scheduler.task option) :
      Scheduler.task option * step_event =
    let stats = fresh_stats () in
    let r = step_s inst stats task in
    flush_stats inst stats;
    r

  (* Per-transaction commit hook, run in preset order under the scheduler's
     commit mutex. The transaction's output is final here: EXECUTED implies
     the slot was filled by [finish_task] before the status flip. *)
  let commit_one (inst : 'o instance) (j : int) : unit =
    inst.commit_ns.(j) <- Trace.now_ns () - inst.t0_ns;
    Metrics.incr inst.c_commits;
    Metrics.observe inst.h_commit_ns inst.commit_ns.(j);
    match inst.on_commit with
    | None -> ()
    | Some f -> (
        match inst.outputs.(j) with
        | Some o -> f j o
        | None -> assert false (* EXECUTED implies output recorded *))

  (** Opportunistic rolling-commit step: advance the scheduler's commit
      sweep and flush newly committed transactions out of MVMemory. Returns
      the number of transactions committed by this call. *)
  let maybe_commit (inst : 'o instance) : int =
    if not inst.rolling then 0
    else begin
      let n =
        Scheduler.try_advance_commit inst.sched ~on_commit:(commit_one inst)
      in
      if n > 0 then
        Mv.flush_committed inst.mv
          ~upto:(Scheduler.committed_prefix inst.sched);
      n
    end

  (* An idle poll: back off, then report whether to keep looping — [false]
     once another worker of [run] failed. The failure flag is read only
     here, so the busy path pays nothing for it. *)
  let idle_poll (inst : _ instance) backoff : bool =
    Atomic_util.Backoff.once backoff;
    Option.is_none (Atomic.get inst.failure)

  let worker_loop ?(worker = 0) (inst : _ instance) : unit =
    let stats = fresh_stats () in
    (* Idle backoff: a worker that found no task pauses exponentially longer
       ([Domain.cpu_relax]) instead of hammering the scheduler counters,
       which steals cache bandwidth from the domains doing real work. Any
       real step resets the pause to its minimum. *)
    let backoff = Atomic_util.Backoff.create () in
    let live = ref true in
    (match inst.trace with
    | None ->
        (* Untraced hot loop: no timestamps, no event plumbing. *)
        let task = ref None in
        while !live && not (is_done inst) do
          let task', ev = step_s inst stats !task in
          (match ev with
          | No_task -> live := idle_poll inst backoff
          | _ -> Atomic_util.Backoff.reset backoff);
          if inst.rolling then ignore (maybe_commit inst);
          task := task'
        done
    | Some tr ->
        let ring = Trace.ring tr ~worker in
        let task = ref None in
        while !live && not (is_done inst) do
          let carried = !task in
          let t0 = Trace.now_ns () in
          let task', ev = step_s inst stats carried in
          let t1 = Trace.now_ns () in
          (match carried with
          | Some (Scheduler.Execution _) ->
              Metrics.observe inst.h_exec_ns (t1 - t0)
          | Some (Scheduler.Validation _) ->
              Metrics.observe inst.h_val_ns (t1 - t0)
          | None -> ());
          Trace.record tr ring ~t0_ns:t0 ~t1_ns:t1 ev;
          (match ev with
          | No_task -> live := idle_poll inst backoff
          | _ -> Atomic_util.Backoff.reset backoff);
          if inst.rolling then begin
            let tc0 = Trace.now_ns () in
            let committed = maybe_commit inst in
            if committed > 0 then
              Trace.record tr ring ~t0_ns:tc0 ~t1_ns:(Trace.now_ns ())
                (Committed
                   {
                     upto = Scheduler.committed_prefix inst.sched;
                     count = committed;
                   })
          end;
          task := task'
        done);
    flush_stats inst stats

  let metrics_of (inst : _ instance) : metrics =
    let v i = Metrics.value inst.ctab.(i) in
    {
      incarnations = v stat_incarnations;
      dependency_aborts = v stat_dep_aborts;
      validations = v stat_validations;
      validation_aborts = v stat_val_aborts;
      prevalidation_skips = v stat_preval_skips;
      commits = Metrics.value inst.c_commits;
      delta_applies = v stat_delta_applies;
      spec_skips = v stat_spec_skips;
    }

  let sched (inst : _ instance) : Scheduler.t = inst.sched

  let metrics_registry (inst : _ instance) : Metrics.t = inst.obs

  (* Final recorded read-set of a transaction — exposed so tests can assert
     that speculative execution observed exactly the reads a sequential
     execution would have. Only meaningful after all workers joined. *)
  let recorded_read_set (inst : _ instance) (txn_idx : int) : Mv.read_set =
    Mv.last_read_set inst.mv txn_idx

  let committed_prefix (inst : _ instance) : int =
    Scheduler.committed_prefix inst.sched

  let finalize (inst : 'o instance) : 'o result =
    let n = Array.length inst.txns in
    if inst.rolling then begin
      (* Drain the sweep: every transaction is EXECUTED with a final
         successful validation by the time the scheduler is done, so one
         blocking pass commits whatever the opportunistic in-loop sweeps left
         over. The snapshot is then served from the flushed chains. *)
      ignore (Scheduler.advance_commit inst.sched ~on_commit:(commit_one inst));
      let prefix = Scheduler.committed_prefix inst.sched in
      if prefix <> n then
        Fmt.failwith "Block_stm: rolling commit stalled at %d/%d transactions"
          prefix n;
      Mv.flush_committed inst.mv ~upto:n
    end;
    (* The paper's final snapshot, one pass over the affected locations
       (DESIGN.md §4). *)
    let snapshot = Mv.snapshot inst.mv in
    let outputs =
      Atomic_util.init_array n (fun j ->
          match inst.outputs.(j) with
          | Some o -> o
          | None -> Fmt.failwith "Block_stm: transaction %d has no output" j)
    in
    if not inst.rolling then
      (* The whole block commits at once: the hook fires here, in the same
         order a rolling sweep would fire it. *)
      Option.iter (fun f -> Array.iteri f outputs) inst.on_commit;
    {
      snapshot;
      outputs;
      metrics = metrics_of inst;
      commit_ns = Array.copy inst.commit_ns;
      exec_ns = Array.copy inst.exec_ns;
    }

  (** Execute a block. [storage] is the pre-block state; [txns] the block in
      its preset serialization order. Spawns [config.num_domains - 1] extra
      domains and participates with the calling domain. An exception that
      escapes any worker stops the others and is re-raised once all have
      joined. *)
  let run ?(config = default_config) ?specs ?loc_namespace ?trace ?on_commit
      ~storage (txns : 'o txn array) : 'o result =
    let inst =
      create_instance ~config ?specs ?loc_namespace ?trace ?on_commit ~storage
        txns
    in
    if Array.length txns = 0 then
      {
        snapshot = [];
        outputs = [||];
        metrics = metrics_of inst;
        commit_ns = [||];
        exec_ns = [||];
      }
    else begin
      let guarded worker () =
        try worker_loop ~worker inst
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set inst.failure None (Some (e, bt)))
      in
      let others =
        Array.init (config.num_domains - 1) (fun i ->
            Domain.spawn (guarded (i + 1)))
      in
      guarded 0 ();
      Array.iter Domain.join others;
      match Atomic.get inst.failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> finalize inst
    end
end
