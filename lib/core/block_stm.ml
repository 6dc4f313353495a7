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
  }

  let pp_metrics ppf m =
    Fmt.pf ppf
      "{ incarnations=%d; dep_aborts=%d; validations=%d; val_aborts=%d; \
       preval_skips=%d; commits=%d; deltas=%d }"
      m.incarnations m.dependency_aborts m.validations m.validation_aborts
      m.prevalidation_skips m.commits m.delta_applies

  (* Every value of the engine configuration runs. The interface documents
     each field. *)
  type marking = Estimates | Remove_on_abort

  type config = {
    num_domains : int;
    marking : marking;
    prevalidate_reads : bool;
    rolling_commit : bool;
    delta_ops : bool;
  }

  let default_config =
    {
      num_domains = 1;
      marking = Estimates;
      prevalidate_reads = true;
      rolling_commit = false;
      delta_ops = false;
    }

  type 'o result = {
    snapshot : (L.t * V.t) list;  (** Final value per affected location. *)
    outputs : 'o txn_output array;  (** Per-transaction outputs, in order. *)
    metrics : metrics;
    commit_ns : int array;
        (** Per-transaction time-to-commit (ns since the instance was
            created), in preset order. Empty unless [rolling_commit]. *)
  }

  (* ---------------------------------------------------------------------- *)
  (* Engine instance: shared state of one block execution.                  *)
  (* ---------------------------------------------------------------------- *)

  (* Engine counter slots (see [local_stats] below): one index per
     [metrics] field the step loop counts. *)
  let stat_incarnations = 0

  let stat_dep_aborts = 1
  let stat_validations = 2
  let stat_val_aborts = 3
  let stat_preval_skips = 4
  let stat_delta_applies = 5
  let num_stats = 6

  (* What an output slot holds until its transaction's first incarnation
     finishes. It is told apart by [==], so an output equal to it (a
     transaction failing with the same text) is still an output. *)
  let no_output : 'o txn_output = Failed "Block_stm: no output"

  type 'o instance = {
    txns : 'o txn array;
    storage : (L.t, V.t) Intf.storage;
    mv : Mv.t;
    sched : Scheduler.t;
    (* The config, resolved once by [create_instance], so each hot-path
       check is one load. *)
    estimates : bool;  (* [Estimates] marking; [false]: remove on abort. *)
    prevalidate : bool;
    rolling : bool;
    commit_valid : int -> bool;
        (* The commit sweep's read-set check (DESIGN.md §8): the decision a
           validation task for the transaction would make. *)
    deltas : bool;
    outputs : 'o txn_output array;
        (* Slot [j] holds [no_output] until tx_j's first incarnation
           finishes. It is written only by the executor of tx_j's
           incarnations (sequential per Corollary 1) and read once every
           worker has left its loop; [finalize] hands the array to the
           result. *)
    counts : int Atomic.t array;
        (* The block's engine counters, indexed by the [stat_*] constants.
           Several domains add to them, so each is padded onto its own
           cache lines (see [local_stats]). *)
    trace : Trace.t option;
    (* Rolling-commit streaming state. [commit_ns.(j)] is written once, by
       whichever domain commits j (under the scheduler's commit mutex), and
       read once every worker has left its loop. [t0_ns] is the latency
       origin. *)
    t0_ns : int;
    commit_ns : int array;
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

  let create_instance ?(config = default_config) ?trace ?on_commit ~storage
      (txns : 'o txn array) : 'o instance =
    let n = Array.length txns in
    if config.num_domains < 1 then
      invalid_arg "Block_stm: num_domains must be >= 1";
    (match trace with
    | Some tr when Trace.num_workers tr < config.num_domains ->
        invalid_arg "Block_stm: trace has fewer workers than num_domains"
    | _ -> ());
    let mv = Mv.create ~storage ~block_size:n () in
    let rolling = config.rolling_commit in
    {
      txns;
      storage;
      mv;
      sched = Scheduler.create ~block_size:n ();
      estimates =
        (match config.marking with
        | Estimates -> true
        | Remove_on_abort -> false);
      prevalidate = config.prevalidate_reads;
      rolling;
      commit_valid = Mv.validate_read_set mv;
      deltas = config.delta_ops;
      outputs = Array.make n no_output;
      counts =
        Atomic_util.init_array num_stats (fun _ -> Atomic_util.padded_atomic 0);
      trace;
      t0_ns = Trace.now_ns ();
      commit_ns = (if rolling then Array.make n (-1) else [||]);
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

  (* Forget the previous incarnation's read log, writes and deltas. *)
  let clear_scratch (sc : scratch) : unit =
    sc.r_locs <- [||];
    sc.r_origins <- [||];
    LTbl.clear sc.s_writes;
    sc.s_worder <- [];
    LTbl.clear sc.s_deltas;
    sc.s_dorder <- []

  (* Executes the transaction's code, intercepting reads and writes. Never
     touches MVMemory or Storage mutably. Returns [Vm_blocked] when a read
     observed an ESTIMATE written by a lower transaction. *)
  let vm_execute (inst : 'o instance) ~(txn_idx : int) : 'o vm_outcome =
    let txn = inst.txns.(txn_idx) in
    let sc = Domain.DLS.get scratch_key in
    sc.r_len <- 0;
    clear_scratch sc;
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
    | P_val of { version : Version.t; valid : bool; reads : int }

  (** Planned work profile of a pending task, for cost models. *)
  let pending_profile : _ pending -> [ `Exec of int * int | `Dep of int | `Val of int ]
      = function
    | P_exec { vm; _ } -> `Exec (vm.vm_reads, vm.vm_writes)
    | P_exec_dep { reads; _ } -> `Dep reads
    | P_val { reads; _ } -> `Val reads

  (* Per-worker tallies: the step loop counts into a plain int array, one
     slot per [stat_*] constant, and adds it into the instance's [counts]
     once, when the worker loop exits, so the hot path touches no shared
     cell. The public {!start_task}/{!finish_task}/{!step} add theirs per
     call: an external driver has no loop exit, and may step one instance
     from several domains. *)
  type local_stats = int array

  let fresh_stats () : local_stats = Array.make num_stats 0
  let bump (s : local_stats) i = s.(i) <- s.(i) + 1
  let bump_by (s : local_stats) i n = s.(i) <- s.(i) + n

  let flush_stats (inst : _ instance) (s : local_stats) : unit =
    for i = 0 to num_stats - 1 do
      let n = s.(i) in
      if n <> 0 then begin
        ignore (Atomic.fetch_and_add inst.counts.(i) n);
        s.(i) <- 0
      end
    done

  let start_task_s (inst : 'o instance) (stats : local_stats)
      (task : Scheduler.task) : 'o pending =
    match task with
    | Scheduler.Execution version -> (
        let txn_idx = Version.txn_idx version in
        let blocked =
          if inst.prevalidate && Version.incarnation version > 0 then
            find_read_set_dependency inst ~txn_idx
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
            | Vm_done vm -> P_exec { version; vm }))
    | Scheduler.Validation (version, _) ->
        let txn_idx = Version.txn_idx version in
        bump stats stat_validations;
        let reads = Array.length (Mv.last_read_set inst.mv txn_idx).locs in
        let valid = Mv.validate_read_set inst.mv txn_idx in
        P_val { version; valid; reads }

  let finish_task_s (inst : 'o instance) (stats : local_stats)
      (p : 'o pending) : Scheduler.task option * step_event =
    match p with
    | P_exec { version; vm } ->
        let txn_idx = Version.txn_idx version in
        let incarnation = Version.incarnation version in
        bump stats stat_incarnations;
        bump_by stats stat_delta_applies (Array.length vm.vm_delta_set);
        inst.outputs.(txn_idx) <- vm.vm_output;
        let wrote_new_location =
          Mv.record ~deltas:vm.vm_delta_set inst.mv version vm.vm_read_set
            vm.vm_write_set
        in
        let next =
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
    | P_val { version; valid; reads } ->
        let txn_idx = Version.txn_idx version in
        let aborted =
          (not valid) && Scheduler.try_validation_abort inst.sched version
        in
        if aborted then (
          bump stats stat_val_aborts;
          if inst.estimates then
            Mv.convert_writes_to_estimates inst.mv txn_idx
          else Mv.remove_written_entries inst.mv txn_idx);
        let next = Scheduler.finish_validation inst.sched ~version ~aborted in
        (next, Validated { version; aborted; reads })

  let next_task (inst : _ instance) : Scheduler.task option =
    Scheduler.next_task inst.sched

  let is_done (inst : _ instance) : bool = Scheduler.done_ inst.sched

  let step_s (inst : _ instance) (stats : local_stats)
      (task : Scheduler.task option) : Scheduler.task option * step_event =
    match task with
    | Some t -> finish_task_s inst stats (start_task_s inst stats t)
    | None -> (
        match next_task inst with
        | Some t -> (Some t, Got_task)
        | None -> (None, No_task))

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
    match inst.on_commit with
    | None -> ()
    | Some f ->
        let o = inst.outputs.(j) in
        assert (o != no_output) (* EXECUTED implies output recorded *);
        f j o

  (** Opportunistic rolling-commit step: advance the scheduler's commit
      sweep and flush newly committed transactions out of MVMemory. Returns
      the number of transactions committed by this call. *)
  let maybe_commit (inst : 'o instance) : int =
    if not inst.rolling then 0
    else begin
      let n =
        Scheduler.try_advance_commit inst.sched ~valid:inst.commit_valid
          ~on_commit:(commit_one inst)
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
          let t0 = Trace.now_ns () in
          let task', ev = step_s inst stats !task in
          Trace.record tr ring ~t0_ns:t0 ~t1_ns:(Trace.now_ns ()) ev;
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
    (* The domain outlives the block: keep none of its values alive in the
       scratch until the domain's next incarnation. *)
    clear_scratch (Domain.DLS.get scratch_key);
    flush_stats inst stats

  (* Exact once every worker has added its tallies in. Every transaction
     the rolling sweep committed is in the committed prefix, which stays 0
     without rolling commit. *)
  let metrics_of (inst : _ instance) : metrics =
    let v i = Atomic.get inst.counts.(i) in
    {
      incarnations = v stat_incarnations;
      dependency_aborts = v stat_dep_aborts;
      validations = v stat_validations;
      validation_aborts = v stat_val_aborts;
      prevalidation_skips = v stat_preval_skips;
      commits = Scheduler.committed_prefix inst.sched;
      delta_applies = v stat_delta_applies;
    }

  let sched (inst : _ instance) : Scheduler.t = inst.sched

  (* Final recorded read-set of a transaction — exposed so tests can assert
     that speculative execution observed exactly the reads a sequential
     execution would have. Only meaningful after all workers joined. *)
  let recorded_read_set (inst : _ instance) (txn_idx : int) : Mv.read_set =
    Mv.last_read_set inst.mv txn_idx

  let committed_prefix (inst : _ instance) : int =
    Scheduler.committed_prefix inst.sched

  (* What [finalize] does besides the snapshot: drain the rolling sweep,
     check every output and fire the lazy commit hook. *)
  let settle (inst : 'o instance) : unit =
    let n = Array.length inst.txns in
    if inst.rolling then begin
      (* Drain the sweep: every transaction is EXECUTED with a valid read set
         by the time the scheduler is done (Lemma 2), so one blocking pass
         commits whatever the opportunistic in-loop sweeps left over. The
         final values are then served from the flushed chains. *)
      ignore
        (Scheduler.advance_commit inst.sched ~valid:inst.commit_valid
           ~on_commit:(commit_one inst));
      let prefix = Scheduler.committed_prefix inst.sched in
      if prefix <> n then
        Fmt.failwith "Block_stm: rolling commit stalled at %d/%d transactions"
          prefix n;
      Mv.flush_committed inst.mv ~upto:n
    end;
    let outputs = inst.outputs in
    for j = 0 to n - 1 do
      if outputs.(j) == no_output then
        Fmt.failwith "Block_stm: transaction %d has no output" j
    done;
    if not inst.rolling then
      (* The whole block commits at once: the hook fires here, in the same
         order a rolling sweep would fire it. *)
      Option.iter (fun f -> Array.iteri f outputs) inst.on_commit

  let finalize (inst : 'o instance) : 'o result =
    settle inst;
    (* The paper's final snapshot, one pass over the affected locations
       (DESIGN.md §4). The result takes the instance's arrays over rather
       than copying them: a block's finalize allocates only its snapshot
       list (DESIGN.md §9). *)
    {
      snapshot = Mv.snapshot inst.mv;
      outputs = inst.outputs;
      metrics = metrics_of inst;
      commit_ns = inst.commit_ns;
    }

  (* Run one worker loop of [run]; an exception that escapes it is recorded
     as the block's failure, which stops the other workers. *)
  let guarded (inst : _ instance) worker : unit =
    try worker_loop ~worker inst
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set inst.failure None (Some (e, bt)))

  (* The commit job of [run_into]: its parts, claimed in turn by every
     domain of the crew. [part p] applies part [p]; it reaches the
     instance. *)
  type job = {
    parts : int;
    part : int -> unit;
    next : int Atomic.t;  (* The next part to claim. *)
    left : int Atomic.t;  (* Parts not yet finished. *)
    failed : (exn * Printexc.raw_backtrace) option Atomic.t;
        (* The first exception a part raised. *)
  }

  (* What [run] shares with its helper domains. A helper does not capture
     the instance: a domain's exit runs a stop-the-world minor collection
     (OCaml 5.1) that promotes whatever is still reachable, and
     [Domain.spawn] keeps the helper's closure reachable until after it. So
     the closure holds the crew, and the helper takes the instance from
     [cell], which [run] empties once it has read the result out. The
     helper leaves last: by its exit collection the block's bookkeeping is
     garbage, and only the result is copied. *)
  type 'o crew = {
    cell : 'o instance option Atomic.t;
        (* The instance until [run] has read the result; [None] releases
           the helpers. *)
    running : int Atomic.t;  (* Helpers still in their worker loops. *)
    job : job option Atomic.t;
        (* [run_into]'s commit job, from when the caller has settled the
           block until every part is done; it is cleared before the
           release, since it reaches the instance. *)
    lock : Mutex.t;
    cond : Condition.t;
        (* Where a wait that outlasts its spin sleeps; see [await]. *)
  }

  (* Idle rounds of [Atomic_util.Backoff] before a wait sleeps: 16 rounds
     are 2,303 [Domain.cpu_relax] pauses, about 80 us at 35 ns a pause,
     longer than a helper takes to leave its loop once the block is done.
     Sleeping matters only when the domains outnumber the cores: a spinning
     waiter then holds a core that the domain it waits for needs. *)
  let spin_rounds = 16

  (* Wait until [ready ()], which another domain makes true and then calls
     [wake]: spin as idle workers do, then sleep on the crew's condition.
     [ready] is checked under the lock before each sleep, so a [wake] after
     the state change is never lost. *)
  let await (c : _ crew) (ready : unit -> bool) : unit =
    let backoff = Atomic_util.Backoff.create () in
    let rec spin round =
      if ready () then ()
      else if round < spin_rounds then begin
        Atomic_util.Backoff.once backoff;
        spin (round + 1)
      end
      else begin
        Mutex.lock c.lock;
        while not (ready ()) do
          Condition.wait c.cond c.lock
        done;
        Mutex.unlock c.lock
      end
    in
    spin 0

  let wake (c : _ crew) : unit =
    Mutex.lock c.lock;
    Condition.broadcast c.cond;
    Mutex.unlock c.lock

  (* Release the helpers: after this, no domain reaches the instance through
     the crew. *)
  let release (c : _ crew) : unit =
    Atomic.set c.cell None;
    wake c

  (* Claim parts of [j] until none is left. A part that raises is recorded,
     and once one has, the parts still unclaimed are skipped; each counts
     as finished either way, so the caller's wait for [left] ends. *)
  let rec work (c : _ crew) (j : job) : unit =
    let p = Atomic.fetch_and_add j.next 1 in
    if p < j.parts then begin
      (if Option.is_none (Atomic.get j.failed) then
         try j.part p
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set j.failed None (Some (e, bt))));
      if Atomic.fetch_and_add j.left (-1) = 1 then wake c;
      work c j
    end

  (* The body of helper domain [worker]: run the worker loop, report that
     it has left it, take parts of the commit job if one comes, then wait
     for the release. The cell is empty at the start only if a later spawn
     failed first. *)
  let helper (c : _ crew) worker () : unit =
    (match Atomic.get c.cell with
    | Some inst -> guarded inst worker
    | None -> ());
    if Atomic.fetch_and_add c.running (-1) = 1 then wake c;
    await c (fun () ->
        Option.is_some (Atomic.get c.job)
        || Option.is_none (Atomic.get c.cell));
    (match Atomic.get c.job with Some j -> work c j | None -> ());
    await c (fun () -> Option.is_none (Atomic.get c.cell))

  (* Spawn [k] helpers. If a spawn fails, the helpers already started are
     stopped, released and joined before the exception propagates. *)
  let spawn_helpers (inst : _ instance) (c : _ crew) k : unit Domain.t array =
    let rec go acc w =
      if w > k then Array.of_list acc
      else
        match Domain.spawn (helper c w) with
        | d -> go (d :: acc) (w + 1)
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set inst.failure None (Some (e, bt)));
            release c;
            List.iter Domain.join acc;
            Printexc.raise_with_backtrace e bt
    in
    go [] 1

  (* Execute a block on [config.num_domains] domains, then [read_out] the
     result on the calling domain while the helpers wait, and release and
     join them. [read_out inst c] may hand the crew a commit job; it
     answers [Error] for a failure to re-raise once the helpers are joined.
     An exception that escapes any worker, [read_out] or a spawn is
     re-raised the same way. The result must not hold the instance: the
     helpers' exit collections run inside the joins. An empty block spawns
     no helper and runs no loop. *)
  let execute ~config ?trace ?on_commit ~storage txns
      ~(read_out : 'o instance -> 'o crew -> ('r, exn * _) Stdlib.result) : 'r =
    let inst = create_instance ~config ?trace ?on_commit ~storage txns in
    let empty = Array.length txns = 0 in
    let k = if empty then 0 else config.num_domains - 1 in
    let c =
      {
        cell = Atomic_util.padded_atomic (Some inst);
        running = Atomic_util.padded_atomic k;
        job = Atomic_util.padded_atomic None;
        lock = Mutex.create ();
        cond = Condition.create ();
      }
    in
    let helpers = spawn_helpers inst c k in
    if not empty then guarded inst 0;
    (* A helper has added its tallies in once it has left its worker
       loop. *)
    await c (fun () -> Atomic.get c.running = 0);
    let r =
      match Atomic.get inst.failure with
      | Some (e, bt) -> Error (e, bt)
      | None -> (
          match read_out inst c with
          | r -> r
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    (* The result is read out, or the block failed: the instance is dead
       from here on, so the helpers can leave. *)
    release c;
    Array.iter Domain.join helpers;
    match r with
    | Ok r -> r
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt

  (** Execute a block. [storage] is the pre-block state; [txns] the block in
      its preset serialization order. Spawns [config.num_domains - 1] extra
      domains and participates with the calling domain; the helpers leave
      after [finalize] (see [crew]). An exception that escapes any worker,
      [finalize] or a spawn is re-raised once every started helper has been
      released and joined. *)
  let run ?(config = default_config) ?trace ?on_commit ~storage
      (txns : 'o txn array) : 'o result =
    execute ~config ?trace ?on_commit ~storage txns
      ~read_out:(fun inst _ -> Ok (finalize inst))

  (** Execute a block and apply its final writes by hash parts on the crew:
      once the block is settled, the caller and every helper claim the
      parts [0 .. parts - 1] in turn, and [apply p bindings] applies part
      [p], whose final bindings [bindings f] passes to [f] — those whose
      [L.hash l land (parts - 1) = p], from MVMemory's shards [p], [p +
      parts], ... (see {!Mv.iter_shard}). The job is cleared from the crew
      before the release, and a part that raises is re-raised once every
      helper is joined. *)
  let run_into ?(config = default_config) ?trace ?on_commit ~storage
      ~parts ~(apply : int -> ((L.t -> V.t -> unit) -> unit) -> unit)
      (txns : 'o txn array) : 'o txn_output array * metrics =
    if parts < 1 || parts > 64 || parts land (parts - 1) <> 0 then
      invalid_arg "Block_stm.run_into: parts must be a power of two, 1 to 64";
    execute ~config ?trace ?on_commit ~storage txns
      ~read_out:(fun inst c ->
        settle inst;
        let mv = inst.mv in
        let nshards = Mv.nshards mv in
        let part p =
          apply p (fun f ->
              let s = ref p in
              while !s < nshards do
                Mv.iter_shard mv !s f;
                s := !s + parts
              done)
        in
        let j =
          {
            parts;
            part;
            next = Atomic_util.padded_atomic 0;
            left = Atomic_util.padded_atomic parts;
            failed = Atomic.make None;
          }
        in
        Atomic.set c.job (Some j);
        wake c;
        work c j;
        await c (fun () -> Atomic.get j.left = 0);
        Atomic.set c.job None;
        match Atomic.get j.failed with
        | Some failure -> Error failure
        | None -> Ok (inst.outputs, metrics_of inst))
end
