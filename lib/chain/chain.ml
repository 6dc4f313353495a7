(** Chain manager: the blockchain context Block-STM runs in.

    State machine replication applies a sequence of blocks; every entity
    executing a block must arrive at the same final state (paper §1). This
    module chains block executions — folding each block's output snapshot
    into the running state — and computes a deterministic {e state root}
    after every block, so two replicas can compare roots exactly the way
    validators do. The executor is pluggable: Block-STM with any
    configuration, or the sequential baseline, must yield identical roots —
    the repository's end-to-end consensus check.

    The state substrate is pluggable too (DESIGN.md §13). The default flat
    store digests the whole state with an O(n) sorted fold after every block
    — the paper-faithful baseline. The authenticated [`Merkle] substrate
    maintains the root incrementally: folding a block's delta touches only
    the affected digest buckets, so the root update is O(|delta| · log
    buckets), and with [async_flush] the digest work rides the engine's
    committed-prefix stream, overlapping tail execution. Both substrates are
    deterministic functions of the final state, so replicas on different
    substrates still agree with {e themselves} — roots are only comparable
    between replicas using the same substrate. *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  module Bstm = Blockstm_core.Block_stm.Make (L) (V)
  module LanesE = Blockstm_lanes.Lanes.Make (L) (V)
  module Seq = Blockstm_baselines.Sequential.Make (L) (V)
  module Store = Blockstm_storage.Memstore.Make (L) (V)
  module Mstore = Blockstm_storage.Merkle.Make (L) (V)
  module Overlay = Overlay.Make (L) (V)
  module Metrics = Blockstm_obs.Metrics
  module Trace = Blockstm_obs.Trace

  (** How blocks are executed. *)
  type executor =
    | Sequential
    | Block_stm of Bstm.config
    | Lanes of {
        config : Bstm.config;
        partition : LanesE.partition;
        namespace : (L.t -> string) option;
      }
        (** Sharded execution lanes (DESIGN.md §16): [partition.lanes]
            independent engine instances plus the cross-lane coordinator.
            Requires per-block access specs ([execute_block ~specs] /
            [execute_stream ~next_specs]); [partition.lanes = 1] is
            operationally identical to [Block_stm config]. *)

  (** Commitment of one block. *)
  type 'o block_commit = {
    height : int;  (** 1-based block height. *)
    txn_count : int;
    outputs : 'o Txn.output array;
        (** Empty if pruned by bounded retention ([outputs_retained]). *)
    outputs_retained : bool;
        (** [false] once the retention window dropped this block's outputs;
            roots and metrics are always kept. *)
    state_root : int64;  (** Deterministic digest of the full state. *)
    delta_root : int64;  (** Digest of just this block's write snapshot. *)
    metrics : Bstm.metrics option;  (** Present for Block-STM execution. *)
  }

  (* The running state: a flat table digested from scratch each block, or
     the incrementally-hashed Merkle substrate. *)
  type state_store = S_flat of Store.t | S_merkle of Mstore.t

  type 'o t = {
    executor : executor;
    state : state_store;
    mutable height : int;
    mutable commits : 'o block_commit list;  (* newest first *)
    hash_loc : L.t -> int;
    hash_value : V.t -> int;
    retain_outputs : int option;
        (* Keep full outputs for the newest N commits only. *)
    async_flush : bool;
  }

  (* FNV-1a-style fold over 64-bit lanes: deterministic, order-sensitive
     (inputs are sorted by location, so replicas agree). *)
  let fnv_offset = 0xcbf29ce484222325L
  let fnv_prime = 0x100000001b3L

  let mix (h : int64) (x : int) : int64 =
    Int64.mul (Int64.logxor h (Int64.of_int x)) fnv_prime

  let digest ~hash_loc ~hash_value (pairs : (L.t * V.t) list) : int64 =
    List.fold_left
      (fun h (l, v) -> mix (mix h (hash_loc l)) (hash_value v))
      fnv_offset pairs

  (** [create ~executor ~genesis ()] starts a chain whose state is a private
      copy of [genesis].

      [store] selects the substrate: [`Flat] (default — the paper-faithful
      whole-state fold) or [`Merkle] (incremental authenticated roots;
      [merkle_buckets] sizes its digest tree, default
      {!Mstore.default_buckets}). [async_flush] (Merkle only) stages
      committed writes into the digest from a flusher domain fed by the
      executor's [on_flush] stream, overlapping execution — effective when
      the executor streams mid-block (Block-STM with [rolling_commit], or
      lanes); otherwise the delta is folded synchronously after the block,
      same roots either way.

      [retain_outputs] bounds chain history: only the newest N commits keep
      their [outputs] arrays (roots and metrics are kept forever).

      [hash_loc]/[hash_value] parameterize the flat digests and default to
      the structural [L.hash]/[V.hash]; the Merkle substrate always uses the
      structural hashes. *)
  let create ?(hash_loc = L.hash) ?(hash_value = V.hash) ?(store = `Flat)
      ?merkle_buckets ?retain_outputs ?(async_flush = false) ~executor
      ~(genesis : Store.t) () : 'o t =
    (match retain_outputs with
    | Some w when w < 0 ->
        invalid_arg "Chain.create: retain_outputs must be >= 0"
    | _ -> ());
    let state =
      match store with
      | `Flat -> S_flat (Store.copy genesis)
      | `Merkle -> S_merkle (Mstore.of_store ?buckets:merkle_buckets genesis)
    in
    if async_flush && store = `Flat then
      invalid_arg "Chain.create: async_flush requires the merkle store";
    {
      executor;
      state;
      height = 0;
      commits = [];
      hash_loc;
      hash_value;
      retain_outputs;
      async_flush;
    }

  let height t = t.height

  (** The flat view of the current state (the Merkle substrate's base
      tier). Treat as read-only: direct mutation desynchronizes the
      authenticated digest. *)
  let state t =
    match t.state with S_flat s -> s | S_merkle m -> Mstore.base m

  (** The Merkle substrate, when this chain uses one — exposed so tests can
      check the incremental root against {!Mstore.recompute_root}. *)
  let merkle_state t =
    match t.state with S_flat _ -> None | S_merkle m -> Some m

  let commits t = List.rev t.commits
  let last_commit t = match t.commits with [] -> None | c :: _ -> Some c

  let state_root t : int64 =
    match t.state with
    | S_flat s ->
        digest ~hash_loc:t.hash_loc ~hash_value:t.hash_value
          (Store.to_alist s)
    | S_merkle m -> Mstore.root m

  let storage_reader t : (L.t, V.t) Intf.storage =
    match t.state with S_flat s -> Store.reader s | S_merkle m -> Mstore.reader m

  let apply_state_delta t (snapshot : (L.t * V.t) list) : unit =
    match t.state with
    | S_flat s -> Store.apply_delta s snapshot
    | S_merkle m ->
        (* Idempotent re-application: bindings the async flusher already
           staged and committed are value-equal no-ops in the digest. *)
        Mstore.apply_delta m snapshot

  (* Bounded history retention: blank the outputs of commits beyond the
     window. The commits list is newest-first, so walk [window] entries,
     then prune until the first already-pruned commit — everything older is
     already pruned (the tail is shared, not copied), keeping the per-block
     cost O(window). *)
  let prune_history t : unit =
    match t.retain_outputs with
    | None -> ()
    | Some window ->
        let rec go i = function
          | [] -> []
          | (c : 'o block_commit) :: rest ->
              if i < window then c :: go (i + 1) rest
              else if not c.outputs_retained then c :: rest
              else
                { c with outputs = [||]; outputs_retained = false }
                :: go (i + 1) rest
        in
        t.commits <- go 0 t.commits

  (* Run the block through the chain's executor over [storage], streaming
     committed writes through [on_flush] where the executor can. *)
  let exec_block ?specs ?on_flush (t : 'o t) ~storage
      (txns : (L.t, V.t, 'o) Txn.t array) =
    match t.executor with
    | Sequential ->
        let r = Seq.run ~storage txns in
        (r.snapshot, r.outputs, None)
    | Block_stm config ->
        let r = Bstm.run ~config ?specs ?on_flush ~storage txns in
        (r.snapshot, r.outputs, Some r.metrics)
    | Lanes { config; partition; namespace } ->
        let specs =
          match specs with
          | Some s -> s
          | None ->
              invalid_arg
                "Chain: the lanes executor needs per-block access specs"
        in
        let r =
          LanesE.run ~config ?loc_namespace:namespace ~partition ~specs
            ?on_flush ~storage txns
        in
        (r.LanesE.snapshot, r.LanesE.outputs, Some r.LanesE.metrics.engine)

  (* Whether the executor flushes committed writes while the block still
     executes. A lazy executor flushes once, at the end, which overlaps
     nothing: its delta is cheaper folded synchronously. *)
  let streams_mid_block = function
    | Block_stm { sched = Optimistic o; _ } -> o.rolling_commit
    | Lanes _ -> true
    | Block_stm { sched = Spec_dag; _ } | Sequential -> false

  let run_executor ?specs (t : 'o t) (txns : (L.t, V.t, 'o) Txn.t array) =
    match t.state with
    | S_merkle m when t.async_flush && streams_mid_block t.executor ->
        (* Digest maintenance overlaps tail execution: the executor's
           committed writes stream (in commit order) into a flusher domain
           that stages them into the Merkle accumulators while later
           transactions still execute. The flusher never touches the base
           tier — workers keep reading start-of-block state — so
           [commit_staged] below runs only after the executor is done. *)
        let fl = Mstore.start_flusher m in
        let r =
          exec_block ?specs ~on_flush:(Mstore.flusher_push fl) t
            ~storage:(Mstore.reader m) txns
        in
        Mstore.stop_flusher fl;
        Mstore.commit_staged m;
        r
    | _ -> exec_block ?specs t ~storage:(storage_reader t) txns

  (** Execute and commit one block. Returns the commit record; the chain
      state advances to the block's post-state. *)
  let execute_block ?specs (t : 'o t) (txns : (L.t, V.t, 'o) Txn.t array) :
      'o block_commit =
    let snapshot, outputs, metrics = run_executor ?specs t txns in
    apply_state_delta t snapshot;
    t.height <- t.height + 1;
    let commit =
      {
        height = t.height;
        txn_count = Array.length txns;
        outputs;
        outputs_retained = true;
        state_root = state_root t;
        delta_root =
          digest ~hash_loc:t.hash_loc ~hash_value:t.hash_value snapshot;
        metrics;
      }
    in
    t.commits <- commit :: t.commits;
    prune_history t;
    commit

  (* ---------------------------------------------------------------------- *)
  (* Digest worker: one long-lived background domain for state maintenance  *)
  (* ---------------------------------------------------------------------- *)

  (* FIFO queue of jobs (closures) executed by a single persistent domain —
     the chain-level mirror of the Merkle store's flusher. The pipelined and
     speculative drivers push every piece of off-critical-path state work
     here (flat-store delta application and whole-state digests, Merkle
     staging / commit_staged / root refreshes) instead of paying a fresh
     [Domain.spawn] per block. Single-threaded by construction: jobs that
     touch the same digest state are serialized by queue order, so the
     drivers reason about ordering, never about data races. *)
  module Dworker = struct
    type t = {
      q : (unit -> unit) Queue.t;
      m : Mutex.t;
      cv : Condition.t;  (** Signaled on push, stop, and job completion. *)
      mutable stopping : bool;
      mutable busy : bool;
      mutable dom : unit Domain.t option;
    }

    let create () : t =
      let t =
        {
          q = Queue.create ();
          m = Mutex.create ();
          cv = Condition.create ();
          stopping = false;
          busy = false;
          dom = None;
        }
      in
      let rec loop () =
        Mutex.lock t.m;
        while Queue.is_empty t.q && not t.stopping do
          Condition.wait t.cv t.m
        done;
        if Queue.is_empty t.q then Mutex.unlock t.m (* stopping, drained *)
        else begin
          let job = Queue.pop t.q in
          t.busy <- true;
          Mutex.unlock t.m;
          job ();
          Mutex.lock t.m;
          t.busy <- false;
          Condition.broadcast t.cv;
          Mutex.unlock t.m;
          loop ()
        end
      in
      t.dom <- Some (Domain.spawn loop);
      t

    let push (t : t) (job : unit -> unit) : unit =
      Mutex.lock t.m;
      Queue.push job t.q;
      Condition.signal t.cv;
      Mutex.unlock t.m

    (* Block until every job pushed so far has completed. *)
    let drain (t : t) : unit =
      Mutex.lock t.m;
      while t.busy || not (Queue.is_empty t.q) do
        Condition.wait t.cv t.m
      done;
      Mutex.unlock t.m

    (* Drain remaining jobs, then join the domain. *)
    let stop (t : t) : unit =
      Mutex.lock t.m;
      t.stopping <- true;
      Condition.signal t.cv;
      Mutex.unlock t.m;
      (match t.dom with Some d -> Domain.join d | None -> ());
      t.dom <- None
  end

  (* Single-assignment root cell, fulfilled by a digest-worker job. *)
  type root_promise = {
    pm : Mutex.t;
    pc : Condition.t;
    mutable pv : int64 option;
  }

  let promise () = { pm = Mutex.create (); pc = Condition.create (); pv = None }

  let fulfill p v =
    Mutex.lock p.pm;
    p.pv <- Some v;
    Condition.broadcast p.pc;
    Mutex.unlock p.pm

  let await p =
    Mutex.lock p.pm;
    while p.pv = None do
      Condition.wait p.pc p.pm
    done;
    let v = match p.pv with Some v -> v | None -> assert false in
    Mutex.unlock p.pm;
    v

  (* A block whose transactions have executed and whose delta is (being)
     folded into the chain state, but whose state root is still cooking on
     the digest worker. *)
  type 'o spending = {
    sp_height : int;
    sp_txn_count : int;
    sp_outputs : 'o Txn.output array;
    sp_delta_root : int64;
    sp_metrics : Bstm.metrics option;
    sp_root : root_promise;
  }

  (* ---------------------------------------------------------------------- *)
  (* Continuous block pipeline (DESIGN.md §14)                              *)
  (* ---------------------------------------------------------------------- *)

  (** How {!execute_stream} overlaps consecutive blocks. *)
  type stream_mode =
    [ `Per_block  (** No overlap: {!execute_block} per block (baseline). *)
    | `Pipelined
      (** Block [h]'s state-root finalization (flat: the whole-state fold;
          Merkle: the digest-tree refresh) runs on the digest worker while
          block [h+1] executes. Commits are identical to [`Per_block]. *)
    | `Speculative
      (** Block [h+1] {e executes} speculatively against block [h]'s
          streaming committed prefix (cross-block speculation, requires a
          Block-STM executor with an [Optimistic] schedule, which runs with
          rolling commit). Commits are identical to [`Per_block]. *) ]

  (** Aggregate statistics of one {!execute_stream} run. *)
  type stream_stats = {
    s_blocks : int;
    s_txns : int;
    s_idle_ns : int;
        (** Wall time the driver spent inside [next] waiting for block
            material (mempool deadline waits, generator time). Also the
            registry counter ["inter_block_idle_ns"]. *)
    s_spec_aborts : int;
        (** [`Speculative] only: validation aborts that happened {e after} a
            block's base was sealed — executions whose speculative reads did
            not survive the final revalidation against the sealed
            predecessor state. Also the counter ["speculation_aborts"]. *)
    s_registry : Metrics.t;
        (** Live registry: the two counters above plus the
            ["mempool_depth"] histogram (one observation per block cut,
            when [queue_depth] is wired). *)
  }

  (** Execute a stream of blocks — [next ()] yields the next block's
      transactions, [None] ends the stream — overlapping consecutive blocks
      according to [mode]. Returns this stream's commits (oldest first) and
      its {!stream_stats}; commits also land on the chain exactly as
      {!execute_block}'s do. [on_block] streams each commit as it
      finalizes. [queue_depth] (typically {!Mempool.depth} partially
      applied) is sampled once per block cut into the ["mempool_depth"]
      histogram.

      Every mode produces identical commits (heights, roots, outputs) —
      byte-for-byte what a [`Per_block] run over the same blocks yields;
      the test suite checks this across executors and substrates.

      [`Speculative] notes: requires [Block_stm] with an [Optimistic]
      schedule; the instances run with rolling commit whatever the config
      says. The executor's [num_domains] is the stream's total worker budget
      (one domain speculates on the next block while the rest finish the
      current one — with [num_domains = 1] speculation degenerates to
      per-block timing).

      [next_specs], called once right after each successful [next], yields
      the block's access specs — required by the [Lanes] executor
      ([`Per_block] and [`Pipelined] only) and by Block-STM configs that
      seed from specs or use [Spec_dag]. *)
  let execute_stream ?(mode : stream_mode = `Per_block) ?on_block ?queue_depth
      ?(next_specs : (unit -> L.t Access_spec.t array option) option)
      (t : 'o t) ~(next : unit -> (L.t, V.t, 'o) Txn.t array option) :
      'o block_commit list * stream_stats =
    let reg = Metrics.create ~max_domains:1 () in
    let c_idle = Metrics.counter reg "inter_block_idle_ns" in
    let c_spec_aborts = Metrics.counter reg "speculation_aborts" in
    let h_depth = Metrics.histogram reg "mempool_depth" in
    let idle_ns = ref 0 and spec_aborts = ref 0 in
    let blocks = ref 0 and ntxns = ref 0 in
    let commits = ref [] in
    (* Record a finalized commit of this stream (the chain list was already
       updated by whoever built the commit). *)
    let emit (c : 'o block_commit) =
      incr blocks;
      ntxns := !ntxns + c.txn_count;
      commits := c :: !commits;
      match on_block with Some f -> f c | None -> ()
    in
    let fetch () =
      let t0 = Trace.now_ns () in
      let b = next () in
      idle_ns := !idle_ns + (Trace.now_ns () - t0);
      (match (b, queue_depth) with
      | Some _, Some d -> Metrics.observe h_depth (d ())
      | _ -> ());
      b
    in
    let fetch_specs () =
      match next_specs with None -> None | Some f -> f ()
    in
    let finish_stream () =
      Metrics.add c_idle !idle_ns;
      Metrics.add c_spec_aborts !spec_aborts;
      ( List.rev !commits,
        {
          s_blocks = !blocks;
          s_txns = !ntxns;
          s_idle_ns = !idle_ns;
          s_spec_aborts = !spec_aborts;
          s_registry = reg;
        } )
    in
    (* Deferred-root commit plumbing shared by `Pipelined and `Speculative:
       resolve the previous block's pending commit (awaiting its root, which
       overlapped the block just executed) and fold it into the chain. *)
    let pending : 'o spending option ref = ref None in
    let resolve () =
      match !pending with
      | None -> ()
      | Some sp ->
          pending := None;
          let c =
            {
              height = sp.sp_height;
              txn_count = sp.sp_txn_count;
              outputs = sp.sp_outputs;
              outputs_retained = true;
              state_root = await sp.sp_root;
              delta_root = sp.sp_delta_root;
              metrics = sp.sp_metrics;
            }
          in
          t.commits <- c :: t.commits;
          prune_history t;
          emit c
    in
    let hash_loc = t.hash_loc and hash_value = t.hash_value in
    match mode with
    | `Per_block ->
        let rec go () =
          match fetch () with
          | None -> finish_stream ()
          | Some txns ->
              emit (execute_block ?specs:(fetch_specs ()) t txns);
              go ()
        in
        go ()
    | `Pipelined -> (
        let dw = Dworker.create () in
        match t.state with
        | S_flat flat ->
            (* The digest worker folds the live store while the next block
               executes — both are pure readers; the driver mutates the
               store only after [resolve] proved the fold finished. *)
            let rec go () =
              match fetch () with
              | None ->
                  resolve ();
                  Dworker.stop dw;
                  finish_stream ()
              | Some txns ->
                  let snapshot, outputs, metrics =
                    run_executor ?specs:(fetch_specs ()) t txns
                  in
                  resolve ();
                  Store.apply_delta flat snapshot;
                  t.height <- t.height + 1;
                  let p = promise () in
                  Dworker.push dw (fun () ->
                      fulfill p
                        (digest ~hash_loc ~hash_value (Store.to_alist flat)));
                  pending :=
                    Some
                      {
                        sp_height = t.height;
                        sp_txn_count = Array.length txns;
                        sp_outputs = outputs;
                        sp_delta_root = digest ~hash_loc ~hash_value snapshot;
                        sp_metrics = metrics;
                        sp_root = p;
                      };
                  go ()
            in
            go ()
        | S_merkle m ->
            (* The overlappable Merkle work is the digest-tree refresh (and,
               with [async_flush], the accumulator staging, which streams to
               the worker during execution). [commit_staged] is NOT
               overlappable — the next block's workers read the base tier —
               so it stays on the critical path; it is table moves only, no
               hashing. FIFO keeps root(h) and block h+1's staging jobs
               race-free on the single worker. *)
            let rec go () =
              match fetch () with
              | None ->
                  Dworker.drain dw;
                  resolve ();
                  Dworker.stop dw;
                  finish_stream ()
              | Some txns ->
                  let specs = fetch_specs () in
                  let snapshot, outputs, metrics =
                    if t.async_flush && streams_mid_block t.executor then
                        (* The executor's committed writes stage on the
                           digest worker: FIFO keeps root(h-1) ahead of
                           block h's staging jobs. *)
                        exec_block ?specs t ~storage:(Mstore.reader m)
                          ~on_flush:(fun batch ->
                            Dworker.push dw (fun () ->
                                Array.iter
                                  (fun (l, v) -> Mstore.stage m l (Some v))
                                  batch))
                          txns
                    else run_executor ?specs t txns
                  in
                  (* Root(h-1) ran before this block's staging jobs (FIFO)
                     and overlapped its execution; after the drain both are
                     settled. *)
                  Dworker.drain dw;
                  resolve ();
                  if Mstore.staged_count m > 0 then Mstore.commit_staged m;
                  apply_state_delta t snapshot;
                  t.height <- t.height + 1;
                  let p = promise () in
                  Dworker.push dw (fun () -> fulfill p (Mstore.root m));
                  pending :=
                    Some
                      {
                        sp_height = t.height;
                        sp_txn_count = Array.length txns;
                        sp_outputs = outputs;
                        sp_delta_root = digest ~hash_loc ~hash_value snapshot;
                        sp_metrics = metrics;
                        sp_root = p;
                      };
                  go ()
            in
            go ())
    | `Speculative ->
        let cfg =
          match t.executor with
          | Block_stm ({ sched = Optimistic _; _ } as c) -> c
          | Block_stm { sched = Spec_dag; _ } | Sequential | Lanes _ ->
              invalid_arg
                "Chain.execute_stream: `Speculative requires a Block_stm \
                 executor with an Optimistic schedule"
        in
        let ndom = cfg.Bstm.num_domains in
        let dw = Dworker.create () in
        let ov = Overlay.create () in
        (* Frozen stream-start state: the immutable tier every speculative
           read bottoms out in. The live store is only touched by the digest
           worker (and read by nobody) until the stream ends. *)
        let frozen = Store.copy (state t) in
        let frozen_read = Store.reader frozen in
        let spawn_worker inst i =
          Domain.spawn (fun () -> Bstm.worker_loop ~worker:i inst)
        in
        (* Build the next block's speculative instance: reads go overlay →
           (wait, if the predecessor advertises a write) → frozen base, all
           stamped with the overlay generation (DESIGN.md §14). *)
        let make_spec ~pred ?specs txns =
          let epoch0 = Overlay.epoch ov in
          let v0 = Overlay.version ov in
          let pending_loc =
            match pred with
            | None -> fun _ -> false
            | Some pinst -> fun loc -> Bstm.pending_location pinst loc
          in
          let probe loc =
            match Overlay.find ov loc with
            | Some v -> Intf.Hit (Some v)
            | None ->
                if pending_loc loc then
                  Intf.Cold
                    (fun () ->
                      match Overlay.wait ov loc ~epoch:epoch0 with
                      | Some v -> Some v
                      | None -> frozen_read loc)
                else Intf.Hit (frozen_read loc)
          in
          let storage loc =
            match probe loc with Intf.Hit v -> v | Intf.Cold f -> f ()
          in
          let on_flush batch =
            Overlay.apply_batch ov batch;
            match t.state with
            | S_merkle m ->
                Dworker.push dw (fun () ->
                    Array.iter (fun (l, v) -> Mstore.stage m l (Some v)) batch)
            | S_flat _ -> ()
          in
          let inst =
            Bstm.create_instance ~config:cfg ~gen:(Overlay.gen ov) ~probe
              ?specs ~storage ~on_flush txns
          in
          (inst, v0)
        in
        (* Wait out the current block (the driver lends itself as a worker),
           finalize it, and hand its state maintenance + root to the digest
           worker. Must run BEFORE the successor's [base_sealed]: FIFO then
           guarantees root(h) sees none of block h+1's writes. *)
        let finish_cur (inst, workers, txn_count, pre_aborts) =
          Bstm.worker_loop inst;
          List.iter Domain.join workers;
          let res = Bstm.finalize inst in
          (match pre_aborts with
          | None -> ()
          | Some pre ->
              let m = res.Bstm.metrics in
              spec_aborts :=
                !spec_aborts + (m.Bstm.validation_aborts - pre));
          let snapshot = res.Bstm.snapshot in
          (match t.state with
          | S_flat s ->
              Dworker.push dw (fun () -> Store.apply_delta s snapshot)
          | S_merkle m ->
              (* Staging jobs for every flushed batch are already queued;
                 commit_staged folds them into the base tier, and the
                 snapshot re-application is an idempotent completeness
                 backstop (equal values: digest no-ops). *)
              Dworker.push dw (fun () -> Mstore.commit_staged m);
              Dworker.push dw (fun () -> Mstore.apply_delta m snapshot));
          t.height <- t.height + 1;
          let p = promise () in
          (match t.state with
          | S_flat s ->
              Dworker.push dw (fun () ->
                  fulfill p (digest ~hash_loc ~hash_value (Store.to_alist s)))
          | S_merkle m -> Dworker.push dw (fun () -> fulfill p (Mstore.root m)));
          resolve ();
          pending :=
            Some
              {
                sp_height = t.height;
                sp_txn_count = txn_count;
                sp_outputs = res.Bstm.outputs;
                sp_delta_root = digest ~hash_loc ~hash_value snapshot;
                sp_metrics = Some res.Bstm.metrics;
                sp_root = p;
              }
        in
        let rec go cur =
          match fetch () with
          | None ->
              (match cur with Some c -> finish_cur c | None -> ());
              Overlay.seal ov;
              resolve ();
              Dworker.stop dw;
              finish_stream ()
          | Some txns ->
              let pred =
                match cur with Some (i, _, _, _) -> Some i | None -> None
              in
              let inst, v0 = make_spec ~pred ?specs:(fetch_specs ()) txns in
              (* One domain starts speculating right away; the rest of the
                 budget joins after the promotion below. *)
              let specd = if ndom >= 2 then [ spawn_worker inst 0 ] else [] in
              (match cur with Some c -> finish_cur c | None -> ());
              Overlay.seal ov;
              (* Promote: the predecessor's stream has fully landed in the
                 overlay. Sample aborts-so-far first — everything after this
                 point is a speculation casualty (the seal-time
                 revalidation), everything before is ordinary intra-block
                 conflict. *)
              let pre =
                match pred with
                | None -> None
                | Some _ ->
                    Some (Bstm.metrics_of inst).Bstm.validation_aborts
              in
              Bstm.base_sealed ~changed:(Overlay.version ov <> v0) inst;
              let extra =
                List.init
                  (max 0 (ndom - 1 - List.length specd))
                  (fun i -> spawn_worker inst (i + 1))
              in
              go (Some (inst, specd @ extra, Array.length txns, pre))
        in
        go None

  (** Execute a sequence of blocks in order and return their commits, oldest
      first. With [pipeline] (default [false]), block [h]'s state-root
      finalization runs on the long-lived digest worker while block [h+1]
      executes (see {!execute_stream}'s [`Pipelined]) — on the flat
      substrate that is the whole-state fold, on the Merkle substrate the
      digest-tree refresh (and, with [async_flush], accumulator staging
      already overlaps execution). Commits (heights, roots, outputs) are
      identical either way. *)
  let execute_blocks ?(pipeline = false) (t : 'o t)
      (blocks : (L.t, V.t, 'o) Txn.t array list) : 'o block_commit list =
    let rem = ref blocks in
    let next () =
      match !rem with
      | [] -> None
      | b :: r ->
          rem := r;
          Some b
    in
    fst
      (execute_stream
         ~mode:(if pipeline then `Pipelined else `Per_block)
         t ~next)

  (** Replica divergence check: do two chains agree on every committed
      root? Returns the height of the first divergence, if any. *)
  let first_divergence (a : 'o t) (b : 'o t) : int option =
    let ra = commits a and rb = commits b in
    let rec scan = function
      | ca :: ta, cb :: tb ->
          if Int64.equal ca.state_root cb.state_root then scan (ta, tb)
          else Some ca.height
      | [], [] -> None
      | ca :: _, [] -> Some ca.height
      | [], cb :: _ -> Some cb.height
    in
    scan (ra, rb)

  let pp_commit ppf (c : 'o block_commit) =
    Fmt.pf ppf "block %d: %d txns%s, state_root=%Lx delta_root=%Lx" c.height
      c.txn_count
      (if c.outputs_retained then "" else " (outputs pruned)")
      c.state_root c.delta_root
end
