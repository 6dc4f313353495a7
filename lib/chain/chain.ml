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
    buckets). Both substrates are deterministic functions of the final
    state, so replicas on different substrates still agree with
    {e themselves} — roots are only comparable between replicas using the
    same substrate. *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  module Bstm = Blockstm_core.Block_stm.Make (L) (V)
  module LanesE = Blockstm_lanes.Lanes.Make (L) (V)
  module Seq = Blockstm_baselines.Sequential.Make (L) (V)
  module Store = Blockstm_storage.Memstore.Make (L) (V)
  module Mstore = Blockstm_storage.Merkle.Make (L) (V)
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
    retain_outputs : int option;
        (* Keep full outputs for the newest N commits only. *)
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
      whole-state fold) or [`Merkle] (incremental authenticated roots, with
      {!Mstore.default_buckets} digest buckets).

      [retain_outputs] bounds chain history: only the newest N commits keep
      their [outputs] arrays (roots and metrics are kept forever).

      [hash_loc] hashes locations in the flat digests and defaults to the
      structural [L.hash]; values always hash with [V.hash], and the Merkle
      substrate always uses the structural hashes. *)
  let create ?(hash_loc = L.hash) ?(store = `Flat) ?retain_outputs ~executor
      ~(genesis : Store.t) () : 'o t =
    (match retain_outputs with
    | Some w when w < 0 ->
        invalid_arg "Chain.create: retain_outputs must be >= 0"
    | _ -> ());
    let state =
      match store with
      | `Flat -> S_flat (Store.copy genesis)
      | `Merkle -> S_merkle (Mstore.of_store genesis)
    in
    {
      executor;
      state;
      height = 0;
      commits = [];
      hash_loc;
      retain_outputs;
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
        digest ~hash_loc:t.hash_loc ~hash_value:V.hash (Store.to_alist s)
    | S_merkle m -> Mstore.root m

  let storage_reader t : (L.t, V.t) Intf.storage =
    match t.state with S_flat s -> Store.reader s | S_merkle m -> Mstore.reader m

  let apply_state_delta t (snapshot : (L.t * V.t) list) : unit =
    match t.state with
    | S_flat s -> Store.apply_delta s snapshot
    | S_merkle m -> Mstore.apply_delta m snapshot

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

  (* Run the block through the chain's executor over the current state. *)
  let exec_block ?specs (t : 'o t) (txns : (L.t, V.t, 'o) Txn.t array) =
    let storage = storage_reader t in
    match t.executor with
    | Sequential ->
        let r = Seq.run ~storage txns in
        (r.snapshot, r.outputs, None)
    | Block_stm config ->
        let r = Bstm.run ~config ?specs ~storage txns in
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
            ~storage txns
        in
        (r.LanesE.snapshot, r.LanesE.outputs, Some r.LanesE.metrics.engine)

  (* Advance the height for an executed block whose delta is folded into
     the state, and return its pending commit: forcing it awaits [root],
     then records the commit on the chain. Every stream mode builds its
     commits here, so all of them number and record blocks alike. *)
  let pending_commit (t : 'o t) ~txn_count (snapshot, outputs, metrics)
      ~(root : unit -> int64) : unit -> 'o block_commit =
    t.height <- t.height + 1;
    let height = t.height in
    let delta_root =
      digest ~hash_loc:t.hash_loc ~hash_value:V.hash snapshot
    in
    fun () ->
      let c =
        {
          height;
          txn_count;
          outputs;
          outputs_retained = true;
          state_root = root ();
          delta_root;
          metrics;
        }
      in
      t.commits <- c :: t.commits;
      prune_history t;
      c

  (** Execute and commit one block. Returns the commit record; the chain
      state advances to the block's post-state. *)
  let execute_block ?specs (t : 'o t) (txns : (L.t, V.t, 'o) Txn.t array) :
      'o block_commit =
    let ((snapshot, _, _) as r) = exec_block ?specs t txns in
    apply_state_delta t snapshot;
    let root () = state_root t in
    pending_commit t ~txn_count:(Array.length txns) r ~root ()

  (* ---------------------------------------------------------------------- *)
  (* Digest worker: one long-lived background domain for state maintenance  *)
  (* ---------------------------------------------------------------------- *)

  (* FIFO queue of jobs (closures) executed by a single persistent domain.
     The pipelined stream pushes its off-critical-path state work here (the
     state roots) instead of paying a fresh [Domain.spawn] per block.
     Single-threaded by construction: jobs that touch the same state are
     serialized by queue order, so the stream loop reasons about ordering,
     never about data races.

     A job that raises stops the worker: it runs no further job — no root
     is computed over a half-applied delta — and the next wait on a
     [future] or [stop] re-raises the exception on the caller. *)
  module Dworker = struct
    type t = {
      q : (unit -> unit) Queue.t;
      m : Mutex.t;
      cv : Condition.t;
          (** Broadcast on push, stop and job completion: the worker and
              the callers waiting on a [future] share it. *)
      mutable stopping : bool;
      mutable failed : (exn * Printexc.raw_backtrace) option;
      mutable dom : unit Domain.t option;
    }

    let create () : t =
      let t =
        {
          q = Queue.create ();
          m = Mutex.create ();
          cv = Condition.create ();
          stopping = false;
          failed = None;
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
          Mutex.unlock t.m;
          let failed =
            match job () with
            | () -> None
            | exception e -> Some (e, Printexc.get_raw_backtrace ())
          in
          Mutex.lock t.m;
          t.failed <- failed;
          Condition.broadcast t.cv;
          Mutex.unlock t.m;
          if Option.is_none failed then loop ()
        end
      in
      t.dom <- Some (Domain.spawn loop);
      t

    (* Queue [f] and return a thunk that blocks until [f] has run, returning
       its result. *)
    let future (t : t) (f : unit -> 'a) : unit -> 'a =
      let cell = Atomic.make None in
      Mutex.lock t.m;
      Queue.push (fun () -> Atomic.set cell (Some (f ()))) t.q;
      Condition.broadcast t.cv;
      Mutex.unlock t.m;
      fun () ->
        Mutex.lock t.m;
        while Option.is_none (Atomic.get cell) && Option.is_none t.failed do
          Condition.wait t.cv t.m
        done;
        let failed = t.failed in
        Mutex.unlock t.m;
        match (Atomic.get cell, failed) with
        | Some v, _ -> v
        | None, Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None, None -> assert false

    (* Run the remaining jobs, then join the domain. Idempotent. *)
    let join (t : t) : unit =
      Mutex.lock t.m;
      t.stopping <- true;
      Condition.broadcast t.cv;
      Mutex.unlock t.m;
      Option.iter Domain.join t.dom;
      t.dom <- None

    (* [join], then re-raise the failure of a job, if one failed. *)
    let stop (t : t) : unit =
      join t;
      Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) t.failed
  end

  (* ---------------------------------------------------------------------- *)
  (* Continuous block pipeline (DESIGN.md §14)                              *)
  (* ---------------------------------------------------------------------- *)

  (** How {!execute_stream} overlaps consecutive blocks. *)
  type stream_mode =
    [ `Per_block  (** No overlap: {!execute_block} per block (baseline). *)
    | `Pipelined
      (** Block [h]'s state-root finalization (flat: the whole-state fold;
          Merkle: the digest-tree refresh) runs on the digest worker while
          block [h+1] executes. Commits are identical to [`Per_block]. *) ]

  (** Aggregate statistics of one {!execute_stream} run. *)
  type stream_stats = {
    s_blocks : int;
    s_txns : int;
    s_idle_ns : int;
        (** Wall time the driver spent inside [next] waiting for block
            material (mempool deadline waits, generator time). Also the
            registry counter ["inter_block_idle_ns"]. *)
    s_registry : Metrics.t;
        (** Live registry: the counter above plus the
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

      [next_specs], called once right after each successful [next], yields
      the block's access specs — required by the [Lanes] executor and by
      Block-STM configs that seed from specs or use [Spec_dag].

      An exception raised by state maintenance on the digest worker (e.g.
      from [hash_loc]) stops that worker and is re-raised here; blocks
      after the failed one are not committed. An exception from [next],
      the executor or [on_block] joins the digest worker, then propagates
      unchanged. *)
  let execute_stream ?(mode : stream_mode = `Per_block) ?on_block ?queue_depth
      ?(next_specs : (unit -> L.t Access_spec.t array option) option)
      (t : 'o t) ~(next : unit -> (L.t, V.t, 'o) Txn.t array option) :
      'o block_commit list * stream_stats =
    let reg = Metrics.create ~max_domains:1 () in
    let c_idle = Metrics.counter reg "inter_block_idle_ns" in
    let h_depth = Metrics.histogram reg "mempool_depth" in
    let idle_ns = ref 0 in
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
      ( List.rev !commits,
        { s_blocks = !blocks; s_txns = !ntxns; s_idle_ns = !idle_ns;
          s_registry = reg } )
    in
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
    | `Pipelined ->
        (* The digest worker computes block h's root while block h+1
           executes: the root job writes no state the executor reads (flat:
           a pure fold; Merkle: only the digest arrays). Block h+1's delta
           is folded only after the previous block's pending commit, whose
           root overlapped this block's execution, has resolved. *)
        let dw = Dworker.create () in
        let rec go pending =
          let resolve () = Option.iter (fun c -> emit (c ())) pending in
          match fetch () with
          | None ->
              resolve ();
              Dworker.stop dw;
              finish_stream ()
          | Some txns ->
              let ((snapshot, _, _) as r) =
                exec_block ?specs:(fetch_specs ()) t txns
              in
              resolve ();
              apply_state_delta t snapshot;
              go
                (Some
                   (pending_commit t ~txn_count:(Array.length txns) r
                      ~root:(Dworker.future dw (fun () -> state_root t))))
        in
        (* On the normal path [go] has already stopped the worker; on an
           exception this joins it, so no stream leaves a domain blocked. A
           job's recorded failure does not replace the exception. *)
        Fun.protect ~finally:(fun () -> Dworker.join dw) (fun () -> go None)

  (** Execute a sequence of blocks in order and return their commits, oldest
      first. With [pipeline] (default [false]), block [h]'s state-root
      finalization runs on the long-lived digest worker while block [h+1]
      executes (see {!execute_stream}'s [`Pipelined]) — on the flat
      substrate that is the whole-state fold, on the Merkle substrate the
      digest-tree refresh. Commits (heights, roots, outputs) are identical
      either way. *)
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
