(** Chain manager: the blockchain context Block-STM runs in.

    State machine replication applies a sequence of blocks; every entity
    executing a block must arrive at the same final state (paper §1). This
    module chains block executions — applying each block's final writes to
    the running state — and computes a deterministic {e state root}
    after every block, so two replicas can compare roots exactly the way
    validators do. The executor is pluggable: Block-STM with any
    configuration, or the sequential baseline, must yield identical roots —
    the repository's end-to-end consensus check.

    The state lives in the authenticated Merkle substrate (DESIGN.md §13):
    a flat {!Store} base tier, which executors read, plus digest buckets
    that fold each block's delta into the root incrementally, touching only
    the affected buckets, so the root update is O(|delta| · log buckets).
    The root is a pure function of the final state, so replicas agree on it
    whatever executor they run. *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  module Bstm = Blockstm_core.Block_stm.Make (L) (V)
  module LanesE = Blockstm_lanes.Lanes.Make (L) (V)
  module Seq = Blockstm_baselines.Sequential.Make (L) (V)
  module Store = Blockstm_storage.Memstore.Make (L) (V)
  module Mstore = Blockstm_storage.Merkle.Make (L) (V)
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
            With more than one lane it requires per-block access specs
            ([execute_block ~specs] / [execute_stream ~next_specs]);
            [partition.lanes = 1] reads none and is operationally identical
            to [Block_stm config]. *)

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
    delta_root : int64;
        (** Digest of just this block's write snapshot: the wrapping sum of
            its bindings' Merkle entry hashes ({!Mstore.apply_delta}), so a
            function of the snapshot as a set. *)
    metrics : Bstm.metrics option;  (** Present for Block-STM execution. *)
  }

  type 'o t = {
    executor : executor;
    state : Mstore.t;
    mutable height : int;
    mutable commits : 'o block_commit list;  (* newest first *)
    retain_outputs : int option;
        (* Keep full outputs for the newest N commits only. *)
  }

  (* FNV-1a-style fold over 64-bit lanes: deterministic, order-sensitive
     (replicas agree only on inputs sorted by location). No chain path
     calls it: it is the state-scale experiment's whole-state yardstick,
     and the digest span of bench/e2e's traced runs, which ignore the
     result. *)
  let fnv_offset = 0xcbf29ce484222325L
  let fnv_prime = 0x100000001b3L

  let mix (h : int64) (x : int) : int64 =
    Int64.mul (Int64.logxor h (Int64.of_int x)) fnv_prime

  let digest ~hash_loc ~hash_value (pairs : (L.t * V.t) list) : int64 =
    List.fold_left
      (fun h (l, v) -> mix (mix h (hash_loc l)) (hash_value v))
      fnv_offset pairs

  (** [create ~executor ~genesis ()] starts a chain whose state is a
      Merkle substrate built from [genesis] in one sweep by
      {!Mstore.of_store} ([genesis] itself is not retained). [store] is
      ignored — the Merkle substrate is the only one — and kept so callers
      that still pass [~store:`Merkle] compile.

      [retain_outputs] bounds chain history: only the newest N commits keep
      their [outputs] arrays (roots and metrics are kept forever). *)
  let create ?store:(_ : [ `Merkle ] option) ?retain_outputs ~executor
      ~(genesis : Store.t) () : 'o t =
    (match retain_outputs with
    | Some w when w < 0 ->
        invalid_arg "Chain.create: retain_outputs must be >= 0"
    | _ -> ());
    {
      executor;
      state = Mstore.of_store genesis;
      height = 0;
      commits = [];
      retain_outputs;
    }

  let height t = t.height

  (** The flat view of the current state (the Merkle substrate's base
      tier). Treat as read-only: direct mutation desynchronizes the
      authenticated digest. *)
  let state t = Mstore.base t.state

  (** The Merkle substrate itself — exposed so tests and the state-scale
      experiment can check the incremental root against
      {!Mstore.recompute_root}. *)
  let merkle_state t = t.state

  let commits t = List.rev t.commits
  let last_commit t = match t.commits with [] -> None | c :: _ -> Some c
  let state_root t : int64 = Mstore.root t.state
  let storage_reader t : (L.t, V.t) Intf.storage = Mstore.reader t.state

  let apply_state_delta t (snapshot : (L.t * V.t) list) : unit =
    ignore (Mstore.apply_delta t.state snapshot)

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

  (** Run one block through [executor] over [storage]: the snapshot, the
      outputs and, for Block-STM and lanes, the engine metrics. It runs the
      executor alone, without the commit tail: {!execute_block} applies a
      sequential or lanes block's snapshot, and commits a Block-STM block
      through {!Bstm.run_into} instead. Benchmarks that time it time the
      executor alone. *)
  let exec_block ?specs (executor : executor) ~storage
      (txns : (L.t, V.t, 'o) Txn.t array) =
    match executor with
    | Sequential ->
        let r = Seq.run ~storage txns in
        (r.snapshot, r.outputs, None)
    | Block_stm config ->
        let r = Bstm.run ~config ~storage txns in
        (r.snapshot, r.outputs, Some r.metrics)
    | Lanes { config; partition; namespace } ->
        let specs =
          match specs with
          | Some s -> s
          | None when partition.lanes = 1 -> [||]
          | None ->
              invalid_arg
                "Chain: the lanes executor needs per-block access specs"
        in
        let r =
          LanesE.run ~config ?loc_namespace:namespace ~partition ~specs
            ~storage txns
        in
        (r.LanesE.snapshot, r.LanesE.outputs, Some r.LanesE.metrics.engine)

  (** Execute and commit one block. Returns the commit record; the chain
      state advances to the block's post-state.

      A Block-STM block commits without a snapshot list: its crew applies
      MVMemory's final writes to the Merkle store by hash parts
      ({!Bstm.run_into}, {!Mstore.apply_part}), and the caller completes the
      staged stores and inserts ({!Mstore.finish_parts}). The sequential and
      lanes executors apply their snapshot in one part
      ({!Mstore.apply_delta}). Either way the delta root is the sum of the
      entry hashes that apply computes.

      If the executor or the commit raises, the exception propagates and
      the chain's height and commits are unchanged. Its state is then
      unchanged only if the executor raised: a part that raised in
      Block-STM's commit job leaves the parts that ran applied to the digest
      buckets and staged in the store, and the block's other writes
      unapplied. So after a raise from the commit, as after a raising
      {!apply_state_delta}, the state is neither the pre- nor the post-state,
      and the chain should be discarded. *)
  let execute_block ?specs (t : 'o t) (txns : (L.t, V.t, 'o) Txn.t array) :
      'o block_commit =
    let storage = storage_reader t in
    let outputs, metrics, delta_root =
      match t.executor with
      | Block_stm config ->
          let state = t.state in
          let outputs, m =
            Bstm.run_into ~config ~storage ~parts:(Mstore.parts state)
              ~apply:(fun part bindings ->
                Mstore.apply_part state ~part bindings)
              txns
          in
          (outputs, Some m, Mstore.finish_parts state)
      | Sequential | Lanes _ ->
          let snapshot, outputs, metrics =
            exec_block ?specs t.executor ~storage txns
          in
          (outputs, metrics, Mstore.apply_delta t.state snapshot)
    in
    t.height <- t.height + 1;
    let c =
      {
        height = t.height;
        txn_count = Array.length txns;
        outputs;
        outputs_retained = true;
        state_root = state_root t;
        delta_root;
        metrics;
      }
    in
    t.commits <- c :: t.commits;
    prune_history t;
    c

  (* ---------------------------------------------------------------------- *)
  (* Block stream (DESIGN.md §14)                                           *)
  (* ---------------------------------------------------------------------- *)

  (** Aggregate statistics of one {!execute_stream} run. *)
  type stream_stats = {
    s_blocks : int;
    s_txns : int;
    s_idle_ns : int;
        (** Wall time the driver spent inside [next] waiting for block
            material (mempool deadline waits, generator time). *)
  }

  (** Execute a stream of blocks, one {!execute_block} per block: [next ()]
      yields the next block's transactions, [None] ends the stream. Returns
      this stream's commits (oldest first) and its {!stream_stats}; the
      commits also land on the chain exactly as {!execute_block}'s do.
      [on_block] receives each commit once its state root is computed.

      [next_specs], called once right after each successful [next], yields
      the block's access specs. Only the [Lanes] executor reads them, and
      with more than one lane requires them.

      An exception from [next], the executor or [on_block] propagates
      unchanged, and the chain keeps exactly the blocks committed before
      it. *)
  let execute_stream ?on_block
      ?(next_specs : (unit -> L.t Access_spec.t array option) option)
      (t : 'o t) ~(next : unit -> (L.t, V.t, 'o) Txn.t array option) :
      'o block_commit list * stream_stats =
    let idle_ns = ref 0 in
    let blocks = ref 0 and ntxns = ref 0 in
    let commits = ref [] in
    let rec go () =
      let t0 = Trace.now_ns () in
      let b = next () in
      idle_ns := !idle_ns + (Trace.now_ns () - t0);
      match b with
      | None ->
          ( List.rev !commits,
            { s_blocks = !blocks; s_txns = !ntxns; s_idle_ns = !idle_ns } )
      | Some txns ->
          let specs = match next_specs with None -> None | Some f -> f () in
          let c = execute_block ?specs t txns in
          incr blocks;
          ntxns := !ntxns + c.txn_count;
          commits := c :: !commits;
          Option.iter (fun f -> f c) on_block;
          go ()
    in
    go ()

  (** Execute a sequence of blocks in order and return their commits, oldest
      first. *)
  let execute_blocks (t : 'o t) (blocks : (L.t, V.t, 'o) Txn.t array list) :
      'o block_commit list =
    List.map (fun b -> execute_block t b) blocks

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
end
