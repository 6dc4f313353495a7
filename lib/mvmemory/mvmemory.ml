(** Multi-version shared memory (the paper's MVMemory, Algorithms 2–3).

    For each memory location, [data] stores the latest value written per
    transaction index together with the version that wrote it, or an
    [ESTIMATE] marker left behind by an aborted incarnation. A read by
    transaction [j] returns the entry written by the highest transaction
    [i < j] (speculative best guess under the preset serialization order);
    hitting an [ESTIMATE] signals a dependency on the blocking transaction.

    Concurrency (DESIGN.md §9): the read fast path is {e lock-free} — the
    paper's implementation (Section 4) wins against coarse-grained designs
    precisely because reads over the multi-version structure take no locks.
    Locations are found through per-shard open-addressing tables of
    immutable slots, each published with a release store; the table pointer
    is an [Atomic.t]. Readers probe with plain loads; the shard mutex is
    taken only to insert a missing location or to resize. Each location's
    version chain is an immutable list, sorted by descending transaction
    index, held in one [Atomic.t]: readers do one [Atomic.get] and skip
    down it by jump pointers; a writer replacing its entry stores into the
    node and republishes the chain with a copy of its head, and one
    inserting or removing a node CASes a chain that rebuilds the nodes
    above it. Per-transaction
    bookkeeping ([last_written], [last_reads]) uses RCU-style atomic swaps
    of immutable values.

    The read, plain-validation and record paths allocate no closure, option
    or hash table: lookups are top-level recursive functions that return the
    slot or chain node they found. *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  (* Plain writes and deltas carry the version of the incarnation that
     wrote them, so reads and the flush hand it out without building one. *)
  type entry =
    | Written of { version : Version.t; value : V.t }
    | Delta of { version : Version.t; delta : Delta.t }
        (** Commutative delta entry (DESIGN.md §12): a bounded increment the
            writing incarnation applied without observing the value. Folded
            onto the highest plain write below it at read-materialization
            time, and rewritten as a plain write by {!flush_committed}. *)
    | Estimate  (** Placeholder left by an aborted incarnation's write. *)
    | Flushed of { version : Version.t; value : V.t }
        (** A kept node's write once the flush keeps a higher writer: a
            fold that passes a delta above it still anchors on it, but a
            read that finds it first — one at or below the flushed prefix —
            finds nothing. *)

  (* A location's version chain (DESIGN.md §9): a list sorted by descending
     transaction index, so a write above the top conses one node. [len]
     counts the nodes from this one down, and [jump] skips to a node below
     chosen from [len] (skew-binary jump pointers), so a lookup takes
     O(log a) steps for a nodes above its target. Only [e] is mutable: the
     writer of [idx] replaces its entry in place (see [put]). Lookups return
     the node they found, or [Empty], so they allocate nothing. *)
  type chain =
    | Empty
    | Node of {
        idx : int; mutable e : entry; next : chain; len : int; jump : chain }

  let len_of = function Empty -> 0 | Node { len; _ } -> len
  let jump_of = function Empty -> Empty | Node { jump; _ } -> jump

  (* The node [idx] with entry [e] on top of [next]. Its jump skips as far
     as [next]'s jump and that node's jump together when those two spans
     are equal, and to [next] otherwise. *)
  let cons idx e next =
    let j = jump_of next in
    let jump =
      if len_of next - len_of j = len_of j - len_of (jump_of j) then jump_of j
      else next
    in
    Node { idx; e; next; len = len_of next + 1; jump }

  (* The first node with an index below [bound], or [Empty]. Indices fall
     down the list, so a jump to a node still at or above [bound] passes
     only nodes at or above it. *)
  let rec below bound = function
    | Node { idx; next; jump; _ } when idx >= bound -> (
        match jump with
        | Node { idx = j; _ } when j >= bound -> below bound jump
        | _ -> below bound next)
    | found -> found

  (* The node at [idx], or [Empty]. *)
  let find idx chain =
    match below (idx + 1) chain with
    | Node { idx = i; _ } as found when i = idx -> found
    | _ -> Empty

  (* [chain] with its nodes from [idx] down replaced by [tail]: the nodes
     above [idx] are rebuilt on [tail], with their entries as read now, and
     every node below them is shared. *)
  let rec graft idx tail = function
    | Node n when n.idx > idx -> cons n.idx n.e (graft idx tail n.next)
    | _ -> tail

  (* [chain] with a fresh copy of its head node: publishing it fails every
     CAS that expects [chain]. *)
  let touch = function Node n -> Node { n with len = n.len } | Empty -> Empty

  (* A location's state: its version chain, swapped atomically. Once the
     rolling flush has passed a writer of the location, the highest flushed
     writer is the kept node, a plain [Written] entry, with only [Flushed]
     entries below it (see [flush_committed]); every node above it belongs
     to an unflushed transaction. *)
  type cell = chain Atomic.t

  (* A table slot. An occupied slot is immutable, built whole before the
     release store that publishes it, and never overwritten (cells persist
     for the block's lifetime; entries are removed inside the cell's
     chain, not from the table). [hash] is [key]'s, so a probe compares
     it before calling [L.equal] and a resize never rehashes. *)
  type slot = Vacant | Slot of { key : L.t; hash : int; cell : cell }

  (* One shard: an atomically published open-addressing table (size a power
     of two, load factor <= 1/2). The mutex guards inserts and resizes only;
     the lookup hit path never touches it. A resize allocates a fresh table,
     copies the (shared) slots into it and publishes the new array — a
     reader still probing the old table sees the same cells, and at worst
     misses a key inserted after its table load, which linearizes the read
     before the insert exactly as the old lock-based lookup did. *)
  type shard = {
    table : slot array Atomic.t;
    insert_lock : Mutex.t;
    mutable count : int;  (** Occupied slots; guarded by [insert_lock]. *)
  }

  type read_result =
    | Ok of Version.t * V.t
        (** Value written by the highest lower transaction, with its version. *)
    | Merged of { value : int }
        (** The chain below the reader is topped by delta entries: the
            materialized integer (anchor plus folded nets). Version-free —
            the caller records a [Counter] descriptor. *)
    | Not_found  (** No lower transaction wrote here: read from storage. *)
    | Read_error of { blocking_txn_idx : int }
        (** Hit an [ESTIMATE]: dependency on [blocking_txn_idx]. *)

  (** One read descriptor per (dynamic) read performed by the incarnation,
      as two arrays of the same length: read [i] is at [locs.(i)] with
      provenance [origins.(i)], so a read keeps no tuple of its own. *)
  type read_set = { locs : L.t array; origins : Read_origin.t array }

  let empty_read_set = { locs = [||]; origins = [||] }

  type write_set = (L.t * V.t) array

  (** Composed commutative delta per location (at most one per incarnation;
      the engine composes repeated ops before recording). *)
  type delta_set = (L.t * Delta.t) array

  type t = {
    shard_bits : int;  (** log2 of the shard count, a power of two. *)
    shard_mask : int;  (** The shard count minus one. *)
    shards : shard array;
    last_written : L.t array Atomic.t array;
        (** Per transaction: the locations of its last written set. Index
            [j] has a chain entry exactly at these locations until the
            flush passes [j]; [record] relies on it. *)
    last_reads : read_set Atomic.t array;
    block_size : int;
    base_storage : L.t -> V.t option;
        (** Pre-block storage, consulted only when materializing a
            delta-carrying location whose chain has no plain write below the
            reader (constant during the block, so baking it into
            materialization is sound). [fun _ -> None] when the instance is
            created without [?storage] — fine as long as no delta entries
            are ever published. *)
    (* Rolling-commit flush state: [flushed_upto] is the length of the
       committed prefix already flushed. Guarded by [flush_mutex]; read via
       {!flushed_upto} without it. *)
    flush_mutex : Mutex.t;
    mutable flushed_upto : int;
  }

  (* The least [b] with [2^b >= n]. *)
  let ceil_log2 n =
    let rec go b = if 1 lsl b >= n then b else go (b + 1) in
    go 0

  (* [Vacant] is an immediate, so a fresh table holds no pointer and forces
     no minor collection (DESIGN.md §9). *)
  let fresh_table capacity = Array.make capacity Vacant

  let create ?(nshards = 64) ?(writes_per_txn = 4) ?(storage = fun _ -> None)
      ~block_size () =
    if block_size < 0 then invalid_arg "Mvmemory.create: negative block_size";
    if nshards <= 0 then invalid_arg "Mvmemory.create: nshards must be > 0";
    if writes_per_txn < 0 then
      invalid_arg "Mvmemory.create: negative writes_per_txn";
    let shard_bits = ceil_log2 nshards in
    let nshards = 1 lsl shard_bits in
    (* Pre-size each shard for the block's estimated distinct locations
       (block_size * writes-per-txn, spread over the shards, at load factor
       1/2) so the common case never pays an insert-path resize. Clamped so a
       huge block doesn't balloon the empty tables. *)
    let est_per_shard = block_size * writes_per_txn / nshards in
    let capacity = min 65536 (1 lsl ceil_log2 (max 16 (2 * est_per_shard))) in
    let per_txn f = Atomic_util.init_array block_size f in
    {
      shard_bits;
      shard_mask = nshards - 1;
      shards =
        Atomic_util.init_array nshards (fun _ ->
            {
              table = Atomic.make (fresh_table capacity);
              insert_lock = Mutex.create ();
              count = 0;
            });
      last_written = per_txn (fun _ -> Atomic.make [||]);
      last_reads = per_txn (fun _ -> Atomic.make empty_read_set);
      block_size;
      base_storage = storage;
      flush_mutex = Mutex.create ();
      flushed_upto = 0;
    }

  let block_size t = t.block_size
  let nshards t = t.shard_mask + 1

  let hash_of loc = L.hash loc land max_int

  (* In-shard probe start: the hash bits just above the shard selector. The
     selector bits are the same for every key of a shard, so a start drawn
     from them (or from a product whose low bits depend only on them) would
     pile the shard's keys onto a few runs. *)
  let probe_of t h mask = (h lsr t.shard_bits) land mask

  (* Open-addressing probe from [i]: the slot holding [loc], or [Vacant].
     Top-level so a lookup allocates no closure; the stored hash is compared
     before the (indirect) [L.equal]. *)
  let rec probe table mask h loc i =
    match table.(i) with
    | Vacant -> Vacant
    | Slot s as slot ->
        if s.hash = h && L.equal s.key loc then slot
        else probe table mask h loc ((i + 1) land mask)

  (* Find the slot for [loc]: the lock-free hit path. One atomic load of the
     shard's table pointer, then plain loads of published slots — zero mutex
     acquisitions. *)
  let find_slot t loc : slot =
    let h = hash_of loc in
    let table = Atomic.get t.shards.(h land t.shard_mask).table in
    let mask = Array.length table - 1 in
    probe table mask h loc (probe_of t h mask)

  (* Store [slot] over the first vacant entry from [i], under the shard's
     insert lock; the store is a release ([caml_modify]), so a reader that
     loads the slot sees it initialized. *)
  let rec insert_into table mask i slot =
    match table.(i) with
    | Vacant -> table.(i) <- slot
    | Slot _ -> insert_into table mask ((i + 1) land mask) slot

  (* Miss path: create the slot under the shard lock (probing the current
     table again first — another thread may have inserted while we waited),
     resizing at load factor 1/2. *)
  let create_cell t loc : cell =
    let h = hash_of loc in
    let shard = t.shards.(h land t.shard_mask) in
    Mutex.lock shard.insert_lock;
    let table = Atomic.get shard.table in
    let mask = Array.length table - 1 in
    let cell =
      match probe table mask h loc (probe_of t h mask) with
      | Slot { cell; _ } -> cell
      | Vacant ->
          let cell = Atomic.make Empty in
          let table, mask =
            if 2 * (shard.count + 1) > Array.length table then begin
              (* Grow 2x and republish. Slots are shared between old and new
                 tables, so readers of either see the same cells. *)
              let grown = fresh_table (2 * Array.length table) in
              let gmask = Array.length grown - 1 in
              Array.iter
                (function
                  | Vacant -> ()
                  | Slot { hash; _ } as s ->
                      insert_into grown gmask (probe_of t hash gmask) s)
                table;
              Atomic.set shard.table grown;
              (grown, gmask)
            end
            else (table, mask)
          in
          insert_into table mask (probe_of t h mask)
            (Slot { key = loc; hash = h; cell });
          shard.count <- shard.count + 1;
          cell
    in
    Mutex.unlock shard.insert_lock;
    cell

  let find_or_create_cell t loc : cell =
    match find_slot t loc with
    | Slot { cell; _ } -> cell
    | Vacant -> create_cell t loc

  (* The cell of a location in a written set. [record] created its slot,
     and slots are never removed. *)
  let written_cell t loc : cell =
    match find_slot t loc with Slot { cell; _ } -> cell | Vacant -> assert false

  (* Writer side. [put] publishes [e] at [idx], replacing any entry there,
     and answers whether there was none. An insertion CASes a rebuilt
     chain. A replacement stores into the node — only index [idx]'s
     incarnation adds, replaces or removes its node — and then CASes the
     chain with a copy of its head: a writer that rebuilt the node before
     the store fails its own CAS and rebuilds it again, so the store is not
     lost. Both retry only on a racing writer to the same location. *)
  let rec put (cell : cell) idx e : bool =
    let old = Atomic.get cell in
    match below (idx + 1) old with
    | Node n when n.idx = idx ->
        n.e <- e;
        if Atomic.compare_and_set cell old (touch old) then false
        else put cell idx e
    | at ->
        Atomic.compare_and_set cell old (graft idx (cons idx e at) old)
        || put cell idx e

  (* Remove the entry at [idx], unless incarnation [keep] wrote it (pass -1
     to remove any entry). *)
  let rec drop (cell : cell) idx ~keep : unit =
    let old = Atomic.get cell in
    match find idx old with
    | Empty -> ()
    | Node { e = Written { version; _ } | Delta { version; _ }; _ }
      when Version.incarnation version = keep ->
        ()
    | Node { next; _ } ->
        if not (Atomic.compare_and_set cell old (graft idx next old)) then
          drop cell idx ~keep

  (* Slow path of [read] for a delta-topped chain (DESIGN.md §12): fold the
     delta nets from [top], the node below the reader, down the list until
     an anchor — the highest plain write below the reader (a chain entry,
     possibly the flush's kept node, or pre-block storage; absent counts as
     0). Integer anchors yield a [Merged] materialized value; hitting an
     ESTIMATE mid-chain is a dependency on it. A non-integer anchor under
     deltas is a transient speculative state (the delta writer observed an
     integer base; its range validation will fail and remove the entry):
     serve the anchor itself so the reader's descriptor converges once the
     bogus delta disappears. Lock-free: one pass down the already-loaded
     chain, one node per delta, each entry read as the walk reaches it. *)
  let read_delta_chain t (loc : L.t) (top : chain) : read_result =
    let rec walk net = function
      | Node { idx; e = Estimate; _ } -> Read_error { blocking_txn_idx = idx }
      | Node { e = Delta { delta; _ }; next; _ } ->
          walk (net + delta.Delta.net) next
      | Node { e = Written { version; value } | Flushed { version; value }; _ }
        -> (
          match V.as_counter value with
          | Some b -> Merged { value = b + net }
          | None -> Ok (version, value))
      | Empty -> (
          match t.base_storage loc with
          | Some value -> (
              match V.as_counter value with
              | Some b -> Merged { value = b + net }
              | None -> Not_found (* deltas over non-counter storage *))
          | None -> Merged { value = net } (* absent anchor counts as 0 *))
    in
    walk 0 top

  (* Materialized integer base of [loc] as seen by [txn_idx] (DESIGN.md
     §12): the value of the highest plain write below it plus the nets of
     the delta entries above that write. Used to validate the delta
     descriptors ([Range] / [Counter] / [Not_counter]), whose validity is a
     predicate on this integer rather than on a version. *)
  type materialized =
    | M_int of int  (** Integer base (an absent location counts as 0). *)
    | M_other  (** The anchor holds a non-integer value. *)
    | M_blocked  (** An ESTIMATE interrupts the chain. *)

  let materialize t (loc : L.t) ~(txn_idx : int) : materialized =
    let from_storage net =
      match t.base_storage loc with
      | None -> M_int net
      | Some v -> (
          match V.as_counter v with Some b -> M_int (b + net) | None -> M_other)
    in
    match find_slot t loc with
    | Vacant -> from_storage 0
    | Slot { cell; _ } ->
        let rec walk net = function
          | Node { e = Estimate; _ } -> M_blocked
          | Node { e = Delta { delta; _ }; next; _ } ->
              walk (net + delta.Delta.net) next
          | Node { e = Written { value; _ } | Flushed { value; _ }; _ } -> (
              match V.as_counter value with
              | Some b -> M_int (b + net)
              | None -> M_other)
          | Empty -> from_storage net
        in
        match below txn_idx (Atomic.get cell) with
        | Node { e = Flushed _; _ } -> from_storage 0
        | top -> walk 0 top

  (* Algorithm 3, [read], over one loaded chain: the entry by the highest
     transaction index < txn_idx. The flush's kept node is an ordinary
     [Written] entry with the exact version of the flushed write, so read
     descriptors — and therefore validation — are unchanged by a flush. A
     chain topped by a delta entry takes the [read_delta_chain] slow path,
     which folds nets down to the anchoring plain write and answers
     [Merged]. *)
  let read_chain t loc (versions : chain) ~txn_idx : read_result =
    match below txn_idx versions with
    | Node { e = Written { version; value }; _ } -> Ok (version, value)
    | Node { idx; e = Estimate; _ } -> Read_error { blocking_txn_idx = idx }
    | Node { e = Delta _; _ } as top -> read_delta_chain t loc top
    | Node { e = Flushed _; _ } | Empty -> Not_found

  (* Lock-free: one atomic chain load, then pure lookups. A hit allocates
     only the [Ok] block; a miss allocates nothing. *)
  let read t (loc : L.t) ~(txn_idx : int) : read_result =
    match find_slot t loc with
    | Vacant -> Not_found
    | Slot { cell; _ } -> read_chain t loc (Atomic.get cell) ~txn_idx

  (* Algorithm 2, [apply_write_set], with the delta entries (DESIGN.md §12)
     beside the plain writes: publish them all, store their locations in
     [locations] (writes first), and report whether index [txn_idx] had no
     entry at one of them — by the [last_written] invariant, whether one is
     missing from the previous written set. *)
  let apply_write_set t (version : Version.t) (write_set : write_set)
      (deltas : delta_set) (locations : L.t array) : bool =
    let txn_idx = Version.txn_idx version in
    let nw = Array.length write_set in
    let wrote_new = ref false in
    for i = 0 to nw - 1 do
      let loc, value = write_set.(i) in
      locations.(i) <- loc;
      if put (find_or_create_cell t loc) txn_idx (Written { version; value })
      then wrote_new := true
    done;
    for i = 0 to Array.length deltas - 1 do
      let loc, delta = deltas.(i) in
      locations.(nw + i) <- loc;
      if put (find_or_create_cell t loc) txn_idx (Delta { version; delta })
      then wrote_new := true
    done;
    !wrote_new

  (* Algorithm 2, [record]: returns [wrote_new_location]. [deltas] publishes
     commutative delta entries alongside the plain writes; their locations
     join the recorded written set, so abort conversion, stale-entry removal
     and the commit flush cover them uniformly. Algorithm 2's
     [rcu_update_written_locations] needs no set operations here: after the
     publish, a location of the previous written set holds this
     incarnation's entry iff the incarnation wrote it, so every other one is
     stale. *)
  let record ?(deltas = ([||] : delta_set)) t (version : Version.t)
      (read_set : read_set) (write_set : write_set) : bool =
    let txn_idx = Version.txn_idx version in
    let n = Array.length write_set + Array.length deltas in
    let locations =
      if n = 0 then [||]
      else
        Array.make n
          (if Array.length write_set > 0 then fst write_set.(0)
           else fst deltas.(0))
    in
    let wrote_new = apply_write_set t version write_set deltas locations in
    let prev = Atomic.get t.last_written.(txn_idx) in
    let keep = Version.incarnation version in
    for i = 0 to Array.length prev - 1 do
      drop (written_cell t prev.(i)) txn_idx ~keep
    done;
    Atomic.set t.last_written.(txn_idx) locations;
    Atomic.set t.last_reads.(txn_idx) read_set;
    wrote_new

  (* Algorithm 2, [convert_writes_to_estimates]: called on abort. *)
  let convert_writes_to_estimates t (txn_idx : int) : unit =
    Array.iter
      (fun loc -> ignore (put (written_cell t loc) txn_idx Estimate))
      (Atomic.get t.last_written.(txn_idx))

  (** Ablation variant of abort handling (§3.2.1: "removing the entries can
      also accomplish this"): drop the aborted incarnation's entries instead
      of leaving ESTIMATE markers, so no dependency information survives. *)
  let remove_written_entries t (txn_idx : int) : unit =
    Array.iter
      (fun loc -> drop (written_cell t loc) txn_idx ~keep:(-1))
      (Atomic.get t.last_written.(txn_idx));
    Atomic.set t.last_written.(txn_idx) [||]

  let is_version (origin : Read_origin.t) version =
    match origin with Mv v -> Version.equal v version | _ -> false

  let is_storage (origin : Read_origin.t) =
    match origin with Storage -> true | _ -> false

  (* A [Storage] or [Mv] descriptor checked in place against the entry below
     the reader, without building a [read_result]: it passes iff [read]
     would answer [Not_found] for [Storage], or [Ok] with the same version
     for [Mv]. A delta-topped chain takes [read_delta_chain]'s path. *)
  let validate_plain t (loc : L.t) ~txn_idx (origin : Read_origin.t) : bool =
    match find_slot t loc with
    | Vacant -> is_storage origin
    | Slot { cell; _ } -> (
        match below txn_idx (Atomic.get cell) with
        | Node { e = Written { version; _ }; _ } -> is_version origin version
        | Node { e = Estimate; _ } -> false
        | Node { e = Delta _; _ } as top -> (
            match read_delta_chain t loc top with
            | Ok (version, _) -> is_version origin version
            | Not_found -> is_storage origin
            | Merged _ | Read_error _ -> false)
        | Node { e = Flushed _; _ } | Empty -> is_storage origin)

  (* One read descriptor's validity against the current state (Algorithm 3
     per-entry check). Version descriptors must re-read the same outcome;
     the delta descriptors (DESIGN.md §12) are predicates on the
     materialized integer base — [Range] passes while the base stays inside
     the bounds the delta was applied under, which is what lets concurrent
     deltas on one location revalidate without aborting each other. *)
  let validate_origin t (loc : L.t) ~(txn_idx : int)
      (origin : Read_origin.t) : bool =
    match origin with
    | Range { rlo; rhi } -> (
        match materialize t loc ~txn_idx with
        | M_int b -> b >= rlo && b <= rhi
        | M_other | M_blocked -> false)
    | Counter c -> (
        match materialize t loc ~txn_idx with
        | M_int b -> b = c
        | M_other | M_blocked -> false)
    | Not_counter -> (
        match materialize t loc ~txn_idx with
        | M_other -> true
        | M_int _ | M_blocked -> false)
    | Storage | Mv _ -> validate_plain t loc ~txn_idx origin

  (* Reads [i..] of a read set, walked over its two arrays in step. *)
  let rec validate_from t txn_idx locs origins i =
    i = Array.length locs
    || validate_origin t locs.(i) ~txn_idx origins.(i)
       && validate_from t txn_idx locs origins (i + 1)

  (* Algorithm 3, [validate_read_set]: re-read every location in the last
     recorded read-set and compare descriptors. *)
  let validate_read_set t (txn_idx : int) : bool =
    let { locs; origins } = Atomic.get t.last_reads.(txn_idx) in
    validate_from t txn_idx locs origins 0

  (** Last recorded read-set of [txn_idx] (RCU load). Used by the paper's
      re-execution optimization (Section 4): check prior reads for ESTIMATEs
      before paying for a full VM re-execution. *)
  let last_read_set t (txn_idx : int) : read_set =
    Atomic.get t.last_reads.(txn_idx)

  (** Locations written by the last finished incarnation of [txn_idx]. *)
  let written_locations t (txn_idx : int) : L.t array =
    Atomic.get t.last_written.(txn_idx)

  (* Fold over every published slot (lock-free: tables only ever gain
     slots, and a republished table carries every slot of its
     predecessor). *)
  let fold_slots t ~init ~f =
    let acc = ref init in
    Array.iter
      (fun shard ->
        Array.iter
          (function
            | Vacant -> () | Slot { key; cell; _ } -> acc := f !acc key cell)
          (Atomic.get shard.table))
      t.shards;
    !acc

  (* The snapshot's scratch, one per domain and reused across blocks
     (DESIGN.md §9): the bindings' keys and values in index order, and two
     [int] arrays for the merge sort of their permutation. All four grow by
     doubling and live in the major heap once large, so a block allocates
     none of them; [snapshot] clears [keys] and [vals] after each use, so
     they keep no location or value alive between blocks. The placeholder
     is an immediate, so neither array takes the float layout. *)
  type snap_scratch = {
    mutable keys : L.t array;
    mutable vals : V.t array;
    mutable perm : int array;
    mutable tmp : int array;
  }

  let snap_key =
    Domain.DLS.new_key (fun () ->
        { keys = [||]; vals = [||]; perm = [||]; tmp = [||] })

  let vacant_key : L.t = Obj.magic 0
  let vacant_val : V.t = Obj.magic 0

  (* Room for [n] bindings in [sc]. *)
  let reserve (sc : snap_scratch) n =
    let cap = Array.length sc.keys in
    if n > cap then begin
      let cap = Int.max n (2 * cap) in
      sc.keys <- Array.make cap vacant_key;
      sc.vals <- Array.make cap vacant_val;
      sc.perm <- Array.make cap 0;
      sc.tmp <- Array.make cap 0
    end

  (* Merge the sorted runs [src.(lo..mid)] and [src.(mid..hi)] of indices
     into [keys] into [dst.(lo..hi)]; a tie takes the left run first. *)
  let merge keys (src : int array) (dst : int array) lo mid hi =
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      if
        !j >= hi
        || (!i < mid && L.compare keys.(src.(!i)) keys.(src.(!j)) <= 0)
      then begin
        dst.(k) <- src.(!i);
        incr i
      end
      else begin
        dst.(k) <- src.(!j);
        incr j
      end
    done

  (* Stable bottom-up merge sort of [perm.(0..n)] by the keys the entries
     index, ping-ponging with [tmp]: the array that holds the sorted
     permutation. *)
  let sort_perm keys perm tmp n =
    let src = ref perm and dst = ref tmp and width = ref 1 in
    while !width < n do
      let lo = ref 0 in
      while !lo < n do
        let mid = Int.min (!lo + !width) n
        and hi = Int.min (!lo + (2 * !width)) n in
        merge keys !src !dst !lo mid hi;
        lo := hi
      done;
      let s = !src in
      src := !dst;
      dst := s;
      width := 2 * !width
    done;
    !src

  (* [f key v] for the final value [v] of [cell]'s location [key], if it
     has one. The top entry is what [read_chain] would answer at
     [block_size], taken without building its [read_result]; only a
     delta-topped chain goes through it. *)
  let final_binding t key (cell : cell) f =
    match below t.block_size (Atomic.get cell) with
    | Node { e = Written { value; _ }; _ } -> f key value
    | Node { e = Delta _; _ } as top -> (
        match read_delta_chain t key top with
        | Ok (_, value) -> f key value
        | Merged { value } -> f key (V.of_counter value)
        | Not_found -> ()
        | Read_error _ -> assert false (* all resolved by commit *))
    | Node { e = Estimate; _ } -> assert false (* all resolved by commit *)
    | Node { e = Flushed _; _ } | Empty -> ()

  (* The per-shard read-out: [f] on the final binding of every location of
     shard [s], in table order. It reads published slots and chains only,
     so domains may read out distinct shards, or the same one, at once. *)
  let iter_shard t s f =
    let table = Atomic.get t.shards.(s).table in
    for i = 0 to Array.length table - 1 do
      match table.(i) with
      | Vacant -> ()
      | Slot { key; cell; _ } -> final_binding t key cell f
    done

  (* Algorithm 3, [snapshot]: final value for every affected location; called
     after the block commits. Every shard's read-out into the domain's
     scratch, then a merge sort of their permutation, and the list consed
     last: the result is all it allocates, a tuple and a cons cell per
     binding, besides one closure. *)
  let snapshot t : (L.t * V.t) list =
    let sc = Domain.DLS.get snap_key in
    reserve sc
      (Array.fold_left (fun acc shard -> acc + shard.count) 0 t.shards);
    let n = ref 0 in
    let put key value =
      sc.keys.(!n) <- key;
      sc.vals.(!n) <- value;
      incr n
    in
    for s = 0 to Array.length t.shards - 1 do
      iter_shard t s put
    done;
    let n = !n in
    for i = 0 to n - 1 do
      sc.perm.(i) <- i
    done;
    let sorted = sort_perm sc.keys sc.perm sc.tmp n in
    let acc = ref [] in
    for i = n - 1 downto 0 do
      let p = sorted.(i) in
      acc := (sc.keys.(p), sc.vals.(p)) :: !acc
    done;
    Array.fill sc.keys 0 n vacant_key;
    Array.fill sc.vals 0 n vacant_val;
    !acc

  (* --- Rolling-commit flush ---------------------------------------------- *)

  (* Flush index [j]'s entry in [cell]: it becomes the location's kept node,
     in place, and the previous kept node — the first entry below [j],
     since every lower committed writer was flushed first — becomes
     [Flushed]. A [Delta] entry is rewritten as the [Written] value it
     materializes to: a delta flushed later anchors on it, and a reader
     above [j] gets the same answer, with the same version, as through the
     delta. Like [put]'s replacement, the stores are published by a CAS of
     the chain, on every retry once anything was stored ([stored]); that
     CAS also cuts the nodes below [j] off, which rebuilds the nodes above
     it, once they outnumber those, so each flushed entry pays for at most
     one rebuilt node (DESIGN.md §9). *)
  let rec flush_entry ?(stored = false) t (loc : L.t) (cell : cell) j : unit =
    let old = Atomic.get cell in
    match find j old with
    | Empty -> ()
    | Node n ->
        let rewritten =
          match n.e with
          | Delta { version; delta } ->
            (* Commit fold (DESIGN.md §12): the anchor is the previous kept
               node, or pre-block storage (absent counts as 0). A committed
               delta passed range validation, so the anchor is an integer
               and the sum is within bounds. *)
              let anchor =
                match n.next with
                | Node { e = Written { value; _ } | Flushed { value; _ }; _ }
                  ->
                    V.as_counter value
                | Node _ -> assert false (* kept nodes are plain writes *)
                | Empty -> (
                    match t.base_storage loc with
                    | Some v -> V.as_counter v
                    | None -> Some 0)
              in
              let b =
                match anchor with
                | Some b -> b
                | None -> assert false (* committed delta, integer anchor *)
              in
              n.e <-
                Written { version; value = V.of_counter (b + delta.Delta.net) };
              true
          | Written _ | Flushed _ -> false
          | Estimate ->
              (* A committed transaction has no unresolved estimates. *)
              assert false
        in
        let retired =
          match n.next with
          | Node ({ e = Written { version; value }; _ } as p) ->
              p.e <- Flushed { version; value };
              true
          | _ -> false
        in
        let stored = stored || rewritten || retired in
        let chain =
          if len_of n.next > len_of old - n.len then
            graft j (cons j n.e Empty) old
          else if stored then touch old
          else old
        in
        if chain != old && not (Atomic.compare_and_set cell old chain) then
          flush_entry ~stored t loc cell j

  (** Flush the committed prefix [0, upto): per location, keep the highest
      committed writer as the location's kept node (a delta rewritten as
      the plain value it materializes to) and retire the committed entries
      below it, shrinking {!entry_count} as the prefix advances. Only call with
      [upto] at most the scheduler's committed prefix: flushed transactions
      must be final (their last incarnation recorded, no ESTIMATEs, never
      re-executed). Thread-safe and idempotent — concurrent calls serialize
      on an internal mutex and each prefix index is flushed exactly once.
      Reads above the committed prefix observe identical results before,
      during and after a flush (same value, same version descriptor): each
      per-cell step is a single chain CAS. *)
  let flush_committed t ~(upto : int) : unit =
    if upto < 0 || upto > t.block_size then
      invalid_arg "Mvmemory.flush_committed: upto out of range";
    Mutex.lock t.flush_mutex;
    for j = t.flushed_upto to upto - 1 do
      (* [last_written] is final for a committed transaction. Ascending [j]
         keeps each location's kept node at its highest committed writer. *)
      Array.iter
        (fun loc -> flush_entry t loc (written_cell t loc) j)
        (Atomic.get t.last_written.(j))
    done;
    if upto > t.flushed_upto then t.flushed_upto <- upto;
    Mutex.unlock t.flush_mutex

  (** Prefix length already flushed. *)
  let flushed_upto t : int = t.flushed_upto

  (* [acc] plus the nodes of a chain that are not [Flushed], less the kept
     node: the first node below [flushed]. *)
  let rec unflushed flushed acc = function
    | Node { idx; next; _ } when idx >= flushed ->
        unflushed flushed (acc + 1) next
    | Node { next; _ } -> below_kept acc next
    | Empty -> acc

  and below_kept acc = function
    | Node { e = Flushed _; next; _ } -> below_kept acc next
    | Node { next; _ } -> below_kept (acc + 1) next
    | Empty -> acc

  (** Diagnostic: number of version entries currently stored, less each
      chain's kept node (its first node below the flushed prefix) and the
      [Flushed] entries below it. After a flush that retired correctly,
      that is the entries of unflushed transactions; a flushed entry left
      unretired below the kept node still counts. *)
  let entry_count t : int =
    fold_slots t ~init:0 ~f:(fun acc _ cell ->
        unflushed t.flushed_upto acc (Atomic.get cell))
end
