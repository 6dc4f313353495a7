(** Multi-version shared memory (the paper's MVMemory, Algorithms 2–3).

    For each memory location, [data] stores the latest value written per
    transaction index together with the incarnation that wrote it, or an
    [ESTIMATE] marker left behind by an aborted incarnation. A read by
    transaction [j] returns the entry written by the highest transaction
    [i < j] (speculative best guess under the preset serialization order);
    hitting an [ESTIMATE] signals a dependency on the blocking transaction.

    Concurrency (DESIGN.md §9): the read fast path is {e lock-free} — the
    paper's implementation (Section 4) wins against coarse-grained designs
    precisely because reads over the multi-version structure take no locks.
    Locations are found through per-shard open-addressing tables whose slot
    holders and table pointer are published with release stores (readers
    probe with plain [Atomic.get]s; the shard mutex is taken only to insert a
    missing location or to resize). Each location's state is a single
    immutable {e snapshot} record held in one [Atomic.t]: readers do one
    [Atomic.get], writers CAS a rebuilt snapshot. Per-transaction bookkeeping
    ([last_written], [last_reads]) uses RCU-style atomic swaps of immutable
    arrays. *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  module Tbl = Hashtbl.Make (L)
  module IMap = Map.Make (Int)

  type entry =
    | Written of { incarnation : int; value : V.t }
    | Delta of { incarnation : int; delta : Delta.t }
        (** Commutative delta entry (DESIGN.md §12): a bounded increment the
            writing incarnation applied without observing the value. Folded
            onto the highest plain write below it at read-materialization
            time and into the committed base by {!flush_committed}. *)
    | Estimate  (** Placeholder left by an aborted incarnation's write. *)

  (* A location's state: an immutable snapshot swapped atomically. [versions]
     is the version chain; [base] is the committed-base entry — the highest
     committed writer folded out of the chain by [flush_committed], consulted
     when the chain has no entry below the reader. Readers load the whole
     snapshot with one [Atomic.get]; every writer CASes a rebuilt record, so
     [versions] and [base] always change together, atomically. *)
  type snap = { versions : entry IMap.t; base : (Version.t * V.t) option }

  type cell = snap Atomic.t

  let empty_snap = { versions = IMap.empty; base = None }

  (* An occupied hash slot. Immutable: published once in a fresh holder,
     never overwritten (cells persist for the block's lifetime; entries are
     removed inside the cell's snapshot, not from the table). *)
  type slot = { key : L.t; cell : cell }

  (* One shard: an atomically published open-addressing table (size a power
     of two, load factor <= 1/2). The mutex guards inserts and resizes only;
     the lookup hit path never touches it. A resize allocates a fresh table,
     rehashes the (shared) slots into it and publishes the new array — a
     reader still probing the old table sees the same cells, and at worst
     misses a key inserted after its table load, which linearizes the read
     before the insert exactly as the old lock-based lookup did. *)
  type shard = {
    table : slot option Atomic.t array Atomic.t;
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

  (** One read descriptor per (dynamic) read performed by the incarnation. *)
  type read_set = (L.t * Read_origin.t) array

  type write_set = (L.t * V.t) array

  (** Composed commutative delta per location (at most one per incarnation;
      the engine composes repeated ops before recording). *)
  type delta_set = (L.t * Delta.t) array

  type t = {
    nshards : int;
    shards : shard array;
    last_written : L.t array Atomic.t array;
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
       committed prefix already folded into the per-cell [base] entries.
       Guarded by [flush_mutex]; read via {!flushed_upto} without it. *)
    flush_mutex : Mutex.t;
    mutable flushed_upto : int;
  }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 1

  (* Every vacant table slot holds this one never-written holder: a table
     costs a holder only per inserted location, and a fresh table forces no
     minor collection (DESIGN.md §9). *)
  let vacant : slot option Atomic.t = Atomic.make None

  let fresh_table capacity = Array.make capacity vacant

  let create ?(nshards = 64) ?(writes_per_txn = 4) ?(storage = fun _ -> None)
      ~block_size () =
    if block_size < 0 then invalid_arg "Mvmemory.create: negative block_size";
    if nshards <= 0 then invalid_arg "Mvmemory.create: nshards must be > 0";
    if writes_per_txn < 0 then
      invalid_arg "Mvmemory.create: negative writes_per_txn";
    (* Pre-size each shard for the block's estimated distinct locations
       (block_size * writes-per-txn, spread over the shards, at load factor
       1/2) so the common case never pays an insert-path resize. Clamped so a
       huge block doesn't balloon the empty tables. *)
    let est_per_shard = block_size * writes_per_txn / nshards in
    let capacity = min 65536 (next_pow2 (max 16 (2 * est_per_shard))) in
    let per_txn f = Atomic_util.init_array block_size f in
    {
      nshards;
      shards =
        Atomic_util.init_array nshards (fun _ ->
            {
              table = Atomic.make (fresh_table capacity);
              insert_lock = Mutex.create ();
              count = 0;
            });
      last_written = per_txn (fun _ -> Atomic.make [||]);
      last_reads = per_txn (fun _ -> Atomic.make [||]);
      block_size;
      base_storage = storage;
      flush_mutex = Mutex.create ();
      flushed_upto = 0;
    }

  let block_size t = t.block_size
  let nshards t = t.nshards

  let hash_of loc = L.hash loc land max_int

  (* In-shard probe start: remix so it does not correlate with the shard
     selector (both derive from the same hash). *)
  let probe_of h mask = h * 0x9E3779B1 land max_int land mask

  (* Find the slot for [loc]: the lock-free hit path. One atomic load of the
     shard's table pointer, then an open-addressing probe of atomically
     published slots — zero mutex acquisitions. *)
  let find_slot t loc : slot option =
    let h = hash_of loc in
    let shard = t.shards.(h mod t.nshards) in
    let table = Atomic.get shard.table in
    let mask = Array.length table - 1 in
    let rec probe i =
      match Atomic.get table.(i) with
      | None -> None
      | Some s when L.equal s.key loc -> Some s
      | Some _ -> probe ((i + 1) land mask)
    in
    probe (probe_of h mask)

  let find_cell t loc : cell option =
    match find_slot t loc with Some s -> Some s.cell | None -> None

  (* Store [holder] over the first vacant slot from [i], under the shard's
     insert lock; the store is a release ([caml_modify]), so a reader that
     loads the holder sees it initialized. The probe may pass slots another
     insert just published: different keys, re-checked under the lock. *)
  let rec insert_into table mask i holder =
    match Atomic.get table.(i) with
    | None -> table.(i) <- holder
    | Some _ -> insert_into table mask ((i + 1) land mask) holder

  (* Miss path: create the slot under the shard lock (double-checking the
     current table first — another thread may have inserted while we waited),
     resizing at load factor 1/2. *)
  let create_slot t loc : slot =
    let h = hash_of loc in
    let shard = t.shards.(h mod t.nshards) in
    Mutex.lock shard.insert_lock;
    let table = Atomic.get shard.table in
    let mask = Array.length table - 1 in
    let rec refind i =
      match Atomic.get table.(i) with
      | None -> None
      | Some s when L.equal s.key loc -> Some s
      | Some _ -> refind ((i + 1) land mask)
    in
    let slot =
      match refind (probe_of h mask) with
      | Some slot -> slot
      | None ->
          let slot = { key = loc; cell = Atomic.make empty_snap } in
          let table, mask =
            if 2 * (shard.count + 1) > Array.length table then begin
              (* Grow 2x and republish. Holders are shared between old and
                 new tables, so readers of either see the same cells. *)
              let grown = fresh_table (2 * Array.length table) in
              let gmask = Array.length grown - 1 in
              Array.iter
                (fun o ->
                  match Atomic.get o with
                  | None -> ()
                  | Some s ->
                      insert_into grown gmask (probe_of (hash_of s.key) gmask) o)
                table;
              Atomic.set shard.table grown;
              (grown, gmask)
            end
            else (table, mask)
          in
          insert_into table mask (probe_of h mask) (Atomic.make (Some slot));
          shard.count <- shard.count + 1;
          slot
    in
    Mutex.unlock shard.insert_lock;
    slot

  let find_or_create_cell t loc : cell =
    match find_slot t loc with
    | Some s -> s.cell
    | None -> (create_slot t loc).cell

  (* Writer side: CAS a rebuilt snapshot. Retries only on a racing writer to
     the same location. *)
  let rec cell_update (c : cell) (f : snap -> snap) : unit =
    let old = Atomic.get c in
    let next = f old in
    if not (Atomic.compare_and_set c old next) then cell_update c f

  let map_versions f s = { s with versions = f s.versions }

  (* Slow path of [read] for a delta-topped chain (DESIGN.md §12): fold the
     delta nets downward until an anchor — the highest plain write below the
     reader (chain entry, committed base, or pre-block storage; absent
     counts as 0). Integer anchors yield a [Merged] materialized value;
     hitting an ESTIMATE mid-chain is a dependency on it. A non-integer
     anchor under deltas is a transient speculative state (the delta writer
     observed an integer base; its range validation will fail and remove the
     entry): serve the anchor itself so the reader's descriptor converges
     once the bogus delta disappears. Lock-free: pure map lookups over the
     already-loaded snapshot. *)
  let read_delta_chain t (loc : L.t) { versions; base } ~(txn_idx : int) :
      read_result =
    let rec walk idx net =
      match IMap.find_last_opt (fun i -> i < idx) versions with
      | Some (i, Estimate) -> Read_error { blocking_txn_idx = i }
      | Some (i, Delta { delta; _ }) -> walk i (net + delta.Delta.net)
      | Some (i, Written { incarnation; value }) ->
          anchor (Version.make ~txn_idx:i ~incarnation) value net
      | None -> (
          match base with
          | Some (ver, value) when Version.txn_idx ver < idx ->
              anchor ver value net
          | _ -> (
              match t.base_storage loc with
              | Some value -> (
                  match V.as_counter value with
                  | Some b -> Merged { value = b + net }
                  | None -> Not_found (* deltas over non-counter storage *))
              | None -> Merged { value = net } (* absent anchor counts as 0 *)))
    and anchor ver value net =
      match V.as_counter value with
      | Some b -> Merged { value = b + net }
      | None -> Ok (ver, value)
    in
    walk txn_idx 0

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
    | None -> from_storage 0
    | Some s ->
        let { versions; base } = Atomic.get s.cell in
        let anchor value net =
          match V.as_counter value with
          | Some b -> M_int (b + net)
          | None -> M_other
        in
        let rec walk idx net =
          match IMap.find_last_opt (fun i -> i < idx) versions with
          | Some (_, Estimate) -> M_blocked
          | Some (i, Delta { delta; _ }) -> walk i (net + delta.Delta.net)
          | Some (_, Written { value; _ }) -> anchor value net
          | None -> (
              match base with
              | Some (ver, value) when Version.txn_idx ver < idx ->
                  anchor value net
              | _ -> from_storage net)
        in
        walk txn_idx 0

  (* Algorithm 3, [read]: entry by the highest transaction index < txn_idx.
     Lock-free: one atomic snapshot load, then pure map lookups. The
     committed base is only consulted when the chain has no entry below the
     reader: flushed entries are always lower than every unflushed chain
     entry (the flush removes the whole committed prefix per location), so
     chain-first preserves the highest-lower-writer rule. The base keeps the
     exact version of the flushed write, so read descriptors — and therefore
     validation — are unchanged by a flush. A chain topped by a delta entry
     takes the [read_delta_chain] slow path, which folds nets down to the
     anchoring plain write and answers [Merged]. *)
  let read t (loc : L.t) ~(txn_idx : int) : read_result =
    match find_slot t loc with
    | None -> Not_found
    | Some s -> (
        let ({ versions; base } as snap) = Atomic.get s.cell in
        match IMap.find_last_opt (fun idx -> idx < txn_idx) versions with
        | Some (idx, Estimate) -> Read_error { blocking_txn_idx = idx }
        | Some (idx, Written { incarnation; value }) ->
            Ok (Version.make ~txn_idx:idx ~incarnation, value)
        | Some (_, Delta _) -> read_delta_chain t loc snap ~txn_idx
        | None -> (
            match base with
            | Some (version, value) when Version.txn_idx version < txn_idx ->
                Ok (version, value)
            | _ -> Not_found))

  (* Algorithm 2, [apply_write_set]. *)
  let apply_write_set t ~txn_idx ~incarnation (write_set : write_set) : unit =
    Array.iter
      (fun (loc, value) ->
        cell_update
          (find_or_create_cell t loc)
          (map_versions (IMap.add txn_idx (Written { incarnation; value }))))
      write_set

  (* Delta analogue of [apply_write_set] (DESIGN.md §12). *)
  let apply_delta_set t ~txn_idx ~incarnation (delta_set : delta_set) : unit =
    Array.iter
      (fun (loc, delta) ->
        cell_update
          (find_or_create_cell t loc)
          (map_versions (IMap.add txn_idx (Delta { incarnation; delta }))))
      delta_set

  let remove_entry t (loc : L.t) ~txn_idx : unit =
    match find_cell t loc with
    | None -> ()
    | Some cell -> cell_update cell (map_versions (IMap.remove txn_idx))

  (* Algorithm 2, [rcu_update_written_locations]: replace the transaction's
     recorded write locations, removing stale entries; report whether a
     location was written that the previous incarnation did not write. *)
  let rcu_update_written_locations t ~txn_idx (new_locations : L.t array) :
      bool =
    let prev_locations = Atomic.get t.last_written.(txn_idx) in
    let in_new = Tbl.create (Array.length new_locations * 2 + 1) in
    Array.iter (fun l -> Tbl.replace in_new l ()) new_locations;
    Array.iter
      (fun l -> if not (Tbl.mem in_new l) then remove_entry t l ~txn_idx)
      prev_locations;
    let in_prev = Tbl.create (Array.length prev_locations * 2 + 1) in
    Array.iter (fun l -> Tbl.replace in_prev l ()) prev_locations;
    Atomic.set t.last_written.(txn_idx) new_locations;
    Array.exists (fun l -> not (Tbl.mem in_prev l)) new_locations

  (* Algorithm 2, [record]: returns [wrote_new_location]. [deltas] publishes
     commutative delta entries alongside the plain writes; their locations
     join the recorded written set, so abort conversion, stale-entry removal
     and the commit flush cover them uniformly. *)
  let record ?(deltas = ([||] : delta_set)) t (version : Version.t)
      (read_set : read_set) (write_set : write_set) : bool =
    let txn_idx = Version.txn_idx version in
    let incarnation = Version.incarnation version in
    apply_write_set t ~txn_idx ~incarnation write_set;
    apply_delta_set t ~txn_idx ~incarnation deltas;
    let new_locations =
      Array.append (Array.map fst write_set) (Array.map fst deltas)
    in
    let wrote_new = rcu_update_written_locations t ~txn_idx new_locations in
    Atomic.set t.last_reads.(txn_idx) read_set;
    wrote_new

  (* Algorithm 2, [convert_writes_to_estimates]: called on abort. *)
  let convert_writes_to_estimates t (txn_idx : int) : unit =
    let prev_locations = Atomic.get t.last_written.(txn_idx) in
    Array.iter
      (fun loc ->
        match find_cell t loc with
        | None -> assert false (* entry was written by [record] *)
        | Some cell ->
            cell_update cell (map_versions (IMap.add txn_idx Estimate)))
      prev_locations

  (** Ablation variant of abort handling (§3.2.1: "removing the entries can
      also accomplish this"): drop the aborted incarnation's entries instead
      of leaving ESTIMATE markers, so no dependency information survives. *)
  let remove_written_entries t (txn_idx : int) : unit =
    let prev_locations = Atomic.get t.last_written.(txn_idx) in
    Array.iter (fun loc -> remove_entry t loc ~txn_idx) prev_locations;
    Atomic.set t.last_written.(txn_idx) [||]

  (** Seed ESTIMATE markers from a declared (estimated) write-set before the
      first incarnation runs (§7 future-work: write-set pre-estimation).
      Recorded as the transaction's last written locations so that the first
      [record] clears whatever the incarnation did not actually write. *)
  let prefill_estimates t (txn_idx : int) (locs : L.t array) : unit =
    Array.iter
      (fun loc ->
        cell_update
          (find_or_create_cell t loc)
          (map_versions (IMap.add txn_idx Estimate)))
      locs;
    Atomic.set t.last_written.(txn_idx) locs

  (* One read descriptor's validity against the current state (Algorithm 3
     per-entry check). Version descriptors compare re-read descriptors; the
     delta descriptors (DESIGN.md §12) are predicates on the materialized
     integer base — [Range] passes while the base stays inside the bounds
     the delta was applied under, which is what lets concurrent deltas on
     one location revalidate without aborting each other. *)
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
    | Storage | Mv _ -> (
        match (read t loc ~txn_idx, origin) with
        | Read_error _, _ -> false (* previously read something, now ESTIMATE *)
        | Not_found, Storage -> true
        | Not_found, _ -> false (* entry disappeared *)
        | Ok (v, _), Mv v' -> Version.equal v v'
        | Ok _, _ -> false (* a lower transaction now wrote here *)
        | Merged _, _ -> false (* plain read, now delta-topped *))

  (* Algorithm 3, [validate_read_set]: re-read every location in the last
     recorded read-set and compare descriptors. *)
  let validate_read_set t (txn_idx : int) : bool =
    let prior_reads = Atomic.get t.last_reads.(txn_idx) in
    Array.for_all
      (fun (loc, origin) -> validate_origin t loc ~txn_idx origin)
      prior_reads

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
          (fun o ->
            match Atomic.get o with None -> () | Some s -> acc := f !acc s)
          (Atomic.get shard.table))
      t.shards;
    !acc

  (* Algorithm 3, [snapshot]: final value for every affected location; called
     after the block commits. One pass over the cells: the chain's top entry
     is the highest writer, a delta-topped chain materializes through
     [read_delta_chain], and an empty chain falls back to the flushed base. *)
  let snapshot t : (L.t * V.t) list =
    fold_slots t ~init:[] ~f:(fun acc { key; cell } ->
        let ({ versions; base } as snap) = Atomic.get cell in
        match IMap.max_binding_opt versions with
        | Some (_, Written { value; _ }) -> (key, value) :: acc
        | Some (_, Delta _) -> (
            match read_delta_chain t key snap ~txn_idx:t.block_size with
            | Ok (_, value) -> (key, value) :: acc
            | Merged { value } -> (key, V.of_counter value) :: acc
            | Not_found -> acc
            | Read_error _ -> assert false)
        | Some (_, Estimate) -> assert false (* all resolved by commit *)
        | None -> (
            match base with
            | Some (_, value) -> (key, value) :: acc
            | None -> acc))
    |> List.sort (fun (a, _) (b, _) -> L.compare a b)

  (* --- Rolling-commit flush ---------------------------------------------- *)

  (** Fold the committed prefix [0, upto) into the per-location committed
      base and prune those entries from the version chains, shrinking
      {!entry_count} as the prefix advances. Only call with [upto] at most
      the scheduler's committed prefix: flushed transactions must be final
      (their last incarnation recorded, no ESTIMATEs, never re-executed).
      Thread-safe and idempotent — concurrent calls serialize on an internal
      mutex and each prefix index is flushed exactly once. Reads above the
      committed prefix observe identical results before, during and after a
      flush (same value, same version descriptor): each per-cell base
      promotion is a single snapshot CAS, so no reader ever sees the entry
      both gone from the chain and absent from the base. *)
  let flush_committed t ~(upto : int) : unit =
    if upto < 0 || upto > t.block_size then
      invalid_arg "Mvmemory.flush_committed: upto out of range";
    Mutex.lock t.flush_mutex;
    for j = t.flushed_upto to upto - 1 do
      (* [last_written] is final for a committed transaction. Ascending [j]
         keeps the base at the highest committed writer per location. *)
      Array.iter
        (fun loc ->
          match find_cell t loc with
          | None -> assert false (* entry was written by [record] *)
          | Some cell ->
              cell_update cell (fun s ->
                  match IMap.find_opt j s.versions with
                  | Some (Written { incarnation; value }) ->
                      {
                        versions = IMap.remove j s.versions;
                        base =
                          Some (Version.make ~txn_idx:j ~incarnation, value);
                      }
                  | Some (Delta { incarnation; delta }) ->
                      (* Commit fold (DESIGN.md §12): ascending [j] has
                         already folded every lower committed write into the
                         base, so the delta's anchor is the current base (or
                         pre-block storage; absent counts as 0). A committed
                         delta passed range validation, so the anchor is an
                         integer and the sum is within bounds. *)
                      let b =
                        match s.base with
                        | Some (_, v) -> V.as_counter v
                        | None -> (
                            match t.base_storage loc with
                            | Some v -> V.as_counter v
                            | None -> Some 0)
                      in
                      let b =
                        match b with
                        | Some b -> b
                        | None ->
                            assert false
                            (* committed delta implies integer anchor *)
                      in
                      {
                        versions = IMap.remove j s.versions;
                        base =
                          Some
                            ( Version.make ~txn_idx:j ~incarnation,
                              V.of_counter (b + delta.Delta.net) );
                      }
                  | Some Estimate ->
                      (* A committed transaction has no unresolved
                         estimates. *)
                      assert false
                  | None -> s))
        (Atomic.get t.last_written.(j))
    done;
    if upto > t.flushed_upto then t.flushed_upto <- upto;
    Mutex.unlock t.flush_mutex

  (** Prefix length already folded into the committed base. *)
  let flushed_upto t : int = t.flushed_upto

  (** Diagnostic: number of version entries currently stored. *)
  let entry_count t : int =
    fold_slots t ~init:0 ~f:(fun acc s ->
        acc + IMap.cardinal (Atomic.get s.cell).versions)
end
