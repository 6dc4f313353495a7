(** BOHM baseline (Faleiro & Abadi, VLDB'15), as re-implemented by the paper
    for comparison (Section 4.1).

    BOHM is a deterministic multi-version concurrency-control engine that
    {e assumes the write-set of every transaction is known up front}. Before
    execution, a placeholder entry is inserted into the multi-version store
    for every declared (location, txn) write. Transactions then execute in
    parallel: a read by [tx_j] resolves to the latest lower writer; if that
    writer's placeholder is still unresolved, [tx_j] parks on it and is
    re-run from scratch once the writer finishes — so no aborts and no
    validation are ever needed.

    As in the paper, the comparison is charitable to BOHM: callers provide
    {e perfect} write-sets (unrealistic for smart contracts), and the
    [run] metrics expose the placeholder-construction time separately so the
    execution-only figure the paper reports can be extracted.

    Correctness requires the actual writes of each transaction to be a subset
    of its declared writes; undeclared writes are still applied and counted in
    [undeclared_writes] so tests can detect imperfect estimates. *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  module LTbl = Hashtbl.Make (L)
  module IMap = Map.Make (Int)

  type entry =
    | Placeholder  (** Declared write, transaction not finished yet. *)
    | Value of V.t  (** Materialized write. *)
    | Skip  (** Declared but not actually written: readers look lower. *)

  type cell = { mutex : Mutex.t; mutable versions : entry IMap.t }

  exception Blocked of int

  type t = {
    nshards : int;
    shards : cell LTbl.t array;
    shard_locks : Mutex.t array;
  }

  let create ?(nshards = 64) () =
    {
      nshards;
      shards = Array.init nshards (fun _ -> LTbl.create 64);
      shard_locks = Array.init nshards (fun _ -> Mutex.create ());
    }

  let shard_of t loc = L.hash loc land max_int mod t.nshards

  let find_cell ?(create = false) t loc : cell option =
    let s = shard_of t loc in
    Mutex.lock t.shard_locks.(s);
    let cell =
      match LTbl.find_opt t.shards.(s) loc with
      | Some c -> Some c
      | None ->
          if create then (
            let c = { mutex = Mutex.create (); versions = IMap.empty } in
            LTbl.add t.shards.(s) loc c;
            Some c)
          else None
    in
    Mutex.unlock t.shard_locks.(s);
    cell

  let cell_versions c =
    Mutex.lock c.mutex;
    let v = c.versions in
    Mutex.unlock c.mutex;
    v

  let cell_update c f =
    Mutex.lock c.mutex;
    c.versions <- f c.versions;
    Mutex.unlock c.mutex

  (* Latest materialized value below [txn_idx], skipping [Skip] tombstones.
     Raises [Blocked k] on an unresolved placeholder of transaction [k]. *)
  let read t loc ~txn_idx : V.t option =
    (* [None]: no lower writer (fall through to storage). *)
    match find_cell t loc with
    | None -> None
    | Some cell ->
        let versions = cell_versions cell in
        let rec scan upper =
          match IMap.find_last_opt (fun idx -> idx < upper) versions with
          | None -> None
          | Some (_, Value v) -> Some v
          | Some (idx, Placeholder) -> raise (Blocked idx)
          | Some (idx, Skip) -> scan idx
        in
        scan txn_idx

  type 'o result = {
    snapshot : (L.t * V.t) list;
    outputs : 'o Txn.output array;
    executions : int;  (** Execution attempts (restarts included). *)
    blocked : int;  (** Times a read parked on an unresolved placeholder. *)
    undeclared_writes : int;  (** Writes outside the declared write-set. *)
    prep_ns : int64;  (** Placeholder-construction time (the paper's
                          "write-sets analysis" phase, reported separately). *)
  }

  let run ?(num_domains = 1) ~(storage : (L.t, V.t) Intf.storage)
      ~(declared_writes : L.t array array)
      (txns : (L.t, V.t, 'o) Txn.t array) : 'o result =
    let n = Array.length txns in
    if Array.length declared_writes <> n then
      invalid_arg "Bohm.run: declared_writes length mismatch";
    if num_domains < 1 then invalid_arg "Bohm.run: num_domains must be >= 1";
    let t = create () in
    (* Phase 1: placeholder construction from declared write-sets. *)
    let t0 = Unix.gettimeofday () in
    Array.iteri
      (fun j locs ->
        Array.iter
          (fun loc ->
            match find_cell ~create:true t loc with
            | None -> assert false
            | Some cell -> cell_update cell (IMap.add j Placeholder))
          locs)
      declared_writes;
    let prep_ns =
      Int64.of_float ((Unix.gettimeofday () -. t0) *. 1e9)
    in
    (* Phase 2: parallel execution with dependency parking. *)
    let outputs : 'o Txn.output option array = Array.make n None in
    let waiter_locks = Array.init n (fun _ -> Mutex.create ()) in
    let waiters = Array.make n [] in
    let resolved = Array.make n false in
    let ready_lock = Mutex.create () in
    let ready : int Queue.t = Queue.create () in
    let next = Atomic.make 0 in
    let remaining = Atomic.make n in
    let m_executions = Atomic.make 0 in
    let m_blocked = Atomic.make 0 in
    let m_undeclared = Atomic.make 0 in
    let pop_ready () =
      Mutex.lock ready_lock;
      let r = if Queue.is_empty ready then None else Some (Queue.pop ready) in
      Mutex.unlock ready_lock;
      r
    in
    let push_ready js =
      if js <> [] then (
        Mutex.lock ready_lock;
        List.iter (fun j -> Queue.push j ready) js;
        Mutex.unlock ready_lock)
    in
    let finish j buffered output =
      outputs.(j) <- Some output;
      (* Resolve declared entries: materialize actual writes, tombstone the
         rest; apply undeclared writes too (and count them). *)
      let declared = declared_writes.(j) in
      let seen = LTbl.create (Array.length declared * 2 + 1) in
      Array.iter
        (fun loc ->
          LTbl.replace seen loc ();
          let entry =
            match LTbl.find_opt buffered loc with
            | Some v -> Value v
            | None -> Skip
          in
          match find_cell t loc with
          | None -> assert false
          | Some cell -> cell_update cell (IMap.add j entry))
        declared;
      LTbl.iter
        (fun loc v ->
          if not (LTbl.mem seen loc) then (
            Atomic_util.incr m_undeclared;
            match find_cell ~create:true t loc with
            | None -> assert false
            | Some cell -> cell_update cell (IMap.add j (Value v))))
        buffered;
      (* Wake every transaction parked on us. *)
      Mutex.lock waiter_locks.(j);
      resolved.(j) <- true;
      let ws = waiters.(j) in
      waiters.(j) <- [];
      Mutex.unlock waiter_locks.(j);
      push_ready ws;
      Atomic_util.decr remaining
    in
    let rec attempt j =
      Atomic_util.incr m_executions;
      let buffered : V.t LTbl.t = LTbl.create 8 in
      let read loc =
        match LTbl.find_opt buffered loc with
        | Some v -> Some v
        | None -> (
            match read t loc ~txn_idx:j with
            | Some v -> Some v
            | None -> storage loc)
      in
      let write loc v = LTbl.replace buffered loc v in
      let delta =
        Txn.rmw_delta ~read ~write ~as_counter:V.as_counter
          ~of_counter:V.of_counter
      in
      match txns.(j) { Txn.read; write; delta } with
      | output -> finish j buffered (Txn.Success output)
      | exception Blocked k ->
          Atomic_util.incr m_blocked;
          (* Park on k; double-check under the lock to avoid a lost wakeup. *)
          Mutex.lock waiter_locks.(k);
          if resolved.(k) then (
            Mutex.unlock waiter_locks.(k);
            attempt j)
          else (
            waiters.(k) <- j :: waiters.(k);
            Mutex.unlock waiter_locks.(k))
      | exception e ->
          (* Failed transaction: commits with no writes. *)
          finish j (LTbl.create 0) (Txn.Failed (Printexc.to_string e))
    in
    let worker () =
      while Atomic.get remaining > 0 do
        match pop_ready () with
        | Some j -> attempt j
        | None ->
            let j = Atomic_util.get_and_incr next in
            if j < n then attempt j else Domain.cpu_relax ()
      done
    in
    (if n > 0 then
       let others =
         Array.init (num_domains - 1) (fun _ -> Domain.spawn worker)
       in
       worker ();
       Array.iter Domain.join others);
    (* Snapshot: final value per affected location, in no particular
       order. *)
    let snapshot = ref [] in
    for s = 0 to t.nshards - 1 do
      LTbl.iter
        (fun loc _ ->
          match read t loc ~txn_idx:n with
          | Some v -> snapshot := (loc, v) :: !snapshot
          | None -> ())
        t.shards.(s)
    done;
    {
      snapshot = !snapshot;
      outputs =
        Array.mapi
          (fun j -> function
            | Some o -> o
            | None -> Fmt.failwith "Bohm: transaction %d not finished" j)
          outputs;
      executions = Atomic.get m_executions;
      blocked = Atomic.get m_blocked;
      undeclared_writes = Atomic.get m_undeclared;
      prep_ns;
    }
end
