(** Sequential baseline executor: the paper's reference semantics.

    Executes the block one transaction at a time in the preset order; each
    transaction reads its own buffered writes first, then the accumulated
    block overlay, then pre-block storage. A transaction that raises commits
    with an empty write-set ([Failed] output), mirroring the VM error capture
    used by every other executor in the repository.

    Every parallel executor's snapshot and outputs must be extensionally
    equal to this module's — the property the test suite enforces. This
    module's snapshot is sorted by location; every other executor's is in no
    particular order, so snapshots are compared with {!Make.same_snapshot}. *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  module LTbl = Hashtbl.Make (L)

  type 'o result = {
    snapshot : (L.t * V.t) list;
        (** Final value of every location written by the block, sorted. *)
    outputs : 'o Txn.output array;
    reads : int;  (** Total dynamic reads (cost accounting). *)
    writes : int;  (** Total committed writes. *)
  }

  let run ~(storage : (L.t, V.t) Intf.storage)
      (txns : (L.t, V.t, 'o) Txn.t array) : 'o result =
    let overlay : V.t LTbl.t = LTbl.create 1024 in
    let total_reads = ref 0 in
    let total_writes = ref 0 in
    let outputs =
      Array.map
        (fun txn ->
          let buffered : V.t LTbl.t = LTbl.create 8 in
          let read loc =
            incr total_reads;
            match LTbl.find_opt buffered loc with
            | Some v -> Some v
            | None -> (
                match LTbl.find_opt overlay loc with
                | Some v -> Some v
                | None -> storage loc)
          in
          let write loc v = LTbl.replace buffered loc v in
          let delta =
            Txn.rmw_delta ~read ~write ~as_counter:V.as_counter
              ~of_counter:V.of_counter
          in
          match txn { Txn.read; write; delta } with
          | output ->
              LTbl.iter (fun l v -> LTbl.replace overlay l v) buffered;
              total_writes := !total_writes + LTbl.length buffered;
              Txn.Success output
          | exception e -> Txn.Failed (Printexc.to_string e))
        txns
    in
    let snapshot =
      LTbl.fold (fun l v acc -> (l, v) :: acc) overlay []
      |> List.sort (fun (a, _) (b, _) -> L.compare a b)
    in
    { snapshot; outputs; reads = !total_reads; writes = !total_writes }

  (** Do two snapshots bind the same locations to the same values, each in
      whatever order it lists them? Both are sorted by location, then
      compared binding by binding, so lists of different lengths differ. *)
  let same_snapshot (a : (L.t * V.t) list) (b : (L.t * V.t) list) =
    let sort = List.sort (fun (l, _) (l', _) -> L.compare l l') in
    List.equal
      (fun (l, v) (l', v') -> L.equal l l' && V.equal v v')
      (sort a) (sort b)
end
