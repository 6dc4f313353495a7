(** Sharded execution lanes — see the interface for the contract and
    DESIGN.md §16 for the full correctness argument.

    The implementation has three layers:

    - {e classify}: decide per transaction, from its access spec, whether it
      is confined to one lane. The block's exact-write set [W] is computed
      first; only accessed locations in [W] pin a transaction to a lane, so
      read-only data (on-chain config every transaction touches) stays
      neutral.
    - {e plan}: greedy left-to-right batching. A batch accumulates per-lane
      sub-blocks and parked cross-lane stragglers; it closes when a
      single-lane transaction conflicts with a parked straggler (the
      reorder would become observable).
    - {e run}: per batch, one independent Block-STM instance per non-empty
      lane over a shared read-only overlay of everything committed so far,
      executed on a divided domain budget; then the stragglers sequentially
      in preset order; then the batch's writes merge into the overlay and
      the batch's contiguous preset range streams through [on_commit]. *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  module Bstm = Blockstm_core.Block_stm.Make (L) (V)
  module Seq = Blockstm_baselines.Sequential.Make (L) (V)
  module LTbl = Hashtbl.Make (L)

  type partition = { lanes : int; loc_lane : L.t -> int }
  type assignment = Lane of int | Cross

  type batch = {
    lo : int;
    hi : int;
    lane_txns : int array array;
    stragglers : int array;
  }

  type plan = {
    part : partition;
    assignment : assignment array;
    batches : batch list;
    lane_txn_counts : int array;
    cross_lane_txns : int;
  }

  let lane_of (part : partition) (loc : L.t) : int =
    let l = part.loc_lane loc in
    if l < 0 || l >= part.lanes then
      Fmt.invalid_arg "Lanes: loc_lane returned %d (lanes = %d)" l part.lanes;
    l

  (* The block's exact-write set W: every location some transaction's exact
     write entry names. Locations outside W are read-only for the whole
     block (sound specs), so they cannot order transactions and are ignored
     by lane assignment. *)
  let write_set (specs : L.t Access_spec.t array) : unit LTbl.t =
    let w = LTbl.create 1024 in
    Array.iter
      (fun (s : L.t Access_spec.t) ->
        List.iter
          (fun l -> if not (LTbl.mem w l) then LTbl.add w l ())
          (Access_spec.exact_locs s.Access_spec.writes))
      specs;
    w

  let classify (part : partition) (specs : L.t Access_spec.t array) :
      assignment array =
    if part.lanes < 1 then invalid_arg "Lanes: lanes must be >= 1";
    let w = write_set specs in
    Array.mapi
      (fun i (s : L.t Access_spec.t) ->
        if not (Access_spec.all_exact s) then Cross
        else begin
          (* Lane set of the footprint restricted to W. *)
          let lane = ref (-1) in
          let cross = ref false in
          let visit l =
            if LTbl.mem w l then begin
              let k = lane_of part l in
              if !lane = -1 then lane := k
              else if !lane <> k then cross := true
            end
          in
          List.iter visit (Access_spec.exact_locs s.Access_spec.reads);
          List.iter visit (Access_spec.exact_locs s.Access_spec.writes);
          if !cross then Cross
          else if !lane >= 0 then Lane !lane
          else
            (* Touches nothing the block writes: independent of everything,
               balanced round-robin. *)
            Lane (i mod part.lanes)
        end)
      specs

  let plan ?namespace (part : partition)
      (specs : L.t Access_spec.t array) : plan =
    let n = Array.length specs in
    let assignment = classify part specs in
    let lane_txn_counts = Array.make part.lanes 0 in
    let cross_lane_txns = ref 0 in
    let batches = ref [] in
    (* Current batch under construction (indices in reverse). *)
    let cur_lanes = Array.make part.lanes [] in
    let cur_strag = ref [] in
    let cur_lo = ref 0 in
    let cur_empty = ref true in
    let close hi =
      if not !cur_empty then begin
        batches :=
          {
            lo = !cur_lo;
            hi;
            lane_txns =
              Array.map (fun l -> Array.of_list (List.rev l)) cur_lanes;
            stragglers = Array.of_list (List.rev !cur_strag);
          }
          :: !batches;
        Array.fill cur_lanes 0 part.lanes [];
        cur_strag := [];
        cur_empty := true
      end;
      cur_lo := hi
    in
    let conflicts_parked i =
      List.exists
        (fun s ->
          Access_spec.conflict ~equal:L.equal ?namespace specs.(i) specs.(s))
        !cur_strag
    in
    for i = 0 to n - 1 do
      match assignment.(i) with
      | Lane l ->
          lane_txn_counts.(l) <- lane_txn_counts.(l) + 1;
          (* A parked straggler executes after the whole batch's lane phase;
             appending a conflicting later transaction to a lane would make
             that reorder observable — close the batch instead. *)
          if !cur_strag <> [] && conflicts_parked i then close i;
          cur_lanes.(l) <- i :: cur_lanes.(l);
          cur_empty := false
      | Cross ->
          incr cross_lane_txns;
          cur_strag := i :: !cur_strag;
          cur_empty := false
    done;
    close n;
    {
      part;
      assignment;
      batches = List.rev !batches;
      lane_txn_counts;
      cross_lane_txns = !cross_lane_txns;
    }

  type lane_metrics = {
    lanes : int;
    batches : int;
    cross_lane_txns : int;
    lane_txn_counts : int array;
    imbalance : float;
    engine : Bstm.metrics;
  }

  let zero_engine_metrics : Bstm.metrics =
    {
      incarnations = 0;
      dependency_aborts = 0;
      validations = 0;
      validation_aborts = 0;
      prevalidation_skips = 0;
      commits = 0;
      delta_applies = 0;
    }

  let add_engine_metrics (a : Bstm.metrics) (b : Bstm.metrics) : Bstm.metrics
      =
    {
      incarnations = a.incarnations + b.incarnations;
      dependency_aborts = a.dependency_aborts + b.dependency_aborts;
      validations = a.validations + b.validations;
      validation_aborts = a.validation_aborts + b.validation_aborts;
      prevalidation_skips = a.prevalidation_skips + b.prevalidation_skips;
      commits = a.commits + b.commits;
      delta_applies = a.delta_applies + b.delta_applies;
    }

  let imbalance_of ~lanes (counts : int array) : float =
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then 0.
    else
      let mx = Array.fold_left max 0 counts in
      float_of_int mx *. float_of_int lanes /. float_of_int total

  let lane_config (config : Bstm.config) ~lanes : Bstm.config =
    if lanes < 1 then invalid_arg "Lanes.lane_config: lanes must be >= 1";
    { config with Bstm.num_domains = max 1 (config.Bstm.num_domains / lanes) }

  type 'o result = {
    snapshot : (L.t * V.t) list;
    outputs : 'o Txn.output array;
    metrics : lane_metrics;
  }

  let subset (arr : 'a array) (idxs : int array) : 'a array =
    Array.map (fun i -> arr.(i)) idxs

  let run ?(config = Bstm.default_config) ?loc_namespace ?on_commit ?trace_for
      ~(partition : partition) ~(specs : L.t Access_spec.t array)
      ~(storage : (L.t, V.t) Intf.storage)
      (txns : (L.t, V.t, 'o) Txn.t array) : 'o result =
    let n = Array.length txns in
    if Array.length specs <> n then
      invalid_arg "Lanes.run: specs length mismatch";
    if partition.lanes < 1 then invalid_arg "Lanes.run: lanes must be >= 1";
    let trace_for = Option.value trace_for ~default:(fun _ -> None) in
    if partition.lanes = 1 then begin
      (* Strict passthrough: the unmodified engine, caller's config. *)
      let r =
        Bstm.run ~config ?trace:(trace_for 0) ?on_commit ~storage txns
      in
      {
        snapshot = r.Bstm.snapshot;
        outputs = r.Bstm.outputs;
        metrics =
          {
            lanes = 1;
            batches = 1;
            cross_lane_txns = 0;
            lane_txn_counts = [| n |];
            imbalance = (if n = 0 then 0. else 1.);
            engine = r.Bstm.metrics;
          };
      }
    end
    else begin
      let pl = plan ?namespace:loc_namespace partition specs in
      let lane_cfg = lane_config config ~lanes:partition.lanes in
      (* Everything committed by earlier batches; lane instances share it
         read-only during a batch (mutation happens only between phases). *)
      let overlay : V.t LTbl.t = LTbl.create 1024 in
      let read_overlay loc =
        match LTbl.find_opt overlay loc with
        | Some v -> Some v
        | None -> storage loc
      in
      let outputs : 'o Txn.output option array = Array.make n None in
      let engine = ref zero_engine_metrics in
      (* Writes of the batch in flight: lane snapshots land here during the
         lane phase (lanes write disjoint locations), stragglers layer on
         top, and the whole delta merges into [overlay] only when the batch
         completes. *)
      let batch_delta : V.t LTbl.t = LTbl.create 256 in
      let read_batch loc =
        match LTbl.find_opt batch_delta loc with
        | Some v -> Some v
        | None -> read_overlay loc
      in
      let exec_lane_phase (b : batch) =
        let jobs =
          Array.of_list
            (List.filteri
               (fun _ (_, idxs) -> Array.length idxs > 0)
               (List.mapi (fun l idxs -> (l, idxs))
                  (Array.to_list b.lane_txns)))
        in
        let results = Array.make (Array.length jobs) None in
        let work k =
          let lane, idxs = jobs.(k) in
          let r =
            Bstm.run ~config:lane_cfg ?trace:(trace_for lane)
              ~storage:read_overlay (subset txns idxs)
          in
          results.(k) <- Some r
        in
        let doms =
          Array.init
            (max 0 (Array.length jobs - 1))
            (fun k -> Domain.spawn (fun () -> work (k + 1)))
        in
        if Array.length jobs > 0 then work 0;
        Array.iter Domain.join doms;
        Array.iteri
          (fun k r ->
            let _, idxs = jobs.(k) in
            match r with
            | None -> failwith "Lanes: lane instance produced no result"
            | Some (r : 'o Bstm.result) ->
                List.iter
                  (fun (l, v) -> LTbl.replace batch_delta l v)
                  r.Bstm.snapshot;
                Array.iteri
                  (fun j o -> outputs.(idxs.(j)) <- Some o)
                  r.Bstm.outputs;
                engine := add_engine_metrics !engine r.Bstm.metrics)
          results
      in
      (* The parked stragglers, sequentially in preset order, over the
         batch's lane writes. *)
      let exec_stragglers (b : batch) =
        let r = Seq.run ~storage:read_batch (subset txns b.stragglers) in
        List.iter (fun (l, v) -> LTbl.replace batch_delta l v) r.Seq.snapshot;
        Array.iteri
          (fun j o -> outputs.(b.stragglers.(j)) <- Some o)
          r.Seq.outputs
      in
      List.iter
        (fun (b : batch) ->
          exec_lane_phase b;
          exec_stragglers b;
          LTbl.iter (fun l v -> LTbl.replace overlay l v) batch_delta;
          LTbl.reset batch_delta;
          match on_commit with
          | None -> ()
          | Some f ->
              for j = b.lo to b.hi - 1 do
                match outputs.(j) with
                | Some o -> f j o
                | None -> Fmt.failwith "Lanes: transaction %d has no output" j
              done)
        pl.batches;
      let outputs =
        Array.mapi
          (fun j -> function
            | Some o -> o
            | None -> Fmt.failwith "Lanes: transaction %d has no output" j)
          outputs
      in
      let snapshot =
        LTbl.fold (fun l v acc -> (l, v) :: acc) overlay []
        |> List.sort (fun (a, _) (b, _) -> L.compare a b)
      in
      {
        snapshot;
        outputs;
        metrics =
          {
            lanes = partition.lanes;
            batches = List.length pl.batches;
            cross_lane_txns = pl.cross_lane_txns;
            lane_txn_counts = pl.lane_txn_counts;
            imbalance = imbalance_of ~lanes:partition.lanes pl.lane_txn_counts;
            engine = !engine;
          };
      }
    end
end
