(** LiTM-style deterministic STM baseline (Xia et al., PMAM'19), as
    re-implemented by the paper for comparison (Sections 4.1 and 6).

    The algorithm proceeds in rounds. In each round every not-yet-committed
    transaction is (re-)executed in parallel against the state committed so
    far, recording its read- and write-sets. Then the maximal independent set
    — greedily, in preset order: a transaction commits unless its reads or
    writes conflict with the reads/writes of transactions already committed
    this round — is committed, its writes folded into the state, and the rest
    carry over to the next round.

    This is deterministic (every round's outcome depends only on the previous
    state), but the resulting serialization is the round-greedy order, not
    necessarily the preset block order — which is exactly why the paper
    contrasts it with Block-STM. The result records that serialization as
    [order]: running the sequential executor over the block in that order
    gives the same snapshot and outputs. It thrives at low contention (one
    round) and degrades under conflicts (many rounds of wasted
    re-execution). *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  module LTbl = Hashtbl.Make (L)

  type 'o result = {
    snapshot : (L.t * V.t) list;
    outputs : 'o Txn.output array;
    rounds : int;
    executions : int;  (** Total transaction executions across rounds. *)
    round_sizes : int list;
        (** Number of transactions (re-)executed in each round, in round
            order. Drives the virtual-time LiTM cost model. *)
    order : int array;
        (** The serialization: transaction indices in commit order, round
            by round, in preset order within a round. A round's committed
            transactions do not conflict with each other, so each reads
            exactly the state its predecessors in [order] leave. *)
  }

  type 'o attempt = {
    at_reads : unit LTbl.t;
    at_writes : V.t LTbl.t;
    at_output : 'o Txn.output;
  }

  let run ?(num_domains = 1) ~(storage : (L.t, V.t) Intf.storage)
      (txns : (L.t, V.t, 'o) Txn.t array) : 'o result =
    if num_domains < 1 then invalid_arg "Litm.run: num_domains must be >= 1";
    let n = Array.length txns in
    let overlay : V.t LTbl.t = LTbl.create 1024 in
    let outputs : 'o Txn.output option array = Array.make n None in
    let rounds = ref 0 in
    let executions = ref 0 in
    let round_sizes = ref [] in
    let order = ref [] in
    let remaining = ref (List.init n Fun.id) in
    while !remaining <> [] do
      incr rounds;
      let batch = Array.of_list !remaining in
      let nb = Array.length batch in
      executions := !executions + nb;
      round_sizes := nb :: !round_sizes;
      let attempts : 'o attempt option array = Array.make nb None in
      (* Execution phase: read-only w.r.t. [overlay], embarrassingly
         parallel. *)
      let execute_slot i =
        let j = batch.(i) in
        let at_reads = LTbl.create 16 in
        let at_writes = LTbl.create 8 in
        let read loc =
          match LTbl.find_opt at_writes loc with
          | Some v -> Some v
          | None -> (
              LTbl.replace at_reads loc ();
              match LTbl.find_opt overlay loc with
              | Some v -> Some v
              | None -> storage loc)
        in
        let write loc v = LTbl.replace at_writes loc v in
        let delta =
          Txn.rmw_delta ~read ~write ~as_counter:V.as_counter
            ~of_counter:V.of_counter
        in
        let at_output =
          match txns.(j) { Txn.read; write; delta } with
          | o -> Txn.Success o
          | exception e ->
              LTbl.reset at_writes;
              Txn.Failed (Printexc.to_string e)
        in
        attempts.(i) <- Some { at_reads; at_writes; at_output }
      in
      (if num_domains = 1 || nb < 2 then
         for i = 0 to nb - 1 do
           execute_slot i
         done
       else
         let next = Atomic.make 0 in
         let worker () =
           let continue = ref true in
           while !continue do
             let i = Atomic_util.get_and_incr next in
             if i < nb then execute_slot i else continue := false
           done
         in
         let others =
           Array.init
             (min num_domains nb - 1)
             (fun _ -> Domain.spawn worker)
         in
         worker ();
         Array.iter Domain.join others);
      (* Commit phase: sequential greedy maximal independent set in preset
         order. Conflict = my reads/writes intersect the round's committed
         writes, or my writes intersect its committed reads. *)
      let committed_reads = LTbl.create 64 in
      let committed_writes = LTbl.create 64 in
      let next_remaining = ref [] in
      for i = 0 to nb - 1 do
        let j = batch.(i) in
        let a = Option.get attempts.(i) in
        let conflict =
          LTbl.fold
            (fun loc () c -> c || LTbl.mem committed_writes loc)
            a.at_reads false
          || LTbl.fold
               (fun loc _ c ->
                 c
                 || LTbl.mem committed_writes loc
                 || LTbl.mem committed_reads loc)
               a.at_writes false
        in
        if conflict then next_remaining := j :: !next_remaining
        else (
          LTbl.iter (fun loc () -> LTbl.replace committed_reads loc ())
            a.at_reads;
          LTbl.iter
            (fun loc v ->
              LTbl.replace committed_writes loc ();
              LTbl.replace overlay loc v)
            a.at_writes;
          order := j :: !order;
          outputs.(j) <- Some a.at_output)
      done;
      remaining := List.rev !next_remaining
    done;
    let snapshot =
      LTbl.fold (fun l v acc -> (l, v) :: acc) overlay []
      |> List.sort (fun (a, _) (b, _) -> L.compare a b)
    in
    {
      snapshot;
      outputs =
        Array.mapi
          (fun j -> function
            | Some o -> o
            | None -> Fmt.failwith "Litm: transaction %d not committed" j)
          outputs;
      rounds = !rounds;
      executions = !executions;
      round_sizes = List.rev !round_sizes;
      order = Array.of_list (List.rev !order);
    }
end
