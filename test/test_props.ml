(** Property-based tests (QCheck, registered as Alcotest cases).

    The headline property is the paper's Theorem 1 + Corollary 2: for ANY
    block of deterministic transactions and ANY number of threads, Block-STM
    terminates and produces exactly the sequential execution's final state
    and outputs. Transactions are generated as small random access programs
    (reads, value-dependent writes, conditional failures) over a tiny
    location space to maximize conflicts. *)

open Blockstm_kernel
open Tutil

(* --- Random transaction programs ------------------------------------------ *)

(* A transaction described as data (so it can shrink and print). Semantics:
   ops run in order; an accumulator mixes in every value read; writes store
   a deterministic function of the accumulator; [Fail_if_acc_odd] aborts the
   transaction when the accumulator is odd at that point. *)
type op =
  | Read of int
  | Write of int * int  (* location, salt *)
  | Fail_if_acc_odd

let pp_op ppf = function
  | Read l -> Fmt.pf ppf "R%d" l
  | Write (l, s) -> Fmt.pf ppf "W%d+%d" l s
  | Fail_if_acc_odd -> Fmt.string ppf "F?"

type prog = op list

let txn_of_prog (p : prog) : itxn =
 fun e ->
  let acc = ref 1 in
  List.iter
    (fun op ->
      match op with
      | Read l ->
          let v = match e.read l with Some v -> v | None -> l in
          acc := (!acc * 31) + v
      | Write (l, salt) -> e.write l ((!acc * 7) + salt)
      | Fail_if_acc_odd -> if !acc land 1 = 1 then failwith "odd")
    p;
  !acc

let n_locs = 6

let op_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun l -> Read l) (int_bound (n_locs - 1)));
        ( 4,
          map2
            (fun l s -> Write (l, s))
            (int_bound (n_locs - 1))
            (int_bound 100) );
        (1, return Fail_if_acc_odd);
      ])

let prog_gen = QCheck2.Gen.(list_size (int_range 0 8) op_gen)
let block_gen = QCheck2.Gen.(list_size (int_range 0 40) prog_gen)

let print_block (b : prog list) =
  Fmt.str "%a" (Fmt.Dump.list (Fmt.Dump.list pp_op)) b

(* --- Properties ------------------------------------------------------------ *)

let equal_results (a : int Seq.result) (b : int Bstm.result) =
  a.snapshot = b.snapshot
  && Array.for_all2 (Txn.equal_output Int.equal) a.outputs b.outputs

let prop_blockstm_equals_sequential =
  QCheck2.Test.make ~name:"blockstm = sequential (random programs, 1-4 domains)"
    ~count:150 ~print:print_block block_gen (fun block ->
      let txns = Array.of_list (List.map txn_of_prog block) in
      let seq = Seq.run ~storage:zero_storage txns in
      List.for_all
        (fun d ->
          let par =
            Bstm.run
              ~config:{ Bstm.default_config with num_domains = d }
              ~storage:zero_storage txns
          in
          equal_results seq par)
        [ 1; 2; 4 ])

let prop_blockstm_ablations_equal_sequential =
  QCheck2.Test.make
    ~name:"blockstm ablations = sequential (no estimates / no prevalidate)"
    ~count:80 ~print:print_block block_gen (fun block ->
      let txns = Array.of_list (List.map txn_of_prog block) in
      let seq = Seq.run ~storage:zero_storage txns in
      List.for_all
        (fun (estimates, prevalidate_reads) ->
          let par =
            Bstm.run
              ~config:
                {
                  Bstm.default_config with
                  num_domains = 3;
                  marking =
                    (if estimates then Bstm.default_config.marking
                     else Remove_on_abort);
                  prevalidate_reads;
                }
              ~storage:zero_storage txns
          in
          equal_results seq par)
        [ (false, true); (true, false); (false, false) ])

let prop_sim_blockstm_equals_sequential =
  QCheck2.Test.make
    ~name:"virtual-time blockstm = sequential (random threads)" ~count:100
    ~print:(fun (b, t) -> Fmt.str "threads=%d %s" t (print_block b))
    QCheck2.Gen.(pair block_gen (int_range 1 12))
    (fun (block, threads) ->
      let txns = Array.of_list (List.map txn_of_prog block) in
      let seq = Seq.run ~storage:zero_storage txns in
      (* Drive the real engine under virtual time with [threads] virtual
         threads. *)
      let inst =
        Bstm.create_instance ~config:Bstm.default_config
          ~storage:zero_storage txns
      in
      let engine =
        {
          Blockstm_simexec.Virtual_exec.start = Bstm.start_task inst;
          finish = Bstm.finish_task inst;
          profile = Bstm.pending_profile;
          next_task = (fun () -> Scheduler.next_task (Bstm.sched inst));
          is_done = (fun () -> Scheduler.done_ (Bstm.sched inst));
        }
      in
      let _stats =
        Blockstm_simexec.Virtual_exec.run ~num_threads:threads
          ~cost:Blockstm_simexec.Cost_model.default engine
      in
      let par = Bstm.finalize inst in
      Scheduler.num_active_tasks (Bstm.sched inst) = 0 && equal_results seq par)

let prop_litm_deterministic_and_conserving =
  QCheck2.Test.make ~name:"litm: deterministic, same locations as sequential"
    ~count:80 ~print:print_block block_gen (fun block ->
      let txns = Array.of_list (List.map txn_of_prog block) in
      let r1 = LitmI.run ~num_domains:1 ~storage:zero_storage txns in
      let r2 = LitmI.run ~num_domains:3 ~storage:zero_storage txns in
      r1.snapshot = r2.snapshot && r1.rounds = r2.rounds)

let prop_bohm_equals_sequential_with_perfect_writes =
  QCheck2.Test.make ~name:"bohm = sequential given perfect write-sets"
    ~count:80 ~print:print_block block_gen (fun block ->
      let txns_desc = Array.of_list block in
      let txns = Array.map txn_of_prog txns_desc in
      (* Perfect write-sets from a profiling pass: the superset of locations
         the transaction writes in the committed schedule. For BOHM
         correctness declared ⊇ actual; our programs' write locations are
         static, so the declared set is exact. *)
      let declared =
        Array.map
          (fun p ->
            List.filter_map
              (function Write (l, _) -> Some l | _ -> None)
              p
            |> List.sort_uniq compare |> Array.of_list)
          txns_desc
      in
      let seq = Seq.run ~storage:zero_storage txns in
      List.for_all
        (fun d ->
          let b =
            BohmI.run ~num_domains:d ~storage:zero_storage
              ~declared_writes:declared txns
          in
          b.snapshot = seq.snapshot
          && Array.for_all2
               (Txn.equal_output Int.equal)
               b.outputs seq.outputs)
        [ 1; 3 ])

(* --- Model-based MVMemory ------------------------------------------------- *)

(* Reference model: association list (loc, txn) -> entry, with the same
   read semantics as Algorithm 3, and commutative deltas folded onto the
   highest plain write below them (absent storage counts as 0). *)
module Model = struct
  type entry =
    | Val of int * int (* incarnation, value *)
    | Delta of int * int (* incarnation, net *)
    | Est

  type t = ((int * int) * entry) list ref

  let create () : t = ref []

  let write (m : t) ~loc ~txn e =
    m := ((loc, txn), e) :: List.remove_assoc (loc, txn) !m

  let remove (m : t) ~loc ~txn = m := List.remove_assoc (loc, txn) !m

  let read (m : t) ~loc ~txn =
    let candidates =
      List.filter (fun ((l, t), _) -> l = loc && t < txn) !m
      |> List.sort (fun ((_, a), _) ((_, b), _) -> compare b a)
    in
    let rec fold net = function
      | [] -> `Merged net
      | ((_, t), Est) :: _ -> `Estimate t
      | (_, Val (_, v)) :: _ -> `Merged (v + net)
      | (_, Delta (_, d)) :: rest -> fold (net + d) rest
    in
    match candidates with
    | [] -> `Not_found
    | ((_, t), Est) :: _ -> `Estimate t
    | ((_, t), Val (i, v)) :: _ -> `Ok (t, i, v)
    | (_, Delta (_, d)) :: rest -> fold d rest

  (* [Mvmemory.flush_committed ~upto:k] on a prefix without estimates: per
     location, only the highest writer below [k] stays, a delta turned into
     the plain value it materializes to. *)
  let flush (m : t) ~upto:k =
    let kept =
      List.filter_map
        (fun ((l, t), e) ->
          if t >= k then Some ((l, t), e)
          else if
            List.exists (fun ((l', t'), _) -> l' = l && t < t' && t' < k) !m
          then None
          else
            match e with
            | Val _ -> Some ((l, t), e)
            | Est -> assert false
            | Delta (i, d) -> (
                match read m ~loc:l ~txn:t with
                | `Not_found -> Some ((l, t), Val (i, d))
                | `Ok (_, _, v) | `Merged v -> Some ((l, t), Val (i, v + d))
                | `Estimate _ -> assert false))
        !m
    in
    m := kept
end

type mv_op =
  | Op_record of int * int list * int list
      (* txn, written locations (values derived), delta'd locations *)
  | Op_convert of int  (* convert writes to estimates *)
  | Op_remove of int  (* remove written entries (the ablation's abort) *)

let pp_mv_op ppf = function
  | Op_record (t, ws, ds) ->
      Fmt.pf ppf "record(%d,[%a],deltas[%a])" t
        Fmt.(list ~sep:comma int)
        ws
        Fmt.(list ~sep:comma int)
        ds
  | Op_convert t -> Fmt.pf ppf "convert(%d)" t
  | Op_remove t -> Fmt.pf ppf "remove(%d)" t

let mv_block_size = 6

let mv_op_gen =
  let open QCheck2.Gen in
  let txn = int_bound (mv_block_size - 1) in
  let locs =
    map (List.sort_uniq compare)
      (list_size (int_range 0 3) (int_bound (n_locs - 1)))
  in
  (* Each recorded location is written or delta'd, never both. *)
  let record =
    let* t = txn and* ls = locs in
    let+ deltas = list_repeat (List.length ls) bool in
    let tagged = List.combine ls deltas in
    Op_record
      ( t,
        List.filter_map (fun (l, d) -> if d then None else Some l) tagged,
        List.filter_map (fun (l, d) -> if d then Some l else None) tagged )
  in
  frequency
    [
      (4, record);
      (2, map (fun t -> Op_convert t) txn);
      (1, map (fun t -> Op_remove t) txn);
    ]

(* A case: operations, a rolling flush of the prefix [0, k) when it holds
   no ESTIMATE, then operations on the transactions at or above [k] only —
   the engine never touches a committed transaction again. *)
let mv_case_gen =
  QCheck2.Gen.(
    triple
      (list_size (int_range 1 25) mv_op_gen)
      (int_bound mv_block_size)
      (list_size (int_range 0 10) mv_op_gen))

let print_mv_case (before, k, after) =
  Fmt.str "%a flush(%d) %a"
    (Fmt.Dump.list pp_mv_op)
    before k
    (Fmt.Dump.list pp_mv_op)
    after

(* Besides every read, the model checks [record]'s [wrote_new_location]
   (true iff a recorded location had no entry, estimates included, for the
   transaction), [validate_origin] for every (location, reader), and
   [entry_count]: after the operations, after the partial flush and the
   operations that follow it (readers at or below [k] find only the kept
   entries), and after a full flush, with the snapshot. *)
let prop_mvmemory_matches_model =
  QCheck2.Test.make ~name:"mvmemory read semantics match reference model"
    ~count:300 ~print:print_mv_case mv_case_gen (fun (before, k, after) ->
      let mv = Mv.create ~block_size:mv_block_size () in
      let model = Model.create () in
      let incarnations = Array.make mv_block_size 0 in
      let recorded = Array.make mv_block_size false in
      let has_entry txn l = List.mem_assoc (l, txn) !model in
      let value txn inc l = (txn * 100) + (inc * 10) + l in
      let net txn inc l = 1 + ((txn + inc + l) mod 3) in
      let apply op =
        match op with
        | Op_record (txn, writes, deltas) ->
            let inc = incarnations.(txn) in
            incarnations.(txn) <- inc + 1;
            recorded.(txn) <- true;
            let ws =
              Array.of_list (List.map (fun l -> (l, value txn inc l)) writes)
            in
            let ds =
              Array.of_list
                (List.map (fun l -> (l, Delta.add (net txn inc l))) deltas)
            in
            let expected_new =
              List.exists (fun l -> not (has_entry txn l)) (writes @ deltas)
            in
            let wrote_new =
              Mv.record ~deltas:ds mv
                (Version.make ~txn_idx:txn ~incarnation:inc)
                Mv.empty_read_set ws
            in
            (* Model: add new writes and deltas, remove stale entries. *)
            for l = 0 to n_locs - 1 do
              if List.mem l writes then
                Model.write model ~loc:l ~txn (Model.Val (inc, value txn inc l))
              else if List.mem l deltas then
                Model.write model ~loc:l ~txn (Model.Delta (inc, net txn inc l))
              else Model.remove model ~loc:l ~txn
            done;
            wrote_new = expected_new
        | Op_convert txn ->
            if recorded.(txn) then begin
              Mv.convert_writes_to_estimates mv txn;
              (* Model: every current entry of txn becomes an estimate. *)
              List.iter
                (fun ((l, t), _) ->
                  if t = txn then Model.write model ~loc:l ~txn Model.Est)
                !model
            end;
            true
        | Op_remove txn ->
            Mv.remove_written_entries mv txn;
            for l = 0 to n_locs - 1 do
              Model.remove model ~loc:l ~txn
            done;
            true
      in
      let locs = List.init n_locs Fun.id in
      let all_readers = List.init (mv_block_size + 1) Fun.id in
      (* Compare every read the engine could make. *)
      let reads_agree readers =
        List.for_all
          (fun loc ->
            List.for_all
              (fun txn ->
                let actual = Mv.read mv loc ~txn_idx:txn in
                match (Model.read model ~loc ~txn, actual) with
                | `Not_found, Mv.Not_found -> true
                | `Estimate t, Mv.Read_error { blocking_txn_idx } ->
                    t = blocking_txn_idx
                | `Ok (t, i, v), Mv.Ok (ver, value) ->
                    Version.txn_idx ver = t
                    && Version.incarnation ver = i
                    && value = v
                | `Merged v, Mv.Merged { value } -> value = v
                | _ -> false)
              readers)
          locs
      in
      (* Every descriptor the model's answer implies passes; a wrong
         incarnation, storage where a writer exists, a version or a wrong
         integer over deltas, and anything over an ESTIMATE fail. *)
      let mv_desc t i =
        Read_origin.Mv (Version.make ~txn_idx:t ~incarnation:i)
      in
      let validation_agrees readers =
        List.for_all
          (fun loc ->
            List.for_all
              (fun txn ->
                let valid = Mv.validate_origin mv loc ~txn_idx:txn in
                match Model.read model ~loc ~txn with
                | `Not_found -> valid Storage && not (valid (mv_desc 0 0))
                | `Ok (t, i, _) ->
                    valid (mv_desc t i)
                    && (not (valid (mv_desc t (i + 1))))
                    && not (valid Storage)
                | `Merged v ->
                    valid (Counter v)
                    && valid (Range { rlo = v; rhi = v })
                    && (not (valid (Counter (v + 1))))
                    && (not (valid (Range { rlo = v + 1; rhi = max_int })))
                    && (not (valid Not_counter))
                    && (not (valid Storage))
                    && not (valid (mv_desc 0 0))
                | `Estimate t ->
                    List.for_all
                      (fun d -> not (valid d))
                      Read_origin.
                        [
                          Storage;
                          mv_desc t 0;
                          mv_desc t (max 0 (incarnations.(t) - 1));
                          Range { rlo = min_int; rhi = max_int };
                          Counter 0;
                          Not_counter;
                        ])
              readers)
          locs
      in
      (* Entries of transactions at or above the flushed prefix. *)
      let count_agrees () =
        let upto = Mv.flushed_upto mv in
        Mv.entry_count mv
        = List.length (List.filter (fun ((_, t), _) -> t >= upto) !model)
      in
      let agrees () =
        reads_agree all_readers
        && validation_agrees all_readers
        && count_agrees ()
      in
      let has_estimate below =
        List.exists (fun ((_, t), e) -> t < below && e = Model.Est) !model
      in
      (* A rolling flush of [0, k): the model keeps only the highest
         committed entry per location, a delta as its materialized value,
         and the operations that follow touch transactions [k..] only. *)
      let partial_flush_agrees () =
        (has_estimate k
        ||
        (Mv.flush_committed mv ~upto:k;
         Model.flush model ~upto:k;
         agrees ()))
        &&
        let upto = Mv.flushed_upto mv in
        List.for_all
          (fun op ->
            match op with
            | Op_record (t, _, _) | Op_convert t | Op_remove t ->
                t < upto || apply op)
          after
        && agrees ()
      in
      (* With no ESTIMATE left the block can commit: the flushed snapshot
         holds each location's final value, and a reader above the flushed
         prefix reads and validates against the kept entries as it did
         against the chains. *)
      let flush_agrees () =
        has_estimate mv_block_size
        ||
        let expected =
          List.filter_map
            (fun loc ->
              match Model.read model ~loc ~txn:mv_block_size with
              | `Ok (_, _, v) | `Merged v -> Some (loc, v)
              | `Not_found -> None
              | `Estimate _ -> assert false)
            locs
        in
        Mv.flush_committed mv ~upto:mv_block_size;
        Model.flush model ~upto:mv_block_size;
        Mv.snapshot mv = expected
        && Mv.entry_count mv = 0
        && reads_agree all_readers
        && validation_agrees all_readers
      in
      List.for_all apply before && agrees () && partial_flush_agrees ()
      && flush_agrees ())

(* --- Parser round-trip ----------------------------------------------------- *)

let ident_gen =
  QCheck2.Gen.(
    map
      (fun (c, rest) ->
        let s =
          String.init (1 + String.length rest) (fun i ->
              if i = 0 then Char.chr (Char.code 'a' + c)
              else rest.[i - 1])
        in
        (* Identifiers colliding with keywords would not round-trip. *)
        if List.mem_assoc s Blockstm_minimove.Lexer.keywords then s ^ "_"
        else s)
      (pair (int_bound 25)
         (string_size ~gen:(char_range 'a' 'z') (int_bound 5))))

let rec expr_gen depth =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        map (fun i -> Blockstm_minimove.Ast.Int i) (int_bound 1000);
        map (fun b -> Blockstm_minimove.Ast.Bool b) bool;
        map (fun a -> Blockstm_minimove.Ast.Addr a) (int_bound 1000);
        return Blockstm_minimove.Ast.Unit;
        map (fun x -> Blockstm_minimove.Ast.Var x) ident_gen;
      ]
  in
  if depth = 0 then leaf
  else
    frequency
      [
        (3, leaf);
        ( 2,
          map3
            (fun op a b -> Blockstm_minimove.Ast.Binop (op, a, b))
            (oneofl
               Blockstm_minimove.Ast.
                 [ Add; Sub; Mul; Div; Eq; Lt; And; Or ])
            (expr_gen (depth - 1))
            (expr_gen (depth - 1)) );
        ( 1,
          map
            (fun e -> Blockstm_minimove.Ast.Unop (Not, e))
            (expr_gen (depth - 1)) );
        ( 1,
          map2
            (fun f args -> Blockstm_minimove.Ast.Call (f, args))
            ident_gen
            (list_size (int_range 0 3) (expr_gen (depth - 1))) );
        ( 1,
          map2
            (fun e f -> Blockstm_minimove.Ast.Field (e, f))
            (expr_gen (depth - 1))
            ident_gen );
        ( 1,
          map3
            (fun c t e -> Blockstm_minimove.Ast.If_expr (c, t, e))
            (expr_gen (depth - 1))
            (expr_gen (depth - 1))
            (expr_gen (depth - 1)) );
        ( 1,
          map2
            (fun a r -> Blockstm_minimove.Ast.Load (a, r))
            (expr_gen (depth - 1))
            ident_gen );
      ]

let prop_parser_roundtrip =
  QCheck2.Test.make ~name:"minimove: pp then parse is identity on expressions"
    ~count:200
    ~print:(fun e ->
      Fmt.str "%a" Blockstm_minimove.Ast.pp_expr e)
    (expr_gen 3)
    (fun e ->
      let src =
        Fmt.str "fun main() { return %a; }" Blockstm_minimove.Ast.pp_expr e
      in
      match Blockstm_minimove.Parser.parse src with
      | { funcs = [ { body = [ Return e' ]; _ } ] } -> e = e'
      | _ -> false
      | exception _ -> false)

(* --- Rng properties -------------------------------------------------------- *)

let prop_rng_int_in_bounds =
  QCheck2.Test.make ~name:"rng: int within bounds" ~count:500
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_bound 10_000))
    (fun (bound, seed) ->
      let rng = Blockstm_workload.Rng.create seed in
      let v = Blockstm_workload.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_zipf_in_bounds =
  QCheck2.Test.make ~name:"rng: zipf within bounds" ~count:500
    QCheck2.Gen.(
      triple (int_range 1 10_000) (float_bound_inclusive 2.0)
        (int_bound 10_000))
    (fun (n, theta, seed) ->
      let rng = Blockstm_workload.Rng.create seed in
      let v = Blockstm_workload.Rng.zipf rng ~n ~theta in
      v >= 0 && v < n)

let suite =
  List.map Tutil.qcheck_to_alcotest
    [
      prop_blockstm_equals_sequential;
      prop_blockstm_ablations_equal_sequential;
      prop_sim_blockstm_equals_sequential;
      prop_litm_deterministic_and_conserving;
      prop_bohm_equals_sequential_with_perfect_writes;
      prop_mvmemory_matches_model;
      prop_parser_roundtrip;
      prop_rng_int_in_bounds;
      prop_rng_zipf_in_bounds;
    ]
