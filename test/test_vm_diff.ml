(** Differential testing of the two MiniMove VMs: random programs executed
    by the tree-walk interpreter ({!Interp}) and the closure-compiled VM
    ({!Compile}) must produce identical results, gas consumption, failure
    messages, and read/write logs — the observational-equivalence contract
    DESIGN.md §11 states.

    Programs are built directly as ASTs from a seeded RNG — type-correct by
    construction (integers everywhere, booleans only in conditions, while
    loops bounded by dedicated counter variables) so most programs run deep
    instead of aborting on the first type error — then rendered with
    {!Ast.pp_program} and re-parsed, which also round-trips the printer and
    parser on statement forms. Each program runs twice: once with ample gas
    and once with a tight random limit, exercising the out-of-gas paths
    (where the compiled VM's batched charging is allowed to abort earlier
    within a basic block, but never with different effects or messages). *)

open Blockstm_kernel
open Blockstm_minimove
open Mv_value
module Rng = Blockstm_workload.Rng

(* --- Random type-correct program generation -------------------------------- *)

let resources = [| "R"; "S" |]
let var_pool = [| "a"; "b"; "c"; "d" |]

let pick rng (a : 'x array) = a.(Rng.int rng (Array.length a))
let pick_list rng l = List.nth l (Rng.int rng (List.length l))

(* [scope] is the list of int-valued variables in scope; [wc] numbers while
   counters so every loop gets a fresh, never-reassigned one. *)
let rec gen_int rng ~scope ~depth : Ast.expr =
  let leaf () =
    if scope <> [] && Rng.int rng 3 > 0 then Ast.Var (pick_list rng scope)
    else Ast.Int (Rng.int rng 21)
  in
  if depth <= 0 then leaf ()
  else
    match Rng.int rng 10 with
    | 0 | 1 -> leaf ()
    | 2 | 3 ->
        let op =
          pick rng [| Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod |]
        in
        Ast.Binop
          (op, gen_int rng ~scope ~depth:(depth - 1),
           gen_int rng ~scope ~depth:(depth - 1))
    | 4 ->
        Ast.If_expr
          ( gen_bool rng ~scope ~depth:(depth - 1),
            gen_int rng ~scope ~depth:(depth - 1),
            gen_int rng ~scope ~depth:(depth - 1) )
    | 5 ->
        (* Addresses 0..3 are prefilled; 4 is missing (abort path). *)
        Ast.Field (Ast.Load (Ast.Addr (Rng.int rng 5), pick rng resources), "v")
    | 6 ->
        Ast.Call ("h1",
          [ gen_int rng ~scope ~depth:(depth - 1);
            gen_int rng ~scope ~depth:(depth - 1) ])
    | 7 -> Ast.Call ("h2", [ gen_int rng ~scope ~depth:(depth - 1) ])
    | 8 ->
        Ast.Call
          ( pick rng [| "min"; "max" |],
            [ gen_int rng ~scope ~depth:(depth - 1);
              gen_int rng ~scope ~depth:(depth - 1) ] )
    | _ -> Ast.Unop (Ast.Neg, gen_int rng ~scope ~depth:(depth - 1))

and gen_bool rng ~scope ~depth : Ast.expr =
  if depth <= 0 then Ast.Bool (Rng.int rng 2 = 0)
  else
    match Rng.int rng 8 with
    | 0 -> Ast.Bool (Rng.int rng 2 = 0)
    | 1 | 2 | 3 ->
        let op =
          pick rng [| Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge |]
        in
        Ast.Binop
          (op, gen_int rng ~scope ~depth:(depth - 1),
           gen_int rng ~scope ~depth:(depth - 1))
    | 4 | 5 ->
        let op = pick rng [| Ast.And; Ast.Or |] in
        Ast.Binop
          (op, gen_bool rng ~scope ~depth:(depth - 1),
           gen_bool rng ~scope ~depth:(depth - 1))
    | 6 -> Ast.Unop (Ast.Not, gen_bool rng ~scope ~depth:(depth - 1))
    | _ -> Ast.Exists (Ast.Addr (Rng.int rng 5), pick rng resources)

let rec gen_stmt rng ~scope ~wc ~depth : Ast.stmt * string list =
  match Rng.int rng 9 with
  | 0 | 1 ->
      let x = pick rng var_pool in
      ( Ast.Let (x, gen_int rng ~scope ~depth),
        if List.mem x scope then scope else x :: scope )
  | 2 when scope <> [] ->
      (Ast.Assign (pick_list rng scope, gen_int rng ~scope ~depth), scope)
  | 3 ->
      let r = pick rng resources in
      ( Ast.Store
          ( Ast.Addr (Rng.int rng 5),
            r,
            Ast.Record (r, [ ("v", gen_int rng ~scope ~depth) ]) ),
        scope )
  | 4 when depth > 0 ->
      let then_ = gen_block rng ~scope ~wc ~depth:(depth - 1) in
      let else_ =
        if Rng.int rng 2 = 0 then []
        else gen_block rng ~scope ~wc ~depth:(depth - 1)
      in
      (Ast.If (gen_bool rng ~scope ~depth, then_, else_), scope)
  | 5 when depth > 0 ->
      (* Bounded loop over a dedicated counter the body never touches: the
         counter is not in [scope], so generated statements cannot reassign
         it, and termination is by construction. *)
      let w = Printf.sprintf "w%d" !wc in
      incr wc;
      let body =
        gen_block rng ~scope ~wc ~depth:(depth - 1)
        @ [ Ast.Assign (w, Ast.Binop (Ast.Sub, Ast.Var w, Ast.Int 1)) ]
      in
      ( Ast.If
          (* Wrap in a trivially-true If so the [Let w] stays a single
             statement tuple; the counter leaks into the enclosing scope in
             both VMs identically (slot-reuse mirrors Hashtbl.replace). *)
          ( Ast.Bool true,
            [
              Ast.Let (w, Ast.Int (1 + Rng.int rng 4));
              Ast.While (Ast.Binop (Ast.Gt, Ast.Var w, Ast.Int 0), body);
            ],
            [] ),
        scope )
  | 6 ->
      (* Aggregator update, mostly over the bare-int counter resource "C"
         (occasionally a struct resource: the not-a-counter abort path).
         Literal amounts keep all three failure modes deterministic;
         subtractions underflow against the small prefilled bases often
         enough to exercise the bounds-violation abort. *)
      let r = if Rng.int rng 8 = 0 then pick rng resources else "C" in
      let addr = Ast.Addr (Rng.int rng 5) in
      ( (if Rng.int rng 3 = 0 then
           Ast.Agg_sub (addr, r, Ast.Int (Rng.int rng 8))
         else Ast.Agg_add (addr, r, Ast.Int (Rng.int rng 21))),
        scope )
  | 7 -> (Ast.Assert (gen_bool rng ~scope ~depth, "generated assert"), scope)
  | _ -> (Ast.Expr (gen_int rng ~scope ~depth), scope)

and gen_block rng ~scope ~wc ~depth : Ast.stmt list =
  let n = 1 + Rng.int rng 3 in
  let rec go scope k =
    if k = 0 then []
    else
      let s, scope = gen_stmt rng ~scope ~wc ~depth in
      s :: go scope (k - 1)
  in
  go scope n

(* Fixed helper functions covering both compiled return shapes: h1/h3 are
   single-tail-return (compiled without the Ret exception), h2 returns from
   inside a branch (the generic exception path). *)
let helpers_src =
  {|
fun h1(x, y) { return x * 2 + y; }
fun h2(x) { if (x > 10) { return x - 1; } return x + 1; }
fun h3(n) { let r = 0; while (n > 0) { r = r + n; n = n - 1; } return r; }
|}

let gen_source seed : string =
  let rng = Rng.create seed in
  let wc = ref 0 in
  let body = gen_block rng ~scope:[] ~wc ~depth:3 in
  let main =
    {
      Ast.fname = "main";
      params = [];
      body = body @ [ Ast.Return (gen_int rng ~scope:[] ~depth:2) ];
      line = 0;
    }
  in
  Fmt.str "%s@.%a" helpers_src Ast.pp_program { Ast.funcs = [ main ] }

(* --- Differential execution harness ---------------------------------------- *)

type exec_log = {
  result : (Value.t * int, string) result;
  reads : (Loc.t * Value.t option) list;
  writes : (Loc.t * Value.t) list;
}

let base_state : (Loc.t * Value.t) list =
  List.concat_map
    (fun r ->
      List.init 4 (fun a ->
          ( Loc.make ~addr:a ~resource:r,
            Value.Struct
              (r, [ ("v", Value.Int ((a * 10) + if r = "R" then 1 else 2)) ])
          )))
    [ "R"; "S" ]
  (* Bare-int counters for the aggregator statements; address 4 is absent
     (an aggregator over a missing location starts from 0). *)
  @ List.init 4 (fun a -> (Loc.make ~addr:a ~resource:"C", Value.Int (5 * a)))

let exec (run : gas_limit:int -> (Loc.t, Value.t) Txn.effects -> Value.t * int)
    ~gas_limit : exec_log =
  let overlay = ref [] in
  let reads = ref [] and writes = ref [] in
  let find l = List.find_opt (fun (l', _) -> Loc.equal l l') in
  let read loc =
    let v =
      match find loc !overlay with
      | Some (_, v) -> Some v
      | None -> Option.map snd (find loc base_state)
    in
    reads := (loc, v) :: !reads;
    v
  in
  let write loc v =
    overlay := (loc, v) :: !overlay;
    writes := (loc, v) :: !writes
  in
  let delta =
    Txn.rmw_delta ~read ~write ~as_counter:Value.as_counter
      ~of_counter:Value.of_counter
  in
  let result =
    match run ~gas_limit { Txn.read; write; delta } with
    | v -> Ok v
    | exception Interp.Abort m -> Error m
  in
  { result; reads = List.rev !reads; writes = List.rev !writes }

(* [a] is the tree-walk log, [b] the compiled one. Results must agree
   exactly, with the single documented gas-batching latitude: because the
   compiled VM charges a whole basic block at batch entry, it may report
   "out of gas" where the tree-walk VM — charging node by node — reaches a
   deterministic abort (failed assert, division by zero, ...) later within
   that same effect-free gap before its own gas runs dry. The reverse can
   never happen (the compiled VM never charges later than the tree-walk
   VM), and the effect logs still match byte-for-byte. *)
let log_equal a b =
  let res_eq =
    match (a.result, b.result) with
    | Ok (v1, g1), Ok (v2, g2) -> Value.equal v1 v2 && g1 = g2
    | Error m1, Error m2 ->
        String.equal m1 m2 || String.equal m2 "out of gas"
    | _ -> false
  in
  res_eq
  && List.equal
       (fun (l1, v1) (l2, v2) ->
         Loc.equal l1 l2 && Option.equal Value.equal v1 v2)
       a.reads b.reads
  && List.equal
       (fun (l1, v1) (l2, v2) -> Loc.equal l1 l2 && Value.equal v1 v2)
       a.writes b.writes

let pp_log ppf l =
  let pp_res ppf = function
    | Ok (v, g) -> Fmt.pf ppf "Ok (%a, gas %d)" Value.pp v g
    | Error m -> Fmt.pf ppf "Error %S" m
  in
  Fmt.pf ppf "%a; %d reads, %d writes" pp_res l.result (List.length l.reads)
    (List.length l.writes)

let diff_one ?(gas_limit = 200_000) src : bool =
  let ic = Interp.compile src in
  let cc = Compile.of_checked ic in
  let li =
    exec ~gas_limit (fun ~gas_limit e ->
        Interp.run_with_gas ~gas_limit ic ~args:[] e)
  in
  let lc =
    exec ~gas_limit (fun ~gas_limit e ->
        Compile.run_with_gas ~gas_limit cc ~args:[] e)
  in
  if log_equal li lc then true
  else
    QCheck2.Test.fail_reportf
      "VM divergence (gas_limit %d):@.interp:   %a@.compiled: %a@.%s"
      gas_limit pp_log li pp_log lc src

let prop_vm_differential =
  QCheck2.Test.make ~name:"vm-diff: tree-walk = compiled on random programs"
    ~count:600 ~print:gen_source
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let src = gen_source seed in
      (* Ample gas, then a tight random limit (out-of-gas paths). *)
      diff_one src
      && diff_one ~gas_limit:(Rng.int (Rng.create (seed + 1)) 300) src)

(* Guard against the property becoming vacuous: a generator regression that
   makes every program abort on its first statement would leave the
   differential test passing while covering nothing. Require a healthy mix
   of successes, failures, and storage traffic across a fixed seed range. *)
let test_generator_coverage () =
  let ok = ref 0
  and err = ref 0
  and reads = ref 0
  and writes = ref 0 in
  for seed = 0 to 599 do
    let ic = Interp.compile (gen_source seed) in
    let l =
      exec ~gas_limit:200_000 (fun ~gas_limit e ->
          Interp.run_with_gas ~gas_limit ic ~args:[] e)
    in
    (match l.result with Ok _ -> incr ok | Error _ -> incr err);
    reads := !reads + List.length l.reads;
    writes := !writes + List.length l.writes
  done;
  if !ok < 100 then
    Alcotest.failf "only %d/600 programs succeed — generator too abort-heavy"
      !ok;
  if !err < 20 then
    Alcotest.failf "only %d/600 programs abort — failure paths untested" !err;
  if !reads < 600 || !writes < 300 then
    Alcotest.failf "too little storage traffic (%d reads, %d writes)" !reads
      !writes

(* --- Deterministic out-of-gas boundary sweep -------------------------------- *)

let test_out_of_gas_parity () =
  let src =
    {|
fun main() {
  let a = 1;
  store(@0, R, R { v: a + 2 });
  let b = load(@0, R);
  assert(b.v == 3, "bad");
  store(@1, S, S { v: b.v * 2 });
  return b.v * 4;
}
|}
  in
  let ic = Interp.compile src in
  let cc = Compile.of_checked ic in
  let total =
    match
      (exec ~gas_limit:10_000 (fun ~gas_limit e ->
           Interp.run_with_gas ~gas_limit ic ~args:[] e))
        .result
    with
    | Ok (_, gas) -> gas
    | Error m -> Alcotest.failf "reference run failed: %s" m
  in
  for limit = 0 to total + 2 do
    let li =
      exec ~gas_limit:limit (fun ~gas_limit e ->
          Interp.run_with_gas ~gas_limit ic ~args:[] e)
    in
    let lc =
      exec ~gas_limit:limit (fun ~gas_limit e ->
          Compile.run_with_gas ~gas_limit cc ~args:[] e)
    in
    if not (log_equal li lc) then
      Alcotest.failf "divergence at gas_limit %d: interp %a, compiled %a"
        limit pp_log li pp_log lc
  done

(* --- Block-level parity through real executors ------------------------------ *)

let test_block_parity () =
  let open Blockstm_workload in
  List.iter
    (fun flavor ->
      let spec vm =
        {
          Mm_p2p.default_spec with
          flavor;
          vm;
          num_accounts = 50;
          block_size = 200;
        }
      in
      let wt = Mm_p2p.generate (spec Runtime.Tree_walk) in
      let wc = Mm_p2p.generate (spec Runtime.Compiled) in
      let run_both label run =
        let st = run wt and sc = run wc in
        Alcotest.(check int)
          (label ^ ": snapshot sizes")
          (List.length st) (List.length sc);
        if not (Runtime.Seq.same_snapshot st sc) then
          Alcotest.failf "%s: snapshots differ" label
      in
      run_both "seq" (fun (w : Mm_p2p.t) ->
          let r =
            Runtime.Seq.run ~storage:(Runtime.Store.reader w.storage) w.txns
          in
          Array.iter
            (function
              | Txn.Success _ -> ()
              | Txn.Failed m -> Alcotest.failf "seq txn failed: %s" m)
            r.outputs;
          r.snapshot);
      run_both "bstm" (fun (w : Mm_p2p.t) ->
          let r =
            Runtime.Bstm.run
              ~config:{ Runtime.Bstm.default_config with num_domains = 2 }
              ~storage:(Runtime.Store.reader w.storage)
              w.txns
          in
          r.snapshot))
    [ P2p.Standard; P2p.Simplified ]

let suite =
  [
    Tutil.qcheck_to_alcotest prop_vm_differential;
    Alcotest.test_case "generator coverage (non-vacuity)" `Quick
      test_generator_coverage;
    Alcotest.test_case "out-of-gas boundary sweep" `Quick
      test_out_of_gas_parity;
    Alcotest.test_case "mm-p2p block parity (seq + bstm)" `Quick
      test_block_parity;
  ]
