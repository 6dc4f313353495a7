(** Tests for the MiniMove language: lexer, parser, static checker,
    interpreter, gas metering, and the stdlib contracts running through
    Block-STM and the baselines. *)

open Blockstm_minimove
open Mv_value

(* --- Helpers -------------------------------------------------------------- *)

(* Run a script's main with args against an in-memory store; return the
   value and the updated store view. *)
let run_script ?(store = Runtime.Store.create ()) src args =
  let c = Interp.compile src in
  let seq = Runtime.Seq.run ~storage:(Runtime.Store.reader store)
      [| Interp.txn c ~args |] in
  match seq.outputs.(0) with
  | Blockstm_kernel.Txn.Success v -> Ok (v, seq.snapshot)
  | Blockstm_kernel.Txn.Failed m -> Error m

let expect_value msg src args expected =
  match run_script src args with
  | Ok (v, _) ->
      Alcotest.(check bool)
        (msg ^ Fmt.str " (got %a)" Value.pp v)
        true
        (Value.equal v expected)
  | Error m -> Alcotest.failf "%s: unexpected failure %s" msg m

let expect_failure msg src args substring =
  match run_script src args with
  | Ok (v, _) -> Alcotest.failf "%s: expected failure, got %a" msg Value.pp v
  | Error m ->
      Alcotest.(check bool)
        (Fmt.str "%s: %S contains %S" msg m substring)
        true
        (let len_s = String.length substring in
         let len_m = String.length m in
         let rec search i =
           i + len_s <= len_m
           && (String.sub m i len_s = substring || search (i + 1))
         in
         search 0)

(* --- Lexer ---------------------------------------------------------------- *)

let tokens src =
  List.map fst (Lexer.tokenize src)

let test_lexer_basics () =
  Alcotest.(check int) "count"
    8
    (List.length (tokens "let x = 1 + 2 ;"));
  (match tokens "0x1F 42 @7 @0x10" with
  | [ INT 31; INT 42; ADDR 7; ADDR 16; EOF ] -> ()
  | _ -> Alcotest.fail "number lexing");
  match tokens {|"hi\n" ident fun|} with
  | [ STRING "hi\n"; IDENT "ident"; KW_FUN; EOF ] -> ()
  | _ -> Alcotest.fail "string/ident/keyword lexing"

let test_lexer_comments_and_lines () =
  let toks = Lexer.tokenize "1 // comment\n2" in
  (match List.map fst toks with
  | [ INT 1; INT 2; EOF ] -> ()
  | _ -> Alcotest.fail "comments skipped");
  match toks with
  | [ (_, 1); (_, 2); _ ] -> ()
  | _ -> Alcotest.fail "line tracking"

let test_lexer_operators () =
  match tokens "== != <= >= && || < > ! = . : ," with
  | [
      EQEQ; NEQ; LE; GE; ANDAND; OROR; LT; GT; BANG; EQ; DOT; COLON; COMMA;
      EOF;
    ] -> ()
  | _ -> Alcotest.fail "operator lexing"

let test_lexer_errors () =
  Alcotest.(check bool) "bad char" true
    (match Lexer.tokenize "#" with
    | exception Lexer.Lex_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "unterminated string" true
    (match Lexer.tokenize "\"abc" with
    | exception Lexer.Lex_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad addr" true
    (match Lexer.tokenize "@x" with
    | exception Lexer.Lex_error _ -> true
    | _ -> false)

(* --- Parser --------------------------------------------------------------- *)

let test_parser_precedence () =
  expect_value "mul binds tighter" "fun main() { return 2 + 3 * 4; }" []
    (Value.Int 14);
  expect_value "parens" "fun main() { return (2 + 3) * 4; }" []
    (Value.Int 20);
  expect_value "comparison" "fun main() { return 1 + 1 == 2; }" []
    (Value.Bool true);
  expect_value "logical" "fun main() { return true && 1 < 2 || false; }" []
    (Value.Bool true);
  expect_value "unary" "fun main() { return -3 + 5; }" [] (Value.Int 2);
  expect_value "not" "fun main() { return !(1 == 2); }" [] (Value.Bool true)

let test_parser_if_expr () =
  expect_value "if-then-else expression"
    "fun main(x) { return if x > 0 then 1 else 0 - 1; }"
    [ Value.Int 5 ] (Value.Int 1)

let test_parser_errors () =
  let bad srcs =
    List.iter
      (fun src ->
        Alcotest.(check bool) ("rejects: " ^ src) true
          (match Interp.compile src with
          | exception Parser.Parse_error _ -> true
          | exception Lexer.Lex_error _ -> true
          | exception Check.Check_error _ -> true
          | _ -> false))
      srcs
  in
  bad
    [
      "fun main() { return 1 }" (* missing ; *);
      "fun main( { return 1; }" (* bad params *);
      "fun main() { let = 3; }" (* missing name *);
      "fun () { return 1; }" (* missing function name *);
      "fun main() { if x { return 1; } }" (* missing parens *);
      "main() { return 1; }" (* missing fun *);
    ]

(* --- Static checker ------------------------------------------------------- *)

let test_check_rejects () =
  let reject msg src =
    Alcotest.(check bool) msg true
      (match Interp.compile src with
      | exception Check.Check_error _ -> true
      | _ -> false)
  in
  reject "unbound variable" "fun main() { return x; }";
  reject "unknown function" "fun main() { return f(1); }";
  reject "arity mismatch" "fun f(a, b) { return a; } fun main() { return f(1); }";
  reject "duplicate function" "fun f() { return 1; } fun f() { return 2; } fun main() { return 1; }";
  reject "duplicate param" "fun f(a, a) { return a; } fun main() { return f(1, 2); }";
  reject "no main" "fun f() { return 1; }";
  reject "assign unbound" "fun main() { x = 3; return x; }";
  reject "unreachable code" "fun main() { return 1; return 2; }";
  reject "duplicate field" "fun main() { return C { a: 1, a: 2 }; }"

let test_check_accepts_scoping () =
  expect_value "params and lets in scope"
    "fun add(a, b) { let c = a + b; return c; }
     fun main(x) { let y = add(x, 10); return y; }"
    [ Value.Int 5 ] (Value.Int 15)

(* --- Interpreter ---------------------------------------------------------- *)

let test_interp_control_flow () =
  expect_value "while loop"
    "fun main(n) { let s = 0; let i = 0;
       while (i < n) { s = s + i; i = i + 1; }
       return s; }"
    [ Value.Int 10 ] (Value.Int 45);
  expect_value "if statement"
    "fun main(x) { if (x > 2) { return 1; } else { return 2; } }"
    [ Value.Int 3 ] (Value.Int 1);
  expect_value "if without else"
    "fun main(x) { if (x > 2) { return 1; } return 0; }"
    [ Value.Int 0 ] (Value.Int 0);
  expect_value "recursion"
    "fun fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
     fun main(n) { return fib(n); }"
    [ Value.Int 10 ] (Value.Int 55)

let test_interp_structs () =
  expect_value "construction and projection"
    "fun main() { let p = Point { x: 3, y: 4 };
       return p.x * p.x + p.y * p.y; }"
    [] (Value.Int 25);
  expect_failure "missing field" "fun main() { let p = Point { x: 1 };
    return p.z; }" [] "no field"

let test_interp_builtins () =
  expect_value "to_addr" "fun main() { return to_addr(5) == @5; }" []
    (Value.Bool true);
  expect_value "min/max" "fun main() { return min(3, 7) + max(3, 7); }" []
    (Value.Int 10)

let test_interp_aborts () =
  expect_failure "explicit abort" {|fun main() { abort "bye"; }|} [] "bye";
  expect_failure "assert" {|fun main() { assert(1 == 2, "math"); }|} []
    "math";
  expect_failure "division by zero" "fun main() { return 1 / 0; }" []
    "division";
  expect_failure "modulo by zero" "fun main() { return 1 % 0; }" [] "modulo";
  expect_failure "type error" "fun main() { return 1 + true; }" []
    "expected int";
  expect_failure "missing resource" "fun main() { return load(@5, Nope); }"
    [] "missing resource"

let test_interp_gas () =
  let src = "fun main() { let i = 0; while (true) { i = i + 1; } }" in
  let c = Interp.compile src in
  let r =
    Runtime.Seq.run ~storage:(fun _ -> None)
      [| Interp.txn ~gas_limit:10_000 c ~args:[] |]
  in
  match r.outputs.(0) with
  | Blockstm_kernel.Txn.Failed m ->
      Alcotest.(check bool) "out of gas" true
        (String.length m > 0)
  | _ -> Alcotest.fail "expected out-of-gas failure"

let test_interp_gas_accounting () =
  let c =
    Interp.compile
      "fun main(n) { let s = 0; let i = 0;
         while (i < n) { s = s + i; i = i + 1; }
         return s; }"
  in
  let gas n =
    let store = Runtime.Store.create () in
    let read = Runtime.Store.reader store in
    let write _ _ = () in
    let effects =
      {
        Blockstm_kernel.Txn.read;
        write;
        delta =
          Blockstm_kernel.Txn.rmw_delta ~read ~write
            ~as_counter:Value.as_counter ~of_counter:Value.of_counter;
      }
    in
    let value, gas = Interp.run_with_gas c ~args:[ Value.Int n ] effects in
    Alcotest.(check bool) "sum correct" true
      (Value.equal value (Value.Int (n * (n - 1) / 2)));
    gas
  in
  let g10 = gas 10 and g100 = gas 100 in
  Alcotest.(check bool) "gas grows with work" true (g100 > g10);
  Alcotest.(check int) "gas deterministic" g10 (gas 10)

let test_interp_global_state () =
  let store = Runtime.Store.create () in
  Runtime.Store.set store
    (Loc.make ~addr:1 ~resource:"Counter")
    (Value.Struct ("Counter", [ ("value", Value.Int 41) ]));
  match
    run_script ~store Stdlib_contracts.counter_source [ Value.Addr 1 ]
  with
  | Ok (v, snapshot) ->
      Alcotest.(check bool) "returns 42" true (Value.equal v (Value.Int 42));
      Alcotest.(check int) "one write" 1 (List.length snapshot)
  | Error m -> Alcotest.failf "unexpected: %s" m

let test_interp_exists () =
  expect_value "exists false" "fun main() { return exists(@9, Thing); }" []
    (Value.Bool false)

(* --- Stdlib contracts through the engines ---------------------------------- *)

let test_coin_transfer_success () =
  let coin = Interp.compile Stdlib_contracts.coin_source in
  let store = Runtime.coin_genesis ~num_accounts:2 () in
  let txn =
    Interp.txn coin
      ~args:[ Value.Addr 1; Value.Addr 2; Value.Int 100; Value.Int 0 ]
  in
  let r = Runtime.Seq.run ~storage:(Runtime.Store.reader store) [| txn |] in
  (match r.outputs.(0) with
  | Blockstm_kernel.Txn.Success (Value.Int v) ->
      Alcotest.(check int) "sender balance" 999_999_900 v
  | o ->
      Alcotest.failf "unexpected: %a"
        (Blockstm_kernel.Txn.pp_output Value.pp)
        o);
  match
    List.find_opt
      (fun (l, _) -> Loc.equal l (Loc.make ~addr:2 ~resource:"Coin"))
      r.snapshot
  with
  | Some (_, Value.Struct (_, [ ("value", Value.Int b) ])) ->
      Alcotest.(check int) "recipient credited" 1_000_000_100 b
  | _ -> Alcotest.fail "recipient coin missing"

let test_coin_transfer_failures () =
  let coin = Interp.compile Stdlib_contracts.coin_source in
  let store = Runtime.coin_genesis ~initial_balance:50 ~num_accounts:2 () in
  let run args =
    let r =
      Runtime.Seq.run ~storage:(Runtime.Store.reader store)
        [| Interp.txn coin ~args |]
    in
    r.outputs.(0)
  in
  (match run [ Value.Addr 1; Value.Addr 2; Value.Int 100; Value.Int 0 ] with
  | Blockstm_kernel.Txn.Failed m ->
      Alcotest.(check bool) "insufficient" true
        (String.length m > 0)
  | _ -> Alcotest.fail "expected insufficient balance");
  match run [ Value.Addr 1; Value.Addr 2; Value.Int 10; Value.Int 7 ] with
  | Blockstm_kernel.Txn.Failed _ -> ()
  | _ -> Alcotest.fail "expected sequence mismatch"

let test_coin_block_parallel_equals_sequential () =
  let coin = Interp.compile Stdlib_contracts.coin_source in
  let n_accounts = 10 in
  let store = Runtime.coin_genesis ~num_accounts:n_accounts () in
  let rng = Blockstm_workload.Rng.create 31 in
  let next_seq = Array.make (n_accounts + 1) 0 in
  let txns =
    Array.init 150 (fun _ ->
        let s, r = Blockstm_workload.Rng.distinct_pair rng n_accounts in
        let sender = s + 1 and recipient = r + 1 in
        let seq = next_seq.(sender) in
        next_seq.(sender) <- seq + 1;
        Interp.txn coin
          ~args:
            [
              Value.Addr sender;
              Value.Addr recipient;
              Value.Int (1 + Blockstm_workload.Rng.int rng 20);
              Value.Int seq;
            ])
  in
  let seq = Runtime.Seq.run ~storage:(Runtime.Store.reader store) txns in
  let par =
    Runtime.Bstm.run
      ~config:{ Runtime.Bstm.default_config with num_domains = 4 }
      ~storage:(Runtime.Store.reader store) txns
  in
  Alcotest.(check int) "snapshot sizes" (List.length seq.snapshot)
    (List.length par.snapshot);
  List.iter2
    (fun (l1, v1) (l2, v2) ->
      Alcotest.(check bool) "loc" true (Loc.equal l1 l2);
      Alcotest.(check bool) "value" true (Value.equal v1 v2))
    seq.snapshot par.snapshot;
  Array.iteri
    (fun i o ->
      Alcotest.(check bool) "output" true
        (Blockstm_kernel.Txn.equal_output Value.equal o par.outputs.(i)))
    seq.outputs

(* Injected fault: a transaction that always runs out of gas. It moves
   coin between the accounts its neighbouring transfers touch, then loops,
   so every incarnation ends on gas with writes staged. The block must
   commit it as [Failed] out of gas with none of its writes, exactly as the
   sequential run does, on both VMs and on 1 and 2 domains. *)
let burn_source =
  {|
fun main(a, b) {
  let x = load(a, Coin);
  store(a, Coin, Coin { value: x.value - 1 });
  let y = load(b, Coin);
  store(b, Coin, Coin { value: y.value + 1 });
  while (true) { x = load(a, Coin); }
}
|}

let test_out_of_gas_commits_failed () =
  let n_accounts = 3 in
  let store = Runtime.coin_genesis ~num_accounts:n_accounts () in
  let out_of_gas =
    Blockstm_kernel.Txn.Failed (Printexc.to_string (Interp.Abort "out of gas"))
  in
  let block vm =
    let coin = Runtime.load ~vm Stdlib_contracts.coin_source in
    let burn = Runtime.load ~vm burn_source in
    let next_seq = Array.make (n_accounts + 1) 0 in
    let pair i = (1 + (i mod n_accounts), 1 + ((i + 1) mod n_accounts)) in
    Array.init 24 (fun i ->
        if i mod 3 = 1 then
          (* The accounts of the transfer before it. *)
          let a, b = pair (i - 1) in
          Runtime.script_txn ~gas_limit:20_000 burn
            ~args:[ Value.Addr a; Value.Addr b ]
        else
          let sender, recipient = pair i in
          let seq = next_seq.(sender) in
          next_seq.(sender) <- seq + 1;
          Runtime.script_txn coin
            ~args:
              [
                Value.Addr sender; Value.Addr recipient; Value.Int (10 + i);
                Value.Int seq;
              ])
  in
  List.iter
    (fun vm ->
      let txns = block vm in
      let storage = Runtime.Store.reader store in
      let seq = Runtime.Seq.run ~storage txns in
      Array.iteri
        (fun i o ->
          Alcotest.(check bool)
            (Fmt.str "%s: sequential tx%d %s" (Runtime.vm_name vm) i
               (if i mod 3 = 1 then "out of gas" else "succeeds"))
            true
            (if i mod 3 = 1 then
               Blockstm_kernel.Txn.equal_output Value.equal out_of_gas o
             else
               match o with
               | Blockstm_kernel.Txn.Success _ -> true
               | Blockstm_kernel.Txn.Failed _ -> false))
        seq.outputs;
      List.iter
        (fun domains ->
          let name = Fmt.str "%s, %d domains" (Runtime.vm_name vm) domains in
          let par =
            match
              Tutil.with_timeout ~secs:60. (fun () ->
                  Runtime.Bstm.run
                    ~config:
                      { Runtime.Bstm.default_config with num_domains = domains }
                    ~storage txns)
            with
            | Ok r -> r
            | Error e -> raise e
          in
          Alcotest.(check bool) (name ^ ": snapshot = sequential") true
            (List.equal
               (fun (l, v) (l', v') -> Loc.equal l l' && Value.equal v v')
               seq.snapshot par.snapshot);
          Array.iteri
            (fun i o ->
              Alcotest.(check bool)
                (Fmt.str "%s: tx%d output = sequential" name i)
                true
                (Blockstm_kernel.Txn.equal_output Value.equal o
                   par.outputs.(i)))
            seq.outputs)
        [ 1; 2 ])
    [ Runtime.Compiled; Runtime.Tree_walk ]

let test_auction_contract () =
  let auction = Interp.compile Stdlib_contracts.auction_source in
  let house = 500 in
  let store =
    Runtime.auction_genesis ~num_bidders:5 ~auction_house:house ()
  in
  (* Bids: 10, 5 (loses), 20 — winner is bidder 3 with 20; bidder 1
     refunded. *)
  let bids = [ (1, 10); (2, 5); (3, 20) ] in
  let txns =
    Array.of_list
      (List.map
         (fun (b, amt) ->
           Interp.txn auction
             ~args:[ Value.Addr house; Value.Addr b; Value.Int amt ])
         bids)
  in
  let r = Runtime.Seq.run ~storage:(Runtime.Store.reader store) txns in
  let outcomes =
    Array.map
      (function
        | Blockstm_kernel.Txn.Success (Value.Int i) -> i
        | o ->
            Alcotest.failf "unexpected: %a"
              (Blockstm_kernel.Txn.pp_output Value.pp)
              o)
      r.outputs
  in
  Alcotest.(check (array int)) "lead changes" [| 1; 0; 1 |] outcomes;
  (match
     List.find_opt
       (fun (l, _) -> Loc.equal l (Loc.make ~addr:house ~resource:"Auction"))
       r.snapshot
   with
  | Some (_, Value.Struct (_, fields)) ->
      Alcotest.(check bool) "highest bid 20" true
        (Value.equal (List.assoc "highest_bid" fields) (Value.Int 20));
      Alcotest.(check bool) "winner is 3" true
        (Value.equal (List.assoc "highest_bidder" fields) (Value.Addr 3))
  | _ -> Alcotest.fail "auction resource missing");
  (* Bidder 1 must have been refunded in full. *)
  match
    List.find_opt
      (fun (l, _) -> Loc.equal l (Loc.make ~addr:1 ~resource:"Coin"))
      r.snapshot
  with
  | Some (_, Value.Struct (_, [ ("value", Value.Int b) ])) ->
      Alcotest.(check int) "refunded" 1_000_000_000 b
  | _ -> Alcotest.fail "bidder 1 coin missing"

let test_amm_swap () =
  let amm = Interp.compile Stdlib_contracts.amm_source in
  let pool = 600 in
  let store =
    Runtime.amm_genesis ~reserve1:1_000_000 ~reserve2:1_000_000
      ~num_traders:3 ~pool ()
  in
  let swap args =
    let r =
      Runtime.Seq.run ~storage:(Runtime.Store.reader store)
        [| Interp.txn amm ~args |]
    in
    (r.outputs.(0), r.snapshot)
  in
  (* Constant-product math: dy = y*dx*997/(x*1000+dx*997). *)
  (match swap [ Value.Addr pool; Value.Addr 1; Value.Int 10_000;
                Value.Int 1 ] with
  | Blockstm_kernel.Txn.Success (Value.Int out), snapshot ->
      let expected = 1_000_000 * (10_000 * 997)
                     / ((1_000_000 * 1000) + (10_000 * 997)) in
      Alcotest.(check int) "constant-product output" expected out;
      (match
         List.find_opt
           (fun (l, _) -> Loc.equal l (Loc.make ~addr:pool ~resource:"Pool"))
           snapshot
       with
      | Some (_, Value.Struct (_, fields)) ->
          Alcotest.(check bool) "reserve1 grew" true
            (Value.equal (List.assoc "reserve1" fields)
               (Value.Int 1_010_000));
          Alcotest.(check bool) "reserve2 shrank" true
            (Value.equal (List.assoc "reserve2" fields)
               (Value.Int (1_000_000 - expected)))
      | _ -> Alcotest.fail "pool resource missing")
  | o, _ ->
      Alcotest.failf "unexpected: %a"
        (Blockstm_kernel.Txn.pp_output Value.pp)
        (fst (o, ())));
  (* Failure modes. *)
  (match swap [ Value.Addr pool; Value.Addr 1; Value.Int 0; Value.Int 1 ] with
  | Blockstm_kernel.Txn.Failed _, _ -> ()
  | _ -> Alcotest.fail "zero amount must fail");
  match swap [ Value.Addr pool; Value.Addr 1; Value.Int 5; Value.Int 3 ] with
  | Blockstm_kernel.Txn.Failed _, _ -> ()
  | _ -> Alcotest.fail "unknown coin must fail"

let test_amm_block_parallel () =
  (* A block of swaps against one pool: maximal contention; Block-STM must
     produce the exact sequential pool state (order-sensitive because of
     price impact). *)
  let amm = Interp.compile Stdlib_contracts.amm_source in
  let pool = 600 in
  let num_traders = 8 in
  let store = Runtime.amm_genesis ~num_traders ~pool () in
  let rng = Blockstm_workload.Rng.create 91 in
  let txns =
    Array.init 120 (fun _ ->
        let trader = 1 + Blockstm_workload.Rng.int rng num_traders in
        let coin = 1 + Blockstm_workload.Rng.int rng 2 in
        let amount = 1_000 + Blockstm_workload.Rng.int rng 50_000 in
        Interp.txn amm
          ~args:
            [ Value.Addr pool; Value.Addr trader; Value.Int amount;
              Value.Int coin ])
  in
  let seq = Runtime.Seq.run ~storage:(Runtime.Store.reader store) txns in
  let par =
    Runtime.Bstm.run
      ~config:{ Runtime.Bstm.default_config with num_domains = 4 }
      ~storage:(Runtime.Store.reader store) txns
  in
  Alcotest.(check bool) "snapshots equal" true
    (List.for_all2
       (fun (l1, v1) (l2, v2) -> Loc.equal l1 l2 && Value.equal v1 v2)
       seq.snapshot par.snapshot);
  Array.iteri
    (fun i o ->
      Alcotest.(check bool) "outputs equal" true
        (Blockstm_kernel.Txn.equal_output Value.equal o par.outputs.(i)))
    seq.outputs

let test_nft_mint_sequential_ids () =
  let nft = Interp.compile Stdlib_contracts.nft_source in
  let registry = 900 in
  let store = Runtime.nft_genesis ~num_minters:6 ~registry () in
  let txns =
    Array.init 12 (fun i ->
        Interp.txn nft
          ~args:[ Value.Addr registry; Value.Addr ((i mod 6) + 1) ])
  in
  let seq = Runtime.Seq.run ~storage:(Runtime.Store.reader store) txns in
  let par =
    Runtime.Bstm.run
      ~config:{ Runtime.Bstm.default_config with num_domains = 4 }
      ~storage:(Runtime.Store.reader store) txns
  in
  Array.iteri
    (fun i o ->
      (* Preset order forces ids 0,1,2,... even under parallel execution. *)
      (match o with
      | Blockstm_kernel.Txn.Success (Value.Int id) ->
          Alcotest.(check int) "sequential id" i id
      | o ->
          Alcotest.failf "unexpected: %a"
            (Blockstm_kernel.Txn.pp_output Value.pp)
            o);
      Alcotest.(check bool) "parallel agrees" true
        (Blockstm_kernel.Txn.equal_output Value.equal o par.outputs.(i)))
    seq.outputs

(* --- Value hash ------------------------------------------------------------ *)

(* [Value.hash] feeds every state root, so its values are pinned: they are
   the hashes the byte loop computed when it ran through [String.iter].
   The loop now keeps its accumulator in a local, so hashing a struct
   allocates nothing. *)
let test_value_hash () =
  let coin = Value.Struct ("Coin", [ ("value", Value.Int 1_000_000) ]) in
  let nested =
    Value.Struct
      ( "Account",
        [
          ("owner", Value.Addr 7);
          ("balance", coin);
          ( "meta",
            Value.Struct
              ( "Meta",
                [
                  ("seq", Value.Int 3);
                  ("frozen", Value.Bool false);
                  ("tag", Value.Str "vip");
                ] ) );
        ] )
  in
  List.iter
    (fun (name, v, expected) ->
      Alcotest.(check int) ("hash " ^ name) expected (Value.hash v))
    [
      ("coin", coin, 517154398179699467);
      ("nested struct", nested, 2988245154585903258);
      ( "non-ASCII Str",
        Value.Str "caf\xc3\xa9 \xe2\x82\xac",
        3349482561535063222 );
      ("empty Str", Value.Str "", 4319687497885033238);
      ("Int (-3)", Value.Int (-3), -7963307313);
      ("Unit", Value.Unit, 17);
    ];
  let calls = 1_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Value.hash nested))
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 0. then
    Alcotest.failf "Value.hash: %.0f minor words over %d hashes of a struct"
      words calls

let suite =
  [
    Alcotest.test_case "lexer: basics" `Quick test_lexer_basics;
    Alcotest.test_case "lexer: comments and lines" `Quick
      test_lexer_comments_and_lines;
    Alcotest.test_case "lexer: operators" `Quick test_lexer_operators;
    Alcotest.test_case "lexer: errors" `Quick test_lexer_errors;
    Alcotest.test_case "parser: precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser: conditional expression" `Quick
      test_parser_if_expr;
    Alcotest.test_case "parser: rejects malformed input" `Quick
      test_parser_errors;
    Alcotest.test_case "checker: rejects bad programs" `Quick
      test_check_rejects;
    Alcotest.test_case "checker: scoping accepted" `Quick
      test_check_accepts_scoping;
    Alcotest.test_case "interp: control flow" `Quick test_interp_control_flow;
    Alcotest.test_case "interp: structs" `Quick test_interp_structs;
    Alcotest.test_case "interp: builtins" `Quick test_interp_builtins;
    Alcotest.test_case "interp: aborts and errors" `Quick test_interp_aborts;
    Alcotest.test_case "interp: gas metering" `Quick test_interp_gas;
    Alcotest.test_case "interp: gas accounting deterministic" `Quick
      test_interp_gas_accounting;
    Alcotest.test_case "interp: global state" `Quick test_interp_global_state;
    Alcotest.test_case "interp: exists" `Quick test_interp_exists;
    Alcotest.test_case "coin: transfer success" `Quick
      test_coin_transfer_success;
    Alcotest.test_case "coin: failure modes" `Quick test_coin_transfer_failures;
    Alcotest.test_case "coin: parallel block = sequential" `Quick
      test_coin_block_parallel_equals_sequential;
    Alcotest.test_case "coin: always out of gas commits Failed" `Quick
      test_out_of_gas_commits_failed;
    Alcotest.test_case "auction contract" `Quick test_auction_contract;
    Alcotest.test_case "amm: constant-product swap" `Quick test_amm_swap;
    Alcotest.test_case "amm: contended block = sequential" `Quick
      test_amm_block_parallel;
    Alcotest.test_case "nft: preset order forces ids" `Quick
      test_nft_mint_sequential_ids;
    Alcotest.test_case "value: hash pinned, allocates nothing" `Quick
      test_value_hash;
  ]
