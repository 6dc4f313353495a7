(** The compiled MiniMove VM: an ahead-of-time pass lowering the checked AST
    into nested OCaml closures, observationally identical to the tree-walk
    {!Interp} (same outputs, same read/write descriptors, same gas totals,
    same failure messages) but several times faster:

    - {e slot-indexed frames} — variable references resolve to array slots
      at compile time ([Array.unsafe_get] at runtime) instead of per-access
      hashtable probes. [let] of a name already in scope reuses the existing
      slot, mirroring the interpreter's [Hashtbl.replace] semantics where a
      branch-local rebinding mutates the outer binding.
    - {e pre-resolved calls} — user function calls bind directly to the
      callee's compiled body (backpatched, so recursion and forward
      references work); builtins are inlined.
    - {e constant folding} — operator trees over literals collapse to their
      value at compile time while keeping the original node-count gas, so
      gas consumption is unchanged. Operations that could abort at runtime
      (division by zero, type errors) are left dynamic.
    - {e batched gas} — gas is charged in per-basic-block batches instead of
      per AST node. A batch never spans an {e effect point} (a storage read
      or write) or a control-flow join, so at every effect the cumulative
      gas equals the tree-walk interpreter's exactly; total gas on every
      completed path is identical. The only observable latitude: a
      transaction that aborts mid-batch (type error, failed assert) may
      instead observe out-of-gas when the whole batch doesn't fit in the
      remaining gas — the abort is never later than tree-walk, and the
      recorded read- and write-sets are unaffected.
    - {e interned location keys} — see {!section-intern} below.

    A [compiled] script is immutable after construction and shared read-only
    across all incarnations and domains: every closure only reads its
    captured compile-time data, and all per-execution state (the frame
    array, the gas counter, the effects handle) lives in per-call values, so
    the compiled form is safe under Block-STM's suspend/resume — a
    suspended continuation captures its own frame and gas context, never
    anything shared. *)

open Blockstm_kernel
open Mv_value

(* Escape-hatch exceptions: [Interp.Abort] is reused so that failure
   messages — hence the engine's [Failed] outputs — are byte-identical to
   the tree-walk VM's. *)
exception Ret of Value.t

let abort msg = raise (Interp.Abort msg)

(* Per-execution state threaded through every closure. *)
type rt = {
  effects : (Loc.t, Value.t) Txn.effects;
  mutable gas : int;
}

let burn rt cost =
  rt.gas <- rt.gas - cost;
  if rt.gas < 0 then raise (Interp.Abort "out of gas")

let as_int = function
  | Value.Int i -> i
  | v -> abort (Fmt.str "expected int, got %s" (Value.type_name v))

let as_bool = function
  | Value.Bool b -> b
  | v -> abort (Fmt.str "expected bool, got %s" (Value.type_name v))

let as_addr = function
  | Value.Addr a -> a
  | v -> abort (Fmt.str "expected address, got %s" (Value.type_name v))

(* Shared boolean results: booleans are the most common intermediate value
   (asserts, conditions), not worth allocating per evaluation. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false
let vbool b = if b then vtrue else vfalse

(* --- Location key interning ---------------------------------------------- *)
(* One pre-populated key table per static resource name, built once at
   compile time and shared read-only across every incarnation and domain:
   the hot path of a storage access is a bounds check plus an
   [Array.unsafe_get], with zero allocation. Addresses outside the
   preallocated range (or negative, reachable via [to_addr]) fall back to
   allocating a fresh key, which is what the tree-walk VM does on every
   access. tools/ci.sh greps the body of [intern_get] to keep the hit path
   allocation-free. *)

type intern = { i_resource : string; i_locs : Loc.t array }

let intern_make ~capacity resource =
  {
    i_resource = resource;
    i_locs = Array.init capacity (fun addr -> Loc.make ~addr ~resource);
  }

let intern_slow (t : intern) addr = Loc.make ~addr ~resource:t.i_resource

(** Location key for [addr] under this table's resource. Hit path (addr
    within the preallocated range): a bounds check plus [Array.unsafe_get],
    zero allocation — this body is grep-audited by tools/ci.sh, keep it
    allocation- and lock-free. Miss path: allocate a fresh key, exactly what
    the tree-walk VM does on every access, so behaviour (not cost) is
    range-independent. *)
let intern_get (t : intern) (addr : int) : Loc.t =
  if addr >= 0 && addr < Array.length t.i_locs then Array.unsafe_get t.i_locs addr
  else intern_slow t addr

(** Default per-resource key-table capacity (addresses [0..1023]). *)
let default_intern_addrs = 1024

(* Field projection with a pointer-equality fast path: field-name strings
   are interned program-wide at compile time (see [cenv.env_pool]), so a
   struct built by this program's own [Record] expressions carries the same
   physical strings every [Field] site probes with — the common case under
   an executor at steady state, where most loaded structs were written by
   earlier transactions of the same contract. Structs loaded from genesis
   state fall back to structural comparison, exactly [List.assoc_opt]'s
   behaviour. *)
let rec find_field (fld : string) (fields : (string * Value.t) list) :
    Value.t option =
  match fields with
  | [] -> None
  | (f, v) :: rest ->
      if f == fld || String.equal f fld then Some v else find_field fld rest

(* --- Compiled code representation ---------------------------------------- *)

(* A compiled expression. [e_pre] is the gas the {e enclosing batch} charges
   before [e_run] is invoked: the statically known cost of the expression's
   leading effect-free segment (at least the node's own unit). [e_closed]
   marks expressions whose [e_run] charges gas internally or performs
   effects — a later sibling's [e_pre] must then be charged {e after} it
   runs, not hoisted before. [e_const] is the compile-time value for folded
   constants (their [e_pre] still carries the full subtree node count). *)
type ecode = {
  e_pre : int;
  e_run : rt -> Value.t array -> Value.t;
  e_closed : bool;
  e_const : Value.t option;
}

(* A compiled statement (same conventions; statements yield no value). *)
type scode = {
  s_pre : int;
  s_run : rt -> Value.t array -> unit;
  s_closed : bool;
}

(* A compiled function. [c_body]/[c_pre]/[c_nslots] are backpatched after
   every function record exists, so calls — including recursive and forward
   ones — bind to the record and read the final values at run time. *)
type cfunc = {
  c_name : string;
  c_params : int;
  mutable c_nslots : int;
  mutable c_pre : int;
  mutable c_body : rt -> Value.t array -> Value.t;
}

type compiled = { p_funcs : (string * cfunc) list }

(* Compile-time environment: function records, interned key tables, and the
   field-name string pool backing {!find_field}'s fast path. *)
type cenv = {
  env_funcs : (string * cfunc) list;
  env_interns : (string * intern) list;
  env_pool : (string, string) Hashtbl.t;
}

let intern_str (env : cenv) (s : string) : string =
  match Hashtbl.find_opt env.env_pool s with
  | Some s' -> s'
  | None ->
      Hashtbl.add env.env_pool s s;
      s

let intern_of (env : cenv) resource : intern =
  match List.assoc_opt resource env.env_interns with
  | Some t -> t
  | None -> invalid_arg "Compile: unregistered resource" (* unreachable *)

(* --- Gas batch planning ---------------------------------------------------- *)

(* Plan the batch charges for a sequence of codes: [hoist] is the gas of the
   leading segment (charged by the enclosing batch before element 0 runs);
   [charge.(i)] is the gas to burn immediately before element [i] runs —
   non-zero only at segment starts, covering every element up to and
   including the segment's terminating closed element. Segments end after
   each closed element, so no batch spans an effect point. *)
let plan_batches (pres : int array) (closeds : bool array) : int * int array =
  let n = Array.length pres in
  let charge = Array.make n 0 in
  let hoist = ref 0 in
  let anchor = ref (-1) in
  for i = 0 to n - 1 do
    (if !anchor < 0 then hoist := !hoist + pres.(i)
     else charge.(!anchor) <- charge.(!anchor) + pres.(i));
    if closeds.(i) then anchor := i + 1
  done;
  (!hoist, charge)

(* Fold a sequence of expressions into one closure evaluating each in order
   into [dst.(i)], burning the planned batch charges in between. *)
let run_into (codes : ecode array) (charge : int array) :
    rt -> Value.t array -> Value.t array -> unit =
  let n = Array.length codes in
  let rec build i =
    if i >= n then fun _ _ _ -> ()
    else
      let f = codes.(i).e_run and c = charge.(i) and rest = build (i + 1) in
      if c = 0 then (fun rt fr dst ->
        Array.unsafe_set dst i (f rt fr);
        rest rt fr dst)
      else fun rt fr dst ->
        burn rt c;
        Array.unsafe_set dst i (f rt fr);
        rest rt fr dst
  in
  build 0

let seq_exprs (codes : ecode array) :
    int * bool * (rt -> Value.t array -> Value.t array -> unit) =
  let hoist, charge =
    plan_batches
      (Array.map (fun c -> c.e_pre) codes)
      (Array.map (fun c -> c.e_closed) codes)
  in
  (hoist, Array.exists (fun c -> c.e_closed) codes, run_into codes charge)

(* Same for statements. *)
let run_stmts (codes : scode array) (charge : int array) :
    rt -> Value.t array -> unit =
  let n = Array.length codes in
  let rec build i =
    if i >= n then fun _ _ -> ()
    else
      let f = codes.(i).s_run and c = charge.(i) and rest = build (i + 1) in
      if c = 0 then (fun rt fr ->
        f rt fr;
        rest rt fr)
      else fun rt fr ->
        burn rt c;
        f rt fr;
        rest rt fr
  in
  build 0

(* --- Expression combinators ------------------------------------------------ *)

let const ~pre v : ecode =
  { e_pre = pre; e_run = (fun _ _ -> v); e_closed = false; e_const = Some v }

(* Constant-fold a unary construction: if the operand is a constant and [k]
   does not abort on it, the node collapses to [const] (with the full
   subtree gas); otherwise build the specialized closure [dyn]. *)
let fold1 ~pre (a : ecode) (k : Value.t -> Value.t) (dyn : unit -> ecode) :
    ecode =
  match a.e_const with
  | Some v -> (
      match k v with
      | w -> const ~pre w
      | exception Interp.Abort _ -> dyn ())
  | None -> dyn ()

(* Apply [k] to one evaluated operand; fold when the operand is a constant
   and [k] does not abort on it. [pre_extra] is the operator node's cost. *)
let map1 ~pre_extra (a : ecode) (k : Value.t -> Value.t) : ecode =
  fold1 ~pre:(pre_extra + a.e_pre) a k (fun () ->
      let fa = a.e_run in
      {
        e_pre = pre_extra + a.e_pre;
        e_run = (fun rt fr -> k (fa rt fr));
        e_closed = a.e_closed;
        e_const = None;
      })

(* Sequence two operands under the batching rule and apply [k]. *)
let seq2 ~pre_extra (a : ecode) (b : ecode) (k : Value.t -> Value.t -> Value.t)
    : ecode =
  let fa = a.e_run and fb = b.e_run in
  if a.e_closed then
    let cb = b.e_pre in
    {
      e_pre = pre_extra + a.e_pre;
      e_run =
        (fun rt fr ->
          let va = fa rt fr in
          burn rt cb;
          let vb = fb rt fr in
          k va vb);
      e_closed = true;
      e_const = None;
    }
  else
    {
      e_pre = pre_extra + a.e_pre + b.e_pre;
      e_run =
        (fun rt fr ->
          let va = fa rt fr in
          let vb = fb rt fr in
          k va vb);
      e_closed = b.e_closed;
      e_const = None;
    }

let seq2_fold ~pre_extra a b (k : Value.t -> Value.t -> Value.t) : ecode =
  match (a.e_const, b.e_const) with
  | Some va, Some vb -> (
      match k va vb with
      | w -> const ~pre:(pre_extra + a.e_pre + b.e_pre) w
      | exception Interp.Abort _ -> seq2 ~pre_extra a b k)
  | _ -> seq2 ~pre_extra a b k

(* Exactly the tree-walk interpreter's operator semantics (argument checks
   in the same order, same messages). *)
let apply_binop : Ast.binop -> Value.t -> Value.t -> Value.t = function
  | Ast.Add -> fun va vb -> Value.Int (as_int va + as_int vb)
  | Ast.Sub -> fun va vb -> Value.Int (as_int va - as_int vb)
  | Ast.Mul -> fun va vb -> Value.Int (as_int va * as_int vb)
  | Ast.Div ->
      fun va vb ->
        let d = as_int vb in
        if d = 0 then abort "division by zero";
        Value.Int (as_int va / d)
  | Ast.Mod ->
      fun va vb ->
        let d = as_int vb in
        if d = 0 then abort "modulo by zero";
        Value.Int (as_int va mod d)
  | Ast.Eq -> fun va vb -> vbool (Value.equal va vb)
  | Ast.Neq -> fun va vb -> vbool (not (Value.equal va vb))
  | Ast.Lt -> fun va vb -> vbool (as_int va < as_int vb)
  | Ast.Le -> fun va vb -> vbool (as_int va <= as_int vb)
  | Ast.Gt -> fun va vb -> vbool (as_int va > as_int vb)
  | Ast.Ge -> fun va vb -> vbool (as_int va >= as_int vb)
  | Ast.And | Ast.Or -> assert false (* short-circuit, handled separately *)

(* Binop compilation. When the left operand is effect-free the whole node is
   one batch segment and the operator body is inlined into a single closure
   (saving an indirect call per node over routing through {!apply_binop});
   the bodies replicate the tree-walk interpreter's expressions verbatim,
   preserving argument-check order and messages. A closed left operand
   needs the interleaved batch charge, handled by the generic {!seq2}. *)
let compile_binop (op : Ast.binop) (ca : ecode) (cb : ecode) : ecode =
  let dyn () =
    if ca.e_closed then seq2 ~pre_extra:1 ca cb (apply_binop op)
    else
      let fa = ca.e_run and fb = cb.e_run in
      let mk e_run =
        {
          e_pre = 1 + ca.e_pre + cb.e_pre;
          e_run;
          e_closed = cb.e_closed;
          e_const = None;
        }
      in
      match op with
      | Ast.Add ->
          mk (fun rt fr ->
              let va = fa rt fr in
              let vb = fb rt fr in
              Value.Int (as_int va + as_int vb))
      | Ast.Sub ->
          mk (fun rt fr ->
              let va = fa rt fr in
              let vb = fb rt fr in
              Value.Int (as_int va - as_int vb))
      | Ast.Mul ->
          mk (fun rt fr ->
              let va = fa rt fr in
              let vb = fb rt fr in
              Value.Int (as_int va * as_int vb))
      | Ast.Div ->
          mk (fun rt fr ->
              let va = fa rt fr in
              let vb = fb rt fr in
              let d = as_int vb in
              if d = 0 then abort "division by zero";
              Value.Int (as_int va / d))
      | Ast.Mod ->
          mk (fun rt fr ->
              let va = fa rt fr in
              let vb = fb rt fr in
              let d = as_int vb in
              if d = 0 then abort "modulo by zero";
              Value.Int (as_int va mod d))
      | Ast.Eq ->
          mk (fun rt fr ->
              let va = fa rt fr in
              let vb = fb rt fr in
              vbool (Value.equal va vb))
      | Ast.Neq ->
          mk (fun rt fr ->
              let va = fa rt fr in
              let vb = fb rt fr in
              vbool (not (Value.equal va vb)))
      | Ast.Lt ->
          mk (fun rt fr ->
              let va = fa rt fr in
              let vb = fb rt fr in
              vbool (as_int va < as_int vb))
      | Ast.Le ->
          mk (fun rt fr ->
              let va = fa rt fr in
              let vb = fb rt fr in
              vbool (as_int va <= as_int vb))
      | Ast.Gt ->
          mk (fun rt fr ->
              let va = fa rt fr in
              let vb = fb rt fr in
              vbool (as_int va > as_int vb))
      | Ast.Ge ->
          mk (fun rt fr ->
              let va = fa rt fr in
              let vb = fb rt fr in
              vbool (as_int va >= as_int vb))
      | Ast.And | Ast.Or -> assert false
  in
  match (ca.e_const, cb.e_const) with
  | Some va, Some vb -> (
      match apply_binop op va vb with
      | w -> const ~pre:(1 + ca.e_pre + cb.e_pre) w
      | exception Interp.Abort _ -> dyn ())
  | _ -> dyn ()

(* --- The expression compiler ---------------------------------------------- *)

(* Recognize a variable reference for address-operand fusion. *)
let slot_of (scope : (string * int) list) : Ast.expr -> int option = function
  | Ast.Var x -> List.assoc_opt x scope
  | _ -> None

let rec compile_expr (env : cenv) (scope : (string * int) list) (e : Ast.expr)
    : ecode =
  match e with
  | Ast.Int i -> const ~pre:1 (Value.Int i)
  | Ast.Bool b -> const ~pre:1 (Value.Bool b)
  | Ast.Str s -> const ~pre:1 (Value.Str s)
  | Ast.Addr a -> const ~pre:1 (Value.Addr a)
  | Ast.Unit -> const ~pre:1 Value.Unit
  | Ast.Var x -> (
      match List.assoc_opt x scope with
      | Some slot ->
          {
            e_pre = 1;
            e_run = (fun _ fr -> Array.unsafe_get fr slot);
            e_closed = false;
            e_const = None;
          }
      | None -> invalid_arg "Compile: unbound variable" (* unreachable *))
  | Ast.Unop (Ast.Not, a) ->
      let ca = compile_expr env scope a in
      let pre = 1 + ca.e_pre in
      fold1 ~pre ca
        (fun v -> Value.Bool (not (as_bool v)))
        (fun () ->
          let fa = ca.e_run in
          {
            e_pre = pre;
            e_run = (fun rt fr -> vbool (not (as_bool (fa rt fr))));
            e_closed = ca.e_closed;
            e_const = None;
          })
  | Ast.Unop (Ast.Neg, a) ->
      let ca = compile_expr env scope a in
      let pre = 1 + ca.e_pre in
      fold1 ~pre ca
        (fun v -> Value.Int (-as_int v))
        (fun () ->
          let fa = ca.e_run in
          {
            e_pre = pre;
            e_run = (fun rt fr -> Value.Int (-as_int (fa rt fr)));
            e_closed = ca.e_closed;
            e_const = None;
          })
  | Ast.Binop (Ast.And, a, b) -> compile_short_circuit env scope ~is_and:true a b
  | Ast.Binop (Ast.Or, a, b) -> compile_short_circuit env scope ~is_and:false a b
  | Ast.Binop (op, a, b) ->
      compile_binop op (compile_expr env scope a) (compile_expr env scope b)
  | Ast.Call (fname, args) -> compile_call env scope fname args
  | Ast.Field (a, fld) ->
      let fld = intern_str env fld in
      let err_missing = Fmt.str "no field '%s'" fld in
      let project v =
        match v with
        | Value.Struct (_, fields) -> (
            match find_field fld fields with
            | Some v -> v
            | None -> abort err_missing)
        | v ->
            abort (Fmt.str "field access on non-struct %s" (Value.type_name v))
      in
      (* [x.f] is the hottest expression form: fuse the variable read and
         inline the projection into a single closure. *)
      (match slot_of scope a with
      | Some slot ->
          {
            e_pre = 2;
            e_run =
              (fun _ fr ->
                match Array.unsafe_get fr slot with
                | Value.Struct (_, fields) -> (
                    match find_field fld fields with
                    | Some v -> v
                    | None -> abort err_missing)
                | v ->
                    abort
                      (Fmt.str "field access on non-struct %s"
                         (Value.type_name v)));
            e_closed = false;
            e_const = None;
          }
      | None ->
          let ca = compile_expr env scope a in
          let pre = 1 + ca.e_pre in
          fold1 ~pre ca project (fun () ->
              let fa = ca.e_run in
              {
                e_pre = pre;
                e_run =
                  (fun rt fr ->
                    match fa rt fr with
                    | Value.Struct (_, fields) -> (
                        match find_field fld fields with
                        | Some v -> v
                        | None -> abort err_missing)
                    | v ->
                        abort
                          (Fmt.str "field access on non-struct %s"
                             (Value.type_name v)));
                e_closed = ca.e_closed;
                e_const = None;
              }))
  | Ast.Record (name, fields) ->
      let fnames = Array.of_list (List.map (fun (f, _) -> intern_str env f) fields) in
      let codes =
        Array.of_list
          (List.map (fun (_, e) -> compile_expr env scope e) fields)
      in
      if Array.for_all (fun c -> c.e_const <> None) codes then
        let v =
          Value.Struct
            ( name,
              Array.to_list
                (Array.mapi
                   (fun i c -> (fnames.(i), Option.get c.e_const))
                   codes) )
        in
        const ~pre:(1 + Array.fold_left (fun s c -> s + c.e_pre) 0 codes) v
      else if Array.for_all (fun c -> not c.e_closed) codes then
        (* Effect-free fields: one batch segment, build the field list
           directly (left-to-right, like the interpreter's [List.map]). *)
        let rec build i =
          if i >= Array.length codes then fun _ _ -> []
          else
            let fname = fnames.(i) and f = codes.(i).e_run in
            let rest = build (i + 1) in
            fun rt fr ->
              let v = f rt fr in
              (fname, v) :: rest rt fr
        in
        let fields = build 0 in
        {
          e_pre = 1 + Array.fold_left (fun s c -> s + c.e_pre) 0 codes;
          e_run = (fun rt fr -> Value.Struct (name, fields rt fr));
          e_closed = false;
          e_const = None;
        }
      else
        let hoist, closed, fill = seq_exprs codes in
        let n = Array.length codes in
        {
          e_pre = 1 + hoist;
          e_run =
            (fun rt fr ->
              let tmp = Array.make n Value.Unit in
              fill rt fr tmp;
              let rec fields i acc =
                if i < 0 then acc
                else fields (i - 1) ((fnames.(i), tmp.(i)) :: acc)
              in
              Value.Struct (name, fields (n - 1) []));
          e_closed = closed;
          e_const = None;
        }
  | Ast.Exists (a, resource) ->
      let tbl = intern_of env resource in
      (match slot_of scope a with
      | Some slot ->
          {
            e_pre = 2;
            e_run =
              (fun rt fr ->
                let addr = as_addr (Array.unsafe_get fr slot) in
                burn rt 3;
                vbool
                  (Option.is_some (rt.effects.read (intern_get tbl addr))));
            e_closed = true;
            e_const = None;
          }
      | None ->
          let ca = compile_expr env scope a in
          let fa = ca.e_run in
          {
            e_pre = 1 + ca.e_pre;
            e_run =
              (fun rt fr ->
                let addr = as_addr (fa rt fr) in
                burn rt 3;
                vbool
                  (Option.is_some (rt.effects.read (intern_get tbl addr))));
            e_closed = true;
            e_const = None;
          })
  | Ast.Load (a, resource) ->
      let tbl = intern_of env resource in
      (match slot_of scope a with
      | Some slot ->
          (* [load(x, R)] with a variable address: fused slot read. *)
          {
            e_pre = 2;
            e_run =
              (fun rt fr ->
                let addr = as_addr (Array.unsafe_get fr slot) in
                burn rt 3;
                match rt.effects.read (intern_get tbl addr) with
                | Some v -> v
                | None ->
                    abort (Fmt.str "missing resource %s at @%d" resource addr));
            e_closed = true;
            e_const = None;
          }
      | None ->
          let ca = compile_expr env scope a in
          let fa = ca.e_run in
          {
            e_pre = 1 + ca.e_pre;
            e_run =
              (fun rt fr ->
                let addr = as_addr (fa rt fr) in
                burn rt 3;
                match rt.effects.read (intern_get tbl addr) with
                | Some v -> v
                | None ->
                    abort (Fmt.str "missing resource %s at @%d" resource addr));
            e_closed = true;
            e_const = None;
          })
  | Ast.If_expr (c, t, e) -> (
      let cc = compile_expr env scope c in
      let ct = compile_expr env scope t and ce = compile_expr env scope e in
      match cc.e_const with
      | Some (Value.Bool b) ->
          (* Fold to the taken branch; the condition's nodes still count. *)
          let br = if b then ct else ce in
          {
            e_pre = 1 + cc.e_pre + br.e_pre;
            e_run = br.e_run;
            e_closed = br.e_closed;
            e_const = br.e_const;
          }
      | _ ->
          let _, tc, _ = compile_test env scope c in
          let ft = ct.e_run and fe = ce.e_run in
          let pt = ct.e_pre and pe = ce.e_pre in
          {
            e_pre = 1 + cc.e_pre;
            e_run =
              (fun rt fr ->
                if tc rt fr then begin
                  burn rt pt;
                  ft rt fr
                end
                else begin
                  burn rt pe;
                  fe rt fr
                end);
            e_closed = true;
            e_const = None;
          })

(* Short-circuit [&&]/[||]: the right operand's batch is charged only on the
   path that evaluates it, exactly like the tree-walk VM. *)
and compile_short_circuit env scope ~is_and a b : ecode =
  let ca = compile_expr env scope a and cb = compile_expr env scope b in
  match ca.e_const with
  | Some (Value.Bool av) ->
      if av <> is_and then
        (* [false && _] / [true || _]: the right operand never runs. *)
        const ~pre:(1 + ca.e_pre) (Value.Bool av)
      else
        (* [true && b] / [false || b]: result is [b] as a bool. *)
        map1 ~pre_extra:(1 + ca.e_pre) cb (fun v -> Value.Bool (as_bool v))
  | _ ->
      let _, ta, _ = compile_test env scope a in
      let _, tb, _ = compile_test env scope b in
      let pb = cb.e_pre in
      {
        e_pre = 1 + ca.e_pre;
        e_run =
          (if is_and then fun rt fr ->
             if ta rt fr then begin
               burn rt pb;
               vbool (tb rt fr)
             end
             else vfalse
           else fun rt fr ->
             if ta rt fr then vtrue
             else begin
               burn rt pb;
               vbool (tb rt fr)
             end);
        e_closed = true;
        e_const = None;
      }

(* Calls: builtins are inlined (the checker guarantees their arity and that
   no user function shadows them); user calls evaluate arguments directly
   into the callee's fresh frame and enter the backpatched body. *)
and compile_call env scope fname args : ecode =
  let carg i = compile_expr env scope (List.nth args i) in
  match (fname, List.length args) with
  | ("to_addr" | "addr_of"), 1 ->
      map1 ~pre_extra:1 (carg 0) (fun v -> Value.Addr (as_int v))
  | "min", 2 ->
      seq2_fold ~pre_extra:1 (carg 0) (carg 1) (fun a b ->
          Value.Int (min (as_int a) (as_int b)))
  | "max", 2 ->
      seq2_fold ~pre_extra:1 (carg 0) (carg 1) (fun a b ->
          Value.Int (max (as_int a) (as_int b)))
  | _ -> (
      match List.assoc_opt fname env.env_funcs with
      | None -> invalid_arg "Compile: unknown function" (* unreachable *)
      | Some cf ->
          let codes =
            Array.of_list (List.map (compile_expr env scope) args)
          in
          let hoist, _closed, fill = seq_exprs codes in
          {
            e_pre = 1 + hoist;
            e_run =
              (fun rt fr ->
                let frame = Array.make cf.c_nslots Value.Unit in
                fill rt fr frame;
                burn rt cf.c_pre;
                cf.c_body rt frame);
            e_closed = true;
            e_const = None;
          })

(* Compile an expression used only as a boolean test ([assert], [if] and
   [while] conditions, short-circuit operands): comparisons evaluate to an
   unboxed [bool] directly, skipping the [Value.Bool] box and its
   [as_bool] unwrap. Returns [(pre, run, closed)] with {!ecode}'s batching
   conventions; failure order and messages are the tree-walk VM's (the
   comparison bodies mirror {!apply_binop}). *)
and compile_test env scope (e : Ast.expr) :
    int * (rt -> Value.t array -> bool) * bool =
  let generic () =
    let ce = compile_expr env scope e in
    let f = ce.e_run in
    (ce.e_pre, (fun rt fr -> as_bool (f rt fr)), ce.e_closed)
  in
  match e with
  | Ast.Binop (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b)
    -> (
      let ca = compile_expr env scope a and cb = compile_expr env scope b in
      if ca.e_closed || (ca.e_const <> None && cb.e_const <> None) then
        generic ()
      else
        let fa = ca.e_run and fb = cb.e_run in
        let pre = 1 + ca.e_pre + cb.e_pre and closed = cb.e_closed in
        let mk run = (pre, run, closed) in
        match op with
        | Ast.Eq ->
            mk (fun rt fr ->
                let va = fa rt fr in
                let vb = fb rt fr in
                Value.equal va vb)
        | Ast.Neq ->
            mk (fun rt fr ->
                let va = fa rt fr in
                let vb = fb rt fr in
                not (Value.equal va vb))
        | Ast.Lt ->
            mk (fun rt fr ->
                let va = fa rt fr in
                let vb = fb rt fr in
                as_int va < as_int vb)
        | Ast.Le ->
            mk (fun rt fr ->
                let va = fa rt fr in
                let vb = fb rt fr in
                as_int va <= as_int vb)
        | Ast.Gt ->
            mk (fun rt fr ->
                let va = fa rt fr in
                let vb = fb rt fr in
                as_int va > as_int vb)
        | Ast.Ge ->
            mk (fun rt fr ->
                let va = fa rt fr in
                let vb = fb rt fr in
                as_int va >= as_int vb)
        | _ -> assert false)
  | Ast.Unop (Ast.Not, a) ->
      let p, t, cl = compile_test env scope a in
      (1 + p, (fun rt fr -> not (t rt fr)), cl)
  | Ast.Binop (((Ast.And | Ast.Or) as op), a, b) -> (
      match
        (compile_expr env scope a).e_const (* const operands: folded path *)
      with
      | Some _ -> generic ()
      | None ->
          let pa, ta, _ = compile_test env scope a in
          let pb, tb, _ = compile_test env scope b in
          let run =
            if op = Ast.And then fun rt fr ->
              if ta rt fr then begin
                burn rt pb;
                tb rt fr
              end
              else false
            else fun rt fr ->
              if ta rt fr then true
              else begin
                burn rt pb;
                tb rt fr
              end
          in
          (1 + pa, run, true))
  | _ -> generic ()

(* --- The statement compiler ------------------------------------------------ *)

(* The effect point of agg_add/agg_sub, shared by both compiled paths. Gas
   and failure messages mirror the tree-walk [Interp.exec_agg] exactly. *)
let run_agg rt (tbl : intern) ~(sub : bool) addr amount : unit =
  if amount < 0 then abort "negative aggregator amount";
  let d = if sub then Delta.sub amount else Delta.add amount in
  burn rt 3;
  match rt.effects.delta (intern_get tbl addr) d with
  | Txn.Applied -> ()
  | Txn.Bounds_violation ->
      abort (if sub then "aggregator underflow" else "aggregator overflow")
  | Txn.Not_a_counter -> abort "aggregator over non-integer resource"

(* agg_add/agg_sub compile exactly like [Store]: a slot fast path when the
   address is a visible variable, otherwise the general two-expression
   batch. *)
let compile_agg env scope ~(sub : bool) a resource amt : scode =
  let tbl = intern_of env resource in
  match slot_of scope a with
  | Some slot ->
      let cv = compile_expr env scope amt in
      let fv = cv.e_run in
      {
        s_pre = 2 + cv.e_pre;
        s_run =
          (fun rt fr ->
            let addr = as_addr (Array.unsafe_get fr slot) in
            let amount = as_int (fv rt fr) in
            run_agg rt tbl ~sub addr amount);
        s_closed = true;
      }
  | None ->
      let ca = compile_expr env scope a in
      let cv = compile_expr env scope amt in
      let fa = ca.e_run and fv = cv.e_run in
      let run =
        if ca.e_closed then
          let cvp = cv.e_pre in
          fun rt fr ->
            let addr = as_addr (fa rt fr) in
            burn rt cvp;
            let amount = as_int (fv rt fr) in
            run_agg rt tbl ~sub addr amount
        else fun rt fr ->
          let addr = as_addr (fa rt fr) in
          let amount = as_int (fv rt fr) in
          run_agg rt tbl ~sub addr amount
      in
      {
        s_pre = 1 + ca.e_pre + (if ca.e_closed then 0 else cv.e_pre);
        s_run = run;
        s_closed = true;
      }

(* [nslots] is the function-wide slot allocator; [scope] maps visible names
   to slots, threaded per block exactly like the checker threads its scope
   set. A [let] of a visible name reuses its slot (the interpreter's
   [Hashtbl.replace] semantics); otherwise it allocates a fresh one, visible
   for the rest of the current block only. *)
let rec compile_stmt env (nslots : int ref) (scope : (string * int) list)
    (s : Ast.stmt) : scode * (string * int) list =
  match s with
  | Ast.Let (x, e) ->
      let ce = compile_expr env scope e in
      let slot, scope =
        match List.assoc_opt x scope with
        | Some slot -> (slot, scope)
        | None ->
            let slot = !nslots in
            incr nslots;
            (slot, (x, slot) :: scope)
      in
      (compile_set env scope slot e ce, scope)
  | Ast.Assign (x, e) ->
      let ce = compile_expr env scope e in
      let slot =
        match List.assoc_opt x scope with
        | Some slot -> slot
        | None -> invalid_arg "Compile: unbound variable" (* unreachable *)
      in
      (compile_set env scope slot e ce, scope)
  | Ast.Store (a, resource, v) -> (
      let tbl = intern_of env resource in
      match slot_of scope a with
      | Some slot ->
          let cv = compile_expr env scope v in
          let fv = cv.e_run in
          ( {
              s_pre = 2 + cv.e_pre;
              s_run =
                (fun rt fr ->
                  let addr = as_addr (Array.unsafe_get fr slot) in
                  let value = fv rt fr in
                  burn rt 3;
                  rt.effects.write (intern_get tbl addr) value);
              s_closed = true;
            },
            scope )
      | None ->
          let ca = compile_expr env scope a in
          let cv = compile_expr env scope v in
          let fa = ca.e_run and fv = cv.e_run in
          let run =
            if ca.e_closed then
              let cvp = cv.e_pre in
              fun rt fr ->
                let addr = as_addr (fa rt fr) in
                burn rt cvp;
                let value = fv rt fr in
                burn rt 3;
                rt.effects.write (intern_get tbl addr) value
            else fun rt fr ->
              let addr = as_addr (fa rt fr) in
              let value = fv rt fr in
              burn rt 3;
              rt.effects.write (intern_get tbl addr) value
          in
          ( {
              s_pre = 1 + ca.e_pre + (if ca.e_closed then 0 else cv.e_pre);
              s_run = run;
              s_closed = true;
            },
            scope ))
  | Ast.Agg_add (a, resource, amt) ->
      (compile_agg env scope ~sub:false a resource amt, scope)
  | Ast.Agg_sub (a, resource, amt) ->
      (compile_agg env scope ~sub:true a resource amt, scope)
  | Ast.If (c, t, e) -> (
      let cc = compile_expr env scope c in
      let ct = compile_block env nslots scope t in
      let ce = compile_block env nslots scope e in
      match cc.e_const with
      | Some (Value.Bool b) ->
          let br = if b then ct else ce in
          ( {
              s_pre = 1 + cc.e_pre + br.s_pre;
              s_run = br.s_run;
              s_closed = br.s_closed;
            },
            scope )
      | _ ->
          let _, tc, _ = compile_test env scope c in
          let ft = enter_block ct and fe = enter_block ce in
          ( {
              s_pre = 1 + cc.e_pre;
              s_run = (fun rt fr -> if tc rt fr then ft rt fr else fe rt fr);
              s_closed = true;
            },
            scope ))
  | Ast.While (c, b) ->
      let cc = compile_expr env scope c in
      let cb = compile_block env nslots scope b in
      let fb = cb.s_run in
      let cpre = cc.e_pre in
      (match cc.e_const with
      | Some (Value.Bool false) ->
          (* Loop never entered; the condition's nodes still count once. *)
          ({ s_pre = 1 + cpre; s_run = (fun _ _ -> ()); s_closed = false }, scope)
      | _ ->
          let _, tc, _ = compile_test env scope c in
          let run =
            if cb.s_closed then
              let bpre = cb.s_pre in
              if bpre = 0 then fun rt fr ->
                while tc rt fr do
                  fb rt fr;
                  burn rt cpre
                done
              else fun rt fr ->
                while tc rt fr do
                  burn rt bpre;
                  fb rt fr;
                  burn rt cpre
                done
            else
              (* Effect-free body: one batch covers the body plus the next
                 condition evaluation. *)
              let step = cb.s_pre + cpre in
              fun rt fr ->
                while tc rt fr do
                  burn rt step;
                  fb rt fr
                done
          in
          ({ s_pre = 1 + cpre; s_run = run; s_closed = true }, scope))
  | Ast.Assert (e, msg) ->
      let pre, te, closed = compile_test env scope e in
      let m = "assertion failed: " ^ msg in
      ( {
          s_pre = 1 + pre;
          s_run = (fun rt fr -> if not (te rt fr) then abort m);
          s_closed = closed;
        },
        scope )
  | Ast.Abort msg ->
      ({ s_pre = 1; s_run = (fun _ _ -> abort msg); s_closed = false }, scope)
  | Ast.Return e ->
      let ce = compile_expr env scope e in
      let f = ce.e_run in
      ( {
          s_pre = 1 + ce.e_pre;
          s_run = (fun rt fr -> raise (Ret (f rt fr)));
          s_closed = ce.e_closed;
        },
        scope )
  | Ast.Expr e ->
      let ce = compile_expr env scope e in
      let f = ce.e_run in
      ( {
          s_pre = 1 + ce.e_pre;
          s_run = (fun rt fr -> ignore (f rt fr : Value.t));
          s_closed = ce.e_closed;
        },
        scope )

and compile_stmts env nslots scope (stmts : Ast.stmt list) :
    scode array * (string * int) list =
  let rec go scope acc = function
    | [] -> (Array.of_list (List.rev acc), scope)
    | s :: rest ->
        let c, scope = compile_stmt env nslots scope s in
        go scope (c :: acc) rest
  in
  go scope [] stmts

and compile_block env nslots scope (stmts : Ast.stmt list) : scode =
  let codes, _ = compile_stmts env nslots scope stmts in
  let hoist, charge =
    plan_batches
      (Array.map (fun c -> c.s_pre) codes)
      (Array.map (fun c -> c.s_closed) codes)
  in
  {
    s_pre = hoist;
    s_run = run_stmts codes charge;
    s_closed = Array.exists (fun c -> c.s_closed) codes;
  }

and enter_block (b : scode) : rt -> Value.t array -> unit =
  if b.s_pre = 0 then b.s_run
  else
    let f = b.s_run and p = b.s_pre in
    fun rt fr ->
      burn rt p;
      f rt fr

(* [let x = e] / [x = e]: write [e]'s value into [x]'s slot. The hottest
   shape — [let x = load(y, R)] — is fused into a single closure. *)
and compile_set env scope slot (e : Ast.expr) (ce : ecode) : scode =
  match e with
  | Ast.Load (Ast.Var y, resource) when List.mem_assoc y scope ->
      let tbl = intern_of env resource in
      let yslot = List.assoc y scope in
      {
        s_pre = 3;
        s_run =
          (fun rt fr ->
            let addr = as_addr (Array.unsafe_get fr yslot) in
            burn rt 3;
            match rt.effects.read (intern_get tbl addr) with
            | Some v -> Array.unsafe_set fr slot v
            | None ->
                abort (Fmt.str "missing resource %s at @%d" resource addr));
        s_closed = true;
      }
  | _ ->
      let f = ce.e_run in
      {
        s_pre = 1 + ce.e_pre;
        s_run = (fun rt fr -> Array.unsafe_set fr slot (f rt fr));
        s_closed = ce.e_closed;
      }

(* --- Program compilation --------------------------------------------------- *)

let rec expr_resources acc : Ast.expr -> string list = function
  | Ast.Int _ | Ast.Bool _ | Ast.Str _ | Ast.Addr _ | Ast.Unit | Ast.Var _ ->
      acc
  | Ast.Binop (_, a, b) -> expr_resources (expr_resources acc a) b
  | Ast.Unop (_, e) -> expr_resources acc e
  | Ast.Call (_, args) -> List.fold_left expr_resources acc args
  | Ast.Field (e, _) -> expr_resources acc e
  | Ast.Record (_, fields) ->
      List.fold_left (fun acc (_, e) -> expr_resources acc e) acc fields
  | Ast.Exists (a, r) | Ast.Load (a, r) -> expr_resources (r :: acc) a
  | Ast.If_expr (c, t, e) ->
      expr_resources (expr_resources (expr_resources acc c) t) e

let rec stmt_resources acc : Ast.stmt -> string list = function
  | Ast.Let (_, e) | Ast.Assign (_, e) | Ast.Assert (e, _) | Ast.Return e
  | Ast.Expr e ->
      expr_resources acc e
  | Ast.Store (a, r, v) | Ast.Agg_add (a, r, v) | Ast.Agg_sub (a, r, v) ->
      expr_resources (expr_resources (r :: acc) a) v
  | Ast.If (c, t, e) ->
      List.fold_left stmt_resources
        (List.fold_left stmt_resources (expr_resources acc c) t)
        e
  | Ast.While (c, b) -> List.fold_left stmt_resources (expr_resources acc c) b
  | Ast.Abort _ -> acc

let program_resources (p : Ast.program) : string list =
  List.fold_left
    (fun acc (f : Ast.func) -> List.fold_left stmt_resources acc f.body)
    [] p.funcs
  |> List.sort_uniq String.compare

(* How many [return] statements a body contains, including nested ones. *)
let rec returns_in_stmt : Ast.stmt -> int = function
  | Ast.Return _ -> 1
  | Ast.If (_, t, e) -> returns_in_stmts t + returns_in_stmts e
  | Ast.While (_, b) -> returns_in_stmts b
  | _ -> 0

and returns_in_stmts stmts =
  List.fold_left (fun n s -> n + returns_in_stmt s) 0 stmts

let compile_func env (f : Ast.func) (cf : cfunc) : unit =
  let nslots = ref (List.length f.params) in
  let scope = List.mapi (fun i p -> (p, i)) f.params in
  let tail_return =
    match List.rev f.body with
    | Ast.Return e :: rev_init when returns_in_stmts f.body = 1 ->
        Some (List.rev rev_init, e)
    | _ -> None
  in
  (match tail_return with
  | Some (init, e) ->
      (* The only [return] is the final statement: no [Ret] exception (or
         handler) needed — run the prefix, then evaluate the result. The
         return statement joins the batch plan as a pseudo-element with the
         usual statement-plus-expression cost. *)
      let codes, scope = compile_stmts env nslots scope init in
      let ce = compile_expr env scope e in
      let n = Array.length codes in
      let pres =
        Array.append (Array.map (fun c -> c.s_pre) codes) [| 1 + ce.e_pre |]
      in
      let closeds =
        Array.append
          (Array.map (fun c -> c.s_closed) codes)
          [| ce.e_closed |]
      in
      let hoist, charge = plan_batches pres closeds in
      let run_init = run_stmts codes (Array.sub charge 0 n) in
      let last_charge = charge.(n) in
      let fe = ce.e_run in
      cf.c_pre <- hoist;
      cf.c_body <-
        (if last_charge = 0 then fun rt frame ->
           run_init rt frame;
           fe rt frame
         else fun rt frame ->
           run_init rt frame;
           burn rt last_charge;
           fe rt frame)
  | None ->
      let body = compile_block env nslots scope f.body in
      let fb = body.s_run in
      cf.c_pre <- body.s_pre;
      cf.c_body <-
        (fun rt frame ->
          match fb rt frame with () -> Value.Unit | exception Ret v -> v));
  cf.c_nslots <- !nslots

let of_program ?(require_main = true) ?(intern_addrs = default_intern_addrs)
    (prog : Ast.program) : compiled =
  Check.check ~require_main prog;
  if intern_addrs < 0 then invalid_arg "Compile: intern_addrs must be >= 0";
  let interns =
    List.map
      (fun r -> (r, intern_make ~capacity:intern_addrs r))
      (program_resources prog)
  in
  let funcs =
    List.map
      (fun (f : Ast.func) ->
        ( f.fname,
          {
            c_name = f.fname;
            c_params = List.length f.params;
            c_nslots = 0;
            c_pre = 0;
            c_body = (fun _ _ -> assert false);
          } ))
      prog.funcs
  in
  let env =
    { env_funcs = funcs; env_interns = interns; env_pool = Hashtbl.create 32 }
  in
  List.iter
    (fun (f : Ast.func) -> compile_func env f (List.assoc f.fname funcs))
    prog.funcs;
  { p_funcs = funcs }

let compile ?require_main ?intern_addrs (src : string) : compiled =
  of_program ?require_main ?intern_addrs (Parser.parse src)

let of_checked ?intern_addrs (c : Interp.compiled) : compiled =
  of_program ~require_main:false ?intern_addrs (Interp.ast c)

(* --- Entry points ----------------------------------------------------------- *)

let default_gas_limit = Interp.default_gas_limit

(* Resolve the entry function and check arity once, at transaction-creation
   time; resolution failures still abort at execution time (so executors
   capture them as [Failed] outputs, like the tree-walk VM). *)
let prepare ~entry (c : compiled) ~(args : Value.t list) :
    (cfunc * Value.t array, string) result =
  match List.assoc_opt entry c.p_funcs with
  | None -> Error (Fmt.str "no entry function '%s'" entry)
  | Some cf ->
      let nargs = List.length args in
      if nargs <> cf.c_params then
        Error
          (Fmt.str "function '%s' expects %d argument(s), got %d" cf.c_name
             cf.c_params nargs)
      else Ok (cf, Array.of_list args)

let enter ~gas_limit (cf : cfunc) (args : Value.t array)
    (effects : (Loc.t, Value.t) Txn.effects) : rt * Value.t =
  let rt = { effects; gas = gas_limit } in
  let frame = Array.make cf.c_nslots Value.Unit in
  Array.blit args 0 frame 0 (Array.length args);
  burn rt cf.c_pre;
  (rt, cf.c_body rt frame)

let run ?(entry = "main") ?(gas_limit = default_gas_limit) (c : compiled)
    ~(args : Value.t list) (effects : (Loc.t, Value.t) Txn.effects) : Value.t =
  match prepare ~entry c ~args with
  | Error msg -> abort msg
  | Ok (cf, args) -> snd (enter ~gas_limit cf args effects)

let txn ?(entry = "main") ?(gas_limit = default_gas_limit) (c : compiled)
    ~(args : Value.t list) : (Loc.t, Value.t, Value.t) Txn.t =
  match prepare ~entry c ~args with
  | Error msg -> fun _ -> abort msg
  | Ok (cf, args) -> fun effects -> snd (enter ~gas_limit cf args effects)

let run_with_gas ?(entry = "main") ?(gas_limit = default_gas_limit)
    (c : compiled) ~(args : Value.t list)
    (effects : (Loc.t, Value.t) Txn.effects) : Value.t * int =
  match prepare ~entry c ~args with
  | Error msg -> abort msg
  | Ok (cf, args) ->
      let rt, value = enter ~gas_limit cf args effects in
      (value, gas_limit - rt.gas)

let txn_with_gas ?(entry = "main") ?(gas_limit = default_gas_limit)
    (c : compiled) ~(args : Value.t list) :
    (Loc.t, Value.t, Value.t * int) Txn.t =
  match prepare ~entry c ~args with
  | Error msg -> fun _ -> abort msg
  | Ok (cf, args) ->
      fun effects ->
        let rt, value = enter ~gas_limit cf args effects in
        (value, gas_limit - rt.gas)
