(** Static access analysis over the checked MiniMove AST (DESIGN.md §15).

    Infers, per function, an over-approximation of the global-storage
    locations its execution may read and write, abstracted over the
    function's formal parameters: every [load]/[exists] site contributes a
    read entry, every [store] a write entry, and every [agg_add]/[agg_sub]
    both (a delta both observes and updates its location). Addresses are
    tracked through a three-point abstract domain — a concrete literal, a
    formal parameter, or unknown — so a transaction-level spec with fully
    concrete arguments usually specializes to all-[Exact] entries, which is
    what lets the lane coordinator place a transaction in one lane.

    Soundness (spec ⊇ any dynamic access set, checked across the 600-program
    differential corpus in [test/test_access.ml]) comes from three
    conservative rules: joins map disagreeing address values to unknown
    ([Wildcard] entries — the resource name is always a literal in the AST,
    so no access ever degrades past its resource namespace except through
    recursion); loop bodies are analyzed in a pre-widened environment where
    every variable the body can rebind is unknown, making one pass a
    fixpoint; and (mutual) recursion degrades the callee to [Unknown]. All
    control-flow paths are analyzed, including statements after [return] or
    [abort] — dead accesses only widen the spec. *)

(* --- Abstract address values --------------------------------------------- *)

(** What the analysis knows about an address-typed value. Non-address values
    (ints, bools, structs, ...) are all [Top]: only address provenance
    matters, since the resource component of every access is a literal. *)
type aval = Const of int | Param of int | Top

let join_aval a b =
  match (a, b) with
  | Const x, Const y when x = y -> a
  | Param i, Param j when i = j -> a
  | _ -> Top

(* --- Function-level spec entries ----------------------------------------- *)

type entry =
  | Exact_addr of int * string  (** Concrete address, literal resource. *)
  | Param_addr of int * string
      (** Address is the [i]-th formal parameter (0-based). *)
  | Wildcard of string  (** Unknown address, known resource. *)
  | Unknown  (** Recursion: nothing is known about the callee. *)

type fspec = { spec_reads : entry list; spec_writes : entry list }

let pp_entry ppf = function
  | Exact_addr (a, r) -> Fmt.pf ppf "@%d/%s" a r
  | Param_addr (i, r) -> Fmt.pf ppf "$%d/%s" i r
  | Wildcard r -> Fmt.pf ppf "*/%s" r
  | Unknown -> Fmt.string ppf "?"

let pp_fspec ppf s =
  Fmt.pf ppf "@[reads {%a} writes {%a}@]"
    (Fmt.list ~sep:Fmt.comma pp_entry)
    s.spec_reads
    (Fmt.list ~sep:Fmt.comma pp_entry)
    s.spec_writes

(* Normalize an entry list: drop duplicates and entries subsumed by a wider
   one ([Unknown] subsumes everything; a resource wildcard subsumes that
   resource's exact/param entries). Keeps specs small and the precision
   stats honest. *)
let normalize entries =
  if List.mem Unknown entries then [ Unknown ]
  else
    let wild r = List.mem (Wildcard r) entries in
    List.sort_uniq compare
      (List.filter
         (function
           | Exact_addr (_, r) | Param_addr (_, r) -> not (wild r)
           | Wildcard _ | Unknown -> true)
         entries)

let entry_of_aval v resource =
  match v with
  | Const a -> Exact_addr (a, resource)
  | Param i -> Param_addr (i, resource)
  | Top -> Wildcard resource

(* Map a callee entry into the caller's frame through the call's abstract
   argument values. *)
let map_entry avs = function
  | (Exact_addr _ | Wildcard _ | Unknown) as e -> e
  | Param_addr (k, r) -> (
      match List.nth_opt avs k with
      | Some (Const a) -> Exact_addr (a, r)
      | Some (Param i) -> Param_addr (i, r)
      | Some Top | None -> Wildcard r)

(* --- The analysis --------------------------------------------------------- *)

module Env = Map.Make (String)

let unknown_spec = { spec_reads = [ Unknown ]; spec_writes = [ Unknown ] }

(* Variables a statement list may rebind (Let and Assign, recursively):
   the widening set for loop bodies. *)
let rec assigned_vars acc (stmts : Ast.stmt list) =
  List.fold_left
    (fun acc -> function
      | Ast.Let (x, _) | Ast.Assign (x, _) -> x :: acc
      | Ast.If (_, t, e) -> assigned_vars (assigned_vars acc t) e
      | Ast.While (_, b) -> assigned_vars acc b
      | Ast.Store _ | Ast.Agg_add _ | Ast.Agg_sub _ | Ast.Assert _
      | Ast.Abort _ | Ast.Return _ | Ast.Expr _ ->
          acc)
    acc stmts

let infer (p : Ast.program) : (string * fspec) list =
  let memo : (string, fspec) Hashtbl.t = Hashtbl.create 16 in
  let in_progress : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec infer_name fname : fspec =
    match Hashtbl.find_opt memo fname with
    | Some s -> s
    | None ->
        if Hashtbl.mem in_progress fname then unknown_spec
        else begin
          match Ast.find_func p fname with
          | None -> { spec_reads = []; spec_writes = [] } (* builtin *)
          | Some f ->
              Hashtbl.replace in_progress fname ();
              let s = infer_func f in
              Hashtbl.remove in_progress fname;
              Hashtbl.replace memo fname s;
              s
        end
  and infer_func (f : Ast.func) : fspec =
    let reads = ref [] and writes = ref [] in
    let add_read e = reads := e :: !reads in
    let add_write e = writes := e :: !writes in
    let rec eval env (e : Ast.expr) : aval =
      match e with
      | Addr a -> Const a
      | Var x -> ( match Env.find_opt x env with Some v -> v | None -> Top)
      | Int _ | Bool _ | Str _ | Unit -> Top
      | Unop (_, e) | Field (e, _) ->
          ignore (eval env e);
          Top
      | Binop (_, a, b) ->
          ignore (eval env a);
          ignore (eval env b);
          Top
      | Record (_, fields) ->
          List.iter (fun (_, e) -> ignore (eval env e)) fields;
          Top
      | Exists (a, r) | Load (a, r) ->
          add_read (entry_of_aval (eval env a) r);
          Top
      | If_expr (c, t, e) ->
          ignore (eval env c);
          join_aval (eval env t) (eval env e)
      | Call (g, args) ->
          let avs = List.map (eval env) args in
          if not (List.mem_assoc g Check.builtins) then begin
            let callee = infer_name g in
            List.iter (fun e -> add_read (map_entry avs e)) callee.spec_reads;
            List.iter (fun e -> add_write (map_entry avs e)) callee.spec_writes
          end;
          (* Return-value provenance is not tracked: a callee returning one
             of its address arguments still yields [Top] here. *)
          Top
    in
    let join_env a b =
      Env.merge
        (fun _ x y ->
          match (x, y) with
          | Some x, Some y -> Some (join_aval x y)
          | Some _, None | None, Some _ -> Some Top
          | None, None -> None)
        a b
    in
    let rec stmts env = List.fold_left stmt env
    and stmt env (s : Ast.stmt) : aval Env.t =
      match s with
      | Let (x, e) | Assign (x, e) -> Env.add x (eval env e) env
      | Store (a, r, e) ->
          add_write (entry_of_aval (eval env a) r);
          ignore (eval env e);
          env
      | Agg_add (a, r, e) | Agg_sub (a, r, e) ->
          let v = eval env a in
          add_read (entry_of_aval v r);
          add_write (entry_of_aval v r);
          ignore (eval env e);
          env
      | If (c, t, e) ->
          ignore (eval env c);
          join_env (stmts env t) (stmts env e)
      | While (c, body) ->
          (* Pre-widen every variable the body can rebind, so one pass over
             the body is a sound fixpoint (see the module header). *)
          let env =
            List.fold_left
              (fun env x -> Env.add x Top env)
              env
              (assigned_vars [] body)
          in
          ignore (eval env c);
          ignore (stmts env body);
          env
      | Assert (e, _) | Return e | Expr e ->
          ignore (eval env e);
          env
      | Abort _ -> env
    in
    let env0 =
      List.fold_left
        (fun (env, i) x -> (Env.add x (Param i) env, i + 1))
        (Env.empty, 0) f.params
      |> fst
    in
    ignore (stmts env0 f.body);
    { spec_reads = normalize !reads; spec_writes = normalize !writes }
  in
  List.map (fun (f : Ast.func) -> (f.fname, infer_name f.fname)) p.funcs

let infer_func (p : Ast.program) (fname : string) : fspec option =
  match Ast.find_func p fname with
  | None -> None
  | Some _ -> List.assoc_opt fname (infer p)

(* --- Specialization to transaction-level specs --------------------------- *)

open Mv_value

let namespace (l : Loc.t) = l.Loc.resource

let specialize (s : fspec) ~(args : Value.t list) :
    Loc.t Blockstm_kernel.Access_spec.t =
  let module S = Blockstm_kernel.Access_spec in
  let conv = function
    | Exact_addr (a, r) -> S.Exact (Loc.make ~addr:a ~resource:r)
    | Param_addr (k, r) -> (
        match List.nth_opt args k with
        | Some (Value.Addr a) -> S.Exact (Loc.make ~addr:a ~resource:r)
        | Some _ | None -> S.Wildcard r)
    | Wildcard r -> S.Wildcard r
    | Unknown -> S.Unknown
  in
  {
    S.reads = List.sort_uniq compare (List.map conv s.spec_reads);
    S.writes = List.sort_uniq compare (List.map conv s.spec_writes);
  }
