(** The benchmark ledger: locations, values and the initial on-chain state
    mirroring the Diem setup the paper benchmarks against.

    Memory locations are either per-account resource fields (balance,
    sequence number, frozen flag, ...) or global on-chain configuration
    entries (block time, chain id, gas schedule, ...). The global entries are
    written before the block and only read during it — exactly like Diem's
    on-chain config — so conflicts arise purely from account accesses, and
    the number of accounts controls contention (paper §4.1).

    A location is an immediate [private int], not a heap block: field [f]
    of account [a] is [a * 8 + field_index f] and global [g] is
    [min_int + g]. Building one allocates nothing, key arrays in MVMemory
    and the base tier hold no pointers, and [equal] and [compare] are int
    comparisons that touch no memory. [hash], the order [compare] gives
    (globals by index, then accounts by (account, field)) and [pp] are the
    ones the locations had as a boxed variant, so every state root, delta
    root, MVMemory shard placement and printed table is unchanged by the
    encoding. *)

open Blockstm_kernel

(* --- Locations ----------------------------------------------------------- *)

type field =
  | Balance
  | Seqno
  | Frozen
  | Auth_key
  | Exists

let field_index = function
  | Balance -> 0
  | Seqno -> 1
  | Frozen -> 2
  | Auth_key -> 3
  | Exists -> 4

let field_name = function
  | Balance -> "balance"
  | Seqno -> "seqno"
  | Frozen -> "frozen"
  | Auth_key -> "auth_key"
  | Exists -> "exists"

(* The sealed signature makes the six constructors below the only way to
   build a location: [Loc.t] is a [private int], which callers can read as
   an int but not forge. *)
include (
  struct
    module Loc = struct
      type t = int

      type view =
        | Global of int
        | Account of { acct : int; field : field }

      let fields = [| Balance; Seqno; Frozen; Auth_key; Exists |]
      let is_global l = l < 0

      let acct l =
        if l < 0 then invalid_arg "Ledger.Loc.acct: a global entry";
        l lsr 3

      let view l =
        if l < 0 then Global (l - min_int)
        else Account { acct = l lsr 3; field = fields.(l land 7) }

      let equal (a : t) b = a = b

      (* Full avalanche mix, not just a multiply: a multiplicative hash of
         [(acct * 8) + field] leaves the low bits stuck in a stride-8
         subgroup when only one field is populated (e.g.
         {!Bigstate.lean_genesis}), so Hashtbl and digest buckets — both
         selected by low bits — degrade to 1/8 occupancy with 8x-long
         chains. *)
      let mix_int x =
        let x = (x lxor (x lsr 16)) * 0x45d9f3b in
        let x = (x lxor (x lsr 16)) * 0x45d9f3b in
        x lxor (x lsr 16)

      (* An account location is already [(acct * 8) + field_index field];
         a global hashes its index, as the boxed variant did. *)
      let hash l =
        if l < 0 then mix_int ((l - min_int) lxor 0x55aa55) else mix_int l

      let compare (a : t) b = Int.compare a b

      let pp ppf l =
        match view l with
        | Global g -> Fmt.pf ppf "global/%d" g
        | Account { acct; field } ->
            Fmt.pf ppf "acct/%d/%s" acct (field_name field)

      let namespace l =
        if l < 0 then "global" else field_name fields.(l land 7)
    end

    (* The largest account whose fields all encode below [max_int]. *)
    let max_acct = max_int lsr 3

    let[@inline] account field acct =
      if acct < 0 || acct > max_acct then
        invalid_arg "Ledger: account out of range";
      (acct lsl 3) lor field_index field

    let balance acct = account Balance acct
    let seqno acct = account Seqno acct
    let frozen acct = account Frozen acct
    let auth_key acct = account Auth_key acct
    let exists acct = account Exists acct

    let global g =
      if g < 0 then invalid_arg "Ledger.global: negative index";
      min_int + g
  end :
    sig
      module Loc : sig
        type t = private int

        (** A location taken apart, for code that matches on its kind. *)
        type view =
          | Global of int  (** On-chain configuration entry [0..n_globals). *)
          | Account of { acct : int; field : field }

        val view : t -> view
        (** Allocates the [view]; hot paths use {!is_global} and {!acct}. *)

        val is_global : t -> bool

        val acct : t -> int
        (** The account of an account location, allocation-free. Raises
            [Invalid_argument] on a global entry. *)

        val equal : t -> t -> bool
        val hash : t -> int
        val compare : t -> t -> int
        val pp : Format.formatter -> t -> unit

        val namespace : t -> string
        (** Namespace string matched by [Access_spec.Wildcard] entries
            (DESIGN.md §15): the resource kind, ignoring the account. *)
      end

      val balance : int -> Loc.t
      (** Each account constructor takes an account [a] with
          [0 <= a <= max_int / 8] and raises [Invalid_argument] outside
          that range. *)

      val seqno : int -> Loc.t
      val frozen : int -> Loc.t
      val auth_key : int -> Loc.t
      val exists : int -> Loc.t

      val global : int -> Loc.t
      (** Global configuration entry [g >= 0]. *)
    end)

(* --- Values -------------------------------------------------------------- *)

module Value = struct
  type t =
    | Int of int
    | Bool of bool
    | Bytes of string

  let equal a b =
    match (a, b) with
    | Int x, Int y -> Int.equal x y
    | Bool x, Bool y -> Bool.equal x y
    | Bytes x, Bytes y -> String.equal x y
    | _ -> false

  (* Structural hash (Intf.VALUE): every byte of a [Bytes] payload folds in
     via FNV-1a, unlike the width-limited generic hash. Constructor tags are
     mixed so [Int 0] / [Bool false] / [Bytes ""] stay distinct. *)
  let fnv_bytes (s : string) : int =
    let h = ref 0x3bf29ce484222325 (* FNV offset basis, truncated to 62 bits *) in
    String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
    !h land max_int

  let hash = function
    | Int i -> (i * 0x9E3779B1) lxor 0x01
    | Bool b -> if b then 0x3_5A5A else 0x2_A5A5
    | Bytes s -> fnv_bytes s lxor 0x03

  let pp ppf = function
    | Int i -> Fmt.int ppf i
    | Bool b -> Fmt.bool ppf b
    | Bytes s -> Fmt.pf ppf "%S" s

  let as_int = function
    | Int i -> i
    | v -> Fmt.failwith "Ledger.Value.as_int: %a" pp v

  let as_bool = function
    | Bool b -> b
    | v -> Fmt.failwith "Ledger.Value.as_bool: %a" pp v

  (* Counter view for commutative delta ops: [Int] values only. *)
  let as_counter = function Int i -> Some i | Bool _ | Bytes _ -> None
  let of_counter i = Int i
end

module Store = Blockstm_storage.Memstore.Make (Loc) (Value)

(** Number of distinct global configuration entries installed in genesis. *)
let n_globals = 16

(** Contiguous account-range lane of an account: the canonical flat-state
    partition for sharded execution lanes (DESIGN.md §16). Accounts
    [\[k*n/K, (k+1)*n/K)] map to lane [k]. *)
let account_lane ~num_accounts ~lanes acct =
  if lanes < 1 then invalid_arg "Ledger.account_lane: lanes must be >= 1";
  if acct < 0 || acct >= num_accounts then
    invalid_arg "Ledger.account_lane: account out of range";
  min (lanes - 1) (acct * lanes / num_accounts)

(** Lane of a location under the account-range partition. Global entries are
    read-only in every workload here, so their lane never matters for
    correctness; they go to lane 0. *)
let loc_lane ~num_accounts ~lanes loc =
  if Loc.is_global loc then 0
  else account_lane ~num_accounts ~lanes (Loc.acct loc)

let default_initial_balance = 1_000_000_000

(** Genesis state: [num_accounts] funded accounts plus the global
    configuration entries. *)
let genesis ?(initial_balance = default_initial_balance) ~num_accounts () :
    Store.t =
  let store = Store.create ~initial_size:((num_accounts * 5) + 64) () in
  for g = 0 to n_globals - 1 do
    Store.set store (global g) (Value.Int (1000 + g))
  done;
  for a = 0 to num_accounts - 1 do
    Store.set store (balance a) (Value.Int initial_balance);
    Store.set store (seqno a) (Value.Int 0);
    Store.set store (frozen a) (Value.Bool false);
    Store.set store (auth_key a) (Value.Bytes (Printf.sprintf "key-%08x" a));
    Store.set store (exists a) (Value.Bool true)
  done;
  store

(* --- Typed read helpers used by transaction code ------------------------- *)

exception Invariant_violation of string

let read_int (e : (Loc.t, Value.t) Txn.effects) loc =
  match e.read loc with
  | Some v -> Value.as_int v
  | None ->
      raise (Invariant_violation (Fmt.str "missing int at %a" Loc.pp loc))

let read_bool (e : (Loc.t, Value.t) Txn.effects) loc =
  match e.read loc with
  | Some v -> Value.as_bool v
  | None ->
      raise (Invariant_violation (Fmt.str "missing bool at %a" Loc.pp loc))

let check cond msg = if not cond then raise (Invariant_violation msg)
