(** Runtime values and global-storage locations for MiniMove.

    Global state is keyed by (address, resource name) — the unit of conflict
    detection, mirroring Move's global storage. These modules satisfy the
    kernel's {!Blockstm_kernel.Intf.LOCATION} and
    {!Blockstm_kernel.Intf.VALUE} signatures, so MiniMove contracts run
    unchanged through Block-STM and every baseline executor. *)

module Value = struct
  type t =
    | Unit
    | Int of int
    | Bool of bool
    | Str of string
    | Addr of int
    | Struct of string * (string * t) list
        (** Resource/struct: name and fields in declaration order. *)

  let rec equal a b =
    match (a, b) with
    | Unit, Unit -> true
    | Int x, Int y -> Int.equal x y
    | Bool x, Bool y -> Bool.equal x y
    | Str x, Str y -> String.equal x y
    | Addr x, Addr y -> Int.equal x y
    | Struct (n1, f1), Struct (n2, f2) ->
        String.equal n1 n2
        && List.length f1 = List.length f2
        && List.for_all2
             (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
             f1 f2
    | _ -> false

  (* Structural hash (Intf.VALUE): recurses into struct fields and hashes
     every byte of string payloads (FNV-1a), so two structurally equal
     resources hash identically in every replica — the chain's Merkle
     substrate folds this into comparable state roots. The byte loop is a
     [for] loop, so its accumulator is a local and a hash allocates
     nothing: a closure passed to [String.iter] would box it. *)
  let fnv_bytes (s : string) : int =
    let h = ref 0x3bf29ce484222325 (* FNV offset basis, truncated to 62 bits *) in
    for i = 0 to String.length s - 1 do
      h := (!h lxor Char.code s.[i]) * 0x100000001b3
    done;
    !h land max_int

  let combine h x = ((h * 0x100000001b3) lxor x) land max_int

  let rec hash = function
    | Unit -> 0x11
    | Int i -> (i * 0x9E3779B1) lxor 0x22
    | Bool b -> if b then 0x3_5A5A else 0x2_A5A5
    | Str s -> fnv_bytes s lxor 0x33
    | Addr a -> (a * 0x9E3779B1) lxor 0x44
    | Struct (name, fields) ->
        List.fold_left
          (fun h (f, v) -> combine (combine h (fnv_bytes f)) (hash v))
          (combine 0x55 (fnv_bytes name))
          fields

  let rec pp ppf = function
    | Unit -> Fmt.string ppf "()"
    | Int i -> Fmt.int ppf i
    | Bool b -> Fmt.bool ppf b
    | Str s -> Fmt.pf ppf "%S" s
    | Addr a -> Fmt.pf ppf "@%d" a
    | Struct (name, fields) ->
        Fmt.pf ppf "%s { %a }" name
          (Fmt.list ~sep:Fmt.comma (fun ppf (f, v) ->
               Fmt.pf ppf "%s: %a" f pp v))
          fields

  let type_name = function
    | Unit -> "unit"
    | Int _ -> "int"
    | Bool _ -> "bool"
    | Str _ -> "string"
    | Addr _ -> "address"
    | Struct (n, _) -> n

  (* Counter view for commutative delta ops ([agg_add] / [agg_sub]): bare
     [Int] values only — structs, even single-int-field ones, are not
     counters. *)
  let as_counter = function Int i -> Some i | _ -> None
  let of_counter i = Int i
end

module Loc = struct
  type t = { addr : int; resource : string }

  let make ~addr ~resource = { addr; resource }
  let equal a b = a.addr = b.addr && String.equal a.resource b.resource
  let hash { addr; resource } = (addr * 0x9E3779B1) lxor Hashtbl.hash resource

  let compare a b =
    match Int.compare a.addr b.addr with
    | 0 -> String.compare a.resource b.resource
    | c -> c

  let pp ppf { addr; resource } = Fmt.pf ppf "@%d/%s" addr resource
end
