(** In-memory key/value storage: the paper's [Storage] module.

    Holds the state as of the beginning of the block. During block execution
    it is read-only (Block-STM never writes to storage mid-block); after the
    block commits, [apply_delta] folds the MVMemory snapshot back in, yielding
    the pre-state of the next block. *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  module Tbl = Hashtbl.Make (L)

  type t = V.t Tbl.t

  let create ?(initial_size = 1024) () : t = Tbl.create initial_size

  let of_list pairs =
    let t = create ~initial_size:(List.length pairs * 2 + 16) () in
    List.iter (fun (l, v) -> Tbl.replace t l v) pairs;
    t

  let get (t : t) (loc : L.t) : V.t option = Tbl.find_opt t loc
  let set (t : t) (loc : L.t) (v : V.t) : unit = Tbl.replace t loc v
  let remove (t : t) (loc : L.t) : unit = Tbl.remove t loc
  let mem (t : t) (loc : L.t) : bool = Tbl.mem t loc
  let cardinal (t : t) : int = Tbl.length t

  (** The [('loc,'value) Intf.storage] view consumed by executors. *)
  let reader (t : t) : (L.t, V.t) Intf.storage = fun loc -> get t loc

  let iter (t : t) (f : L.t -> V.t -> unit) : unit = Tbl.iter f t
  let copy (t : t) : t = Tbl.copy t

  (** Apply a block's output delta (e.g. an MVMemory snapshot) in place. *)
  let apply_delta (t : t) (delta : (L.t * V.t) list) : unit =
    List.iter (fun (l, v) -> Tbl.replace t l v) delta

  (** Deterministically ordered contents. *)
  let to_alist (t : t) : (L.t * V.t) list =
    Tbl.fold (fun l v acc -> (l, v) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> L.compare a b)

  let equal (a : t) (b : t) : bool =
    cardinal a = cardinal b
    && Tbl.fold
         (fun l v ok ->
           ok && match get b l with Some v' -> V.equal v v' | None -> false)
         a true

  let pp ppf (t : t) =
    Fmt.pf ppf "@[<v>%a@]"
      (Fmt.list ~sep:Fmt.cut (fun ppf (l, v) ->
           Fmt.pf ppf "%a -> %a" L.pp l V.pp v))
      (to_alist t)
end
