(** In-memory key/value storage: the paper's [Storage] module.

    Holds the state as of the beginning of the block. During block execution
    it is read-only (Block-STM never writes to storage mid-block); after the
    block commits, [apply_delta] folds the MVMemory snapshot back in, yielding
    the pre-state of the next block.

    The table is open-addressed (DESIGN.md §13): keys and values sit in two
    parallel arrays, a binding lives in the first slot at or after its
    location's home slot not taken by another key (linear probing), the
    load stays at most 3/4, and removal shifts the rest of the run back
    instead of leaving a tombstone. A binding costs its two array words and
    no block of its own, and [copy] is two array copies. *)

open Blockstm_kernel

(* The free-slot marker: one private block for every application of [Make].
   Functor applications are applicative, so [Make (L) (V).t] is one type
   wherever [L] and [V] are the same module paths, and a table built through
   one application (say [Ledger.Store]) is walked by another ([Merkle]'s
   inner [Flat]). A marker made per application would read there as a key.
   No caller can reach this block, so no key or value is ever physically
   equal to it. *)
let free : Obj.t = Obj.repr (ref ())

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  type t = {
    mutable keys : L.t array;  (** [free] in a free slot. *)
    mutable vals : V.t array;
        (** [free] in a free slot too, so a removed value is not retained.
            Both arrays are made with [free], a non-float block, as their
            fill, so neither takes the flat float layout whatever [L.t] and
            [V.t] are. *)
    mutable size : int;
  }

  let free_key : L.t = Obj.magic free
  let free_val : V.t = Obj.magic free

  (* The fewest slots, at least 8, that hold [n] bindings at load 3/4. *)
  let capacity n = max 8 (((4 * n) + 2) / 3)

  (* The home slot of hash [h] in [c] slots: its low 32 bits scaled to
     [0, c) by one multiply, so [c] need not be a power of two. *)
  let home c h = ((h land 0xFFFF_FFFF) * c) lsr 32

  let next c i = if i + 1 = c then 0 else i + 1

  (* How many slots forward [j] lies from [i], wrapping round [c]. *)
  let dist c i j = if j >= i then j - i else j + c - i

  let create ?(initial_size = 1024) () : t =
    let c = capacity initial_size in
    { keys = Array.make c free_key; vals = Array.make c free_val; size = 0 }

  (* The slot holding [l] or, when [l] is unbound, the free slot that ends
     its run. A free slot always exists (load <= 3/4), and the free test
     comes first, so [L.equal] never sees the marker. *)
  let rec probe keys l i =
    let k = keys.(i) in
    if k == free_key || L.equal k l then i
    else probe keys l (next (Array.length keys) i)

  (* [probe] from the home slot of hash [h]. *)
  let find keys l h = probe keys l (home (Array.length keys) h)

  (* Rehash every binding into a fresh table of [c] slots. The keys are
     distinct, so each takes the first free slot of its run. *)
  let resize t c =
    let keys = Array.make c free_key and vals = Array.make c free_val in
    Array.iteri
      (fun i k ->
        if k != free_key then begin
          let j = ref (home c (L.hash k)) in
          while keys.(!j) != free_key do
            j := next c !j
          done;
          keys.(!j) <- k;
          vals.(!j) <- t.vals.(i)
        end)
      t.keys;
    t.keys <- keys;
    t.vals <- vals

  (* Bind the unbound [l], of hash [h], at [i], the free slot ending its
     run, doubling the table first if the binding would take the load past
     3/4. *)
  let add t h i l v =
    let i =
      if 4 * (t.size + 1) <= 3 * Array.length t.keys then i
      else begin
        resize t (2 * Array.length t.keys);
        find t.keys l h
      end
    in
    t.keys.(i) <- l;
    t.vals.(i) <- v;
    t.size <- t.size + 1

  let get (t : t) (loc : L.t) : V.t option =
    let keys = t.keys in
    let i = find keys loc (L.hash loc) in
    if keys.(i) == free_key then None else Some t.vals.(i)

  let mem (t : t) (loc : L.t) : bool =
    let keys = t.keys in
    keys.(find keys loc (L.hash loc)) != free_key

  let exchange (t : t) ~hash (loc : L.t) (v : V.t) : V.t option =
    let keys = t.keys in
    let i = find keys loc hash in
    if keys.(i) == free_key then begin
      add t hash i loc v;
      None
    end
    else begin
      let old = t.vals.(i) in
      t.vals.(i) <- v;
      Some old
    end

  let set (t : t) (loc : L.t) (v : V.t) : unit =
    ignore (exchange t ~hash:(L.hash loc) loc v)

  (* Empty [l]'s slot, then walk the rest of its run: a key whose home slot
     does not lie cyclically in (hole, j] moves back into the hole, which
     moves to its old slot. Every key stays reachable from its home without
     a tombstone. *)
  let remove (t : t) (loc : L.t) : unit =
    let keys = t.keys and vals = t.vals in
    let c = Array.length keys in
    let i = find keys loc (L.hash loc) in
    if keys.(i) != free_key then begin
      t.size <- t.size - 1;
      let hole = ref i and j = ref (next c i) in
      while keys.(!j) != free_key do
        let k = keys.(!j) in
        if dist c (home c (L.hash k)) !j >= dist c !hole !j then begin
          keys.(!hole) <- k;
          vals.(!hole) <- vals.(!j);
          hole := !j
        end;
        j := next c !j
      done;
      keys.(!hole) <- free_key;
      vals.(!hole) <- free_val
    end

  let cardinal (t : t) : int = t.size

  (** The [('loc,'value) Intf.storage] view consumed by executors. *)
  let reader (t : t) : (L.t, V.t) Intf.storage = fun loc -> get t loc

  let iter (t : t) (f : L.t -> V.t -> unit) : unit =
    let keys = t.keys and vals = t.vals in
    for i = 0 to Array.length keys - 1 do
      let k = keys.(i) in
      if k != free_key then f k vals.(i)
    done

  let copy (t : t) : t =
    { keys = Array.copy t.keys; vals = Array.copy t.vals; size = t.size }

  let of_list pairs =
    let t = create ~initial_size:(List.length pairs) () in
    List.iter (fun (l, v) -> set t l v) pairs;
    t

  (** Apply a block's output delta (e.g. an MVMemory snapshot) in place. *)
  let apply_delta (t : t) (delta : (L.t * V.t) list) : unit =
    List.iter (fun (l, v) -> set t l v) delta

  (** Deterministically ordered contents. *)
  let to_alist (t : t) : (L.t * V.t) list =
    let acc = ref [] in
    iter t (fun l v -> acc := (l, v) :: !acc);
    List.sort (fun (a, _) (b, _) -> L.compare a b) !acc

  let equal (a : t) (b : t) : bool =
    let same = ref (cardinal a = cardinal b) in
    iter a (fun l v ->
        if !same then
          same := match get b l with Some v' -> V.equal v v' | None -> false);
    !same

  let pp ppf (t : t) =
    Fmt.pf ppf "@[<v>%a@]"
      (Fmt.list ~sep:Fmt.cut (fun ppf (l, v) ->
           Fmt.pf ppf "%a -> %a" L.pp l V.pp v))
      (to_alist t)
end
