(** Bucketed incremental Merkle store: the authenticated state substrate
    (DESIGN.md §13).

    The store keeps the chain state in a flat {!Memstore} table (the {e base}
    tier every executor reads through) and maintains, on the side, an
    authenticated digest over it:

    - each binding [(l, v)] hashes to an {e entry hash} (a splitmix-style
      finalizer over [L.hash l] and [V.hash v], in unboxed native [int]
      arithmetic — every operation below stays allocation-free);
    - entries are assigned to one of [buckets] (power of two) buckets by
      location hash; each bucket keeps a {e commutative accumulator} — the
      wrapping sum of its entry hashes — plus an entry count;
    - bucket leaf digests are folded up a complete binary tree stored as a
      heap array ([tree.(1)] is the root, leaf [i] lives at
      [tree.(buckets + i)]).

    Because the accumulator is commutative, the root is a pure function of
    the final key/value map — independent of the order writes arrived in —
    so the sequential and Block-STM executions of a block produce identical
    roots by construction. Updating a binding touches one accumulator slot
    and dirties one bucket; {!root} then refreshes only the dirty leaf-to-root
    paths, making a block's root update O(|delta| · log buckets) instead of
    the O(n) whole-state fold of the flat digest.

    All mutators ([set] / [remove] / [apply_delta]) are between-blocks-only,
    like {!Memstore}: executors read start-of-block state through {!reader}
    while a block is in flight. {!root} writes only the digest arrays, never
    the base tier, so it may run on another domain while executors read. *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  module Flat = Memstore.Make (L) (V)

  type t = {
    flat : Flat.t;  (** Base tier: start-of-block state, read by executors. *)
    nbuckets : int;
    mask : int;
    acc : int array;  (** Commutative per-bucket entry-hash sum (wrapping). *)
    counts : int array;  (** Live entries per bucket. *)
    tree : int array;  (** Heap-layout digest tree, size [2 * nbuckets]. *)
    mutable dirty : int list;  (** Buckets whose path needs refreshing. *)
    dirty_flag : bool array;
    seen : int array;
        (** Generation marks for inner nodes [1 .. nbuckets), deduping shared
            ancestors during a path refresh. *)
    mutable gen : int;
    scratch : int array;
        (** Level worklist for {!root}'s bottom-up refresh (size
            [nbuckets]). *)
  }

  (* Sized so the digest arrays (acc/counts/tree/seen, 5 words per bucket)
     stay around half a megabyte — resident in L2 while a delta streams
     through. More buckets buys nothing: the accumulator is commutative, so
     collisions never hurt correctness, and the refresh cost is bounded by
     min(|delta|, buckets) anyway. *)
  let default_buckets = 16_384

  (* --- Hashing ----------------------------------------------------------- *)

  (* All digest arithmetic is unboxed native [int] (wrapping mod 2^63):
     Int64 here would box on every array read and multiply, which dominated
     the incremental update cost. Determinism only requires a fixed-width
     wrapping integer, which OCaml's 63-bit int is on every 64-bit host. *)

  (* splitmix-style finalizer: avalanche mix of one word. *)
  let mix (x : int) : int =
    let x = (x lxor (x lsr 33)) * 0x2545f4914f6cdd1d in
    let x = (x lxor (x lsr 29)) * 0x1b03738712fad5c9 in
    x lxor (x lsr 32)

  let golden = 0x1e3779b97f4a7c15 (* 2^63 / phi, truncated to 61 bits, odd *)

  (* [hm] is the pre-mixed location hash — computed once per binding change
     even when both an old and a new value are hashed. *)
  let entry_hash_hm (hm : int) (v : V.t) : int =
    mix ((hm * golden) + mix (V.hash v))

  (* Leaf digest folds the count in so an empty bucket differs from one whose
     entry hashes happen to sum to zero. *)
  let leaf_hash acc count = mix (acc lxor (count * golden))

  (* Positional (non-commutative) combine: tree structure is fixed, so
     left/right asymmetry is fine and cheap. *)
  let node_hash left right = mix ((left * golden) lxor right)

  let next_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 1

  (* Add every binding of [flat] into [acc]/[counts] in one pass, hashing
     each location once (the sum is commutative: any order will do). *)
  let sweep flat ~mask acc counts =
    Flat.iter flat (fun l v ->
        let hl = L.hash l in
        let b = hl land mask in
        acc.(b) <- acc.(b) + entry_hash_hm (mix hl) v;
        counts.(b) <- counts.(b) + 1)

  (* The digest tree of an empty store: every node of a level (heap slots
     [lo, 2 lo), the leaves at [lo = nbuckets]) holds that level's all-empty
     digest, so filling it hashes once per level, not once per node. *)
  let empty_tree nbuckets =
    let tree = Array.make (2 * nbuckets) 0 in
    let rec fill lo digest =
      if lo >= 1 then begin
        Array.fill tree lo lo digest;
        fill (lo / 2) (node_hash digest digest)
      end
    in
    fill nbuckets (leaf_hash 0 0);
    tree

  let mark_dirty t b =
    if not t.dirty_flag.(b) then begin
      t.dirty_flag.(b) <- true;
      t.dirty <- b :: t.dirty
    end

  (* Base tier: [Flat.copy] of [flat], nothing rehashed. The tree starts as
     the empty store's, and only the buckets the sweep filled are dirty, so
     the first [root] hashes their paths and nothing else. *)
  let of_store ?(buckets = default_buckets) (flat : Flat.t) : t =
    let nbuckets = next_pow2 (max 1 buckets) in
    let acc = Array.make nbuckets 0 and counts = Array.make nbuckets 0 in
    sweep flat ~mask:(nbuckets - 1) acc counts;
    let t =
      {
        flat = Flat.copy flat;
        nbuckets;
        mask = nbuckets - 1;
        acc;
        counts;
        tree = empty_tree nbuckets;
        dirty = [];
        dirty_flag = Array.make nbuckets false;
        seen = Array.make nbuckets 0;
        gen = 0;
        scratch = Array.make nbuckets 0;
      }
    in
    Array.iteri (fun b n -> if n > 0 then mark_dirty t b) counts;
    t

  let create ?buckets () = of_store ?buckets (Flat.create ())
  let buckets t = t.nbuckets
  let cardinal t = Flat.cardinal t.flat

  (* --- Accumulator updates ---------------------------------------------- *)

  (* Add ([sign] = 1) or take out ([sign] = -1) the entry of value [v] at a
     location of pre-mixed hash [hm] in bucket [b], and dirty the bucket. *)
  let fold_entry t ~b ~hm ~sign v =
    t.acc.(b) <- t.acc.(b) + (sign * entry_hash_hm hm v);
    t.counts.(b) <- t.counts.(b) + sign;
    mark_dirty t b

  (* --- Between-blocks mutation (base tier + accumulators) ---------------- *)

  (* One [L.hash] and one probe per write: the hash picks the digest bucket
     and is handed to [Flat.exchange], which finds the slot once and returns
     the binding it replaces. An equal value leaves the digest untouched, so
     re-applying a snapshot is idempotent. *)
  let set t l v =
    let hl = L.hash l in
    let b = hl land t.mask and hm = mix hl in
    match Flat.exchange t.flat ~hash:hl l v with
    | None -> fold_entry t ~b ~hm ~sign:1 v
    | Some ov when V.equal ov v -> ()
    | Some ov ->
        fold_entry t ~b ~hm ~sign:(-1) ov;
        fold_entry t ~b ~hm ~sign:1 v

  let remove t l =
    match Flat.get t.flat l with
    | None -> ()
    | Some ov ->
        Flat.remove t.flat l;
        let hl = L.hash l in
        fold_entry t ~b:(hl land t.mask) ~hm:(mix hl) ~sign:(-1) ov

  let apply_delta t delta = List.iter (fun (l, v) -> set t l v) delta

  (* --- Reads ------------------------------------------------------------- *)

  let get t l = Flat.get t.flat l
  let mem t l = Flat.mem t.flat l

  let reader t : (L.t, V.t) Intf.storage = Flat.reader t.flat

  let base t : Flat.t = t.flat

  (* --- Root -------------------------------------------------------------- *)

  (* Refresh the tree bottom-up, level by level: refresh all dirty leaves,
     then their (deduplicated) parents, and so on to the root. Dedup matters
     when the dirty set is dense — a block touching most buckets would
     otherwise recompute each near-root node once per dirty leaf; level-wise
     the total work is at most 2 * |dirty| node hashes. Dedup uses
     generation marks ([seen]/[gen]) so nothing is cleared between calls.
     A node's children are always final before it is hashed: every updated
     child was written in the previous level pass, and untouched siblings
     are clean by the dirty-tracking invariant. *)
  let root t : int64 =
    (match t.dirty with
    | [] -> ()
    | dirty ->
        let n = ref 0 in
        List.iter
          (fun b ->
            t.dirty_flag.(b) <- false;
            let i = t.nbuckets + b in
            t.tree.(i) <- leaf_hash t.acc.(b) t.counts.(b);
            t.scratch.(!n) <- i;
            incr n)
          dirty;
        t.dirty <- [];
        (* Walk levels in the scratch array in place: parents are written at
           position <= the child position being read, so reads never see a
           clobbered slot. Stop once the level is just the root. *)
        let count = ref !n in
        while !count > 0 && t.scratch.(0) <> 1 do
          t.gen <- t.gen + 1;
          let next = ref 0 in
          for k = 0 to !count - 1 do
            let p = t.scratch.(k) / 2 in
            if t.seen.(p) <> t.gen then begin
              t.seen.(p) <- t.gen;
              t.tree.(p) <- node_hash t.tree.(2 * p) t.tree.((2 * p) + 1);
              t.scratch.(!next) <- p;
              incr next
            end
          done;
          count := !next
        done);
    Int64.of_int t.tree.(1)

  (* From-scratch rebuild over the base tier only — ignores incremental
     state. The yardstick [root] is checked against in property tests, and
     an O(n) whole-state digest like the sorted fold the state-scale
     experiment measures [root] against. *)
  let recompute_root t : int64 =
    let acc = Array.make t.nbuckets 0 and counts = Array.make t.nbuckets 0 in
    sweep t.flat ~mask:t.mask acc counts;
    let tree = Array.make (2 * t.nbuckets) 0 in
    for b = 0 to t.nbuckets - 1 do
      tree.(t.nbuckets + b) <- leaf_hash acc.(b) counts.(b)
    done;
    for i = t.nbuckets - 1 downto 1 do
      tree.(i) <- node_hash tree.(2 * i) tree.((2 * i) + 1)
    done;
    Int64.of_int tree.(1)
end
