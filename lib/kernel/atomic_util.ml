(** Small helpers over [Stdlib.Atomic] used throughout the scheduler, plus
    the cache-line padding and backoff primitives the lock-free hot paths
    rely on.

    OCaml exposes [fetch_and_add] and [compare_and_set]; the paper also relies
    on a [fetch_min] instruction, which we implement as a CAS loop. *)

(** [fetch_min a v] atomically sets [a] to [min (get a) v]. Returns [true] iff
    the stored value actually decreased. Lock-free: retries only when another
    thread raced a concurrent update. *)
let rec fetch_min (a : int Atomic.t) (v : int) : bool =
  let cur = Atomic.get a in
  if v >= cur then false
  else if Atomic.compare_and_set a cur v then true
  else fetch_min a v

let incr (a : int Atomic.t) : unit = ignore (Atomic.fetch_and_add a 1)
let decr (a : int Atomic.t) : unit = ignore (Atomic.fetch_and_add a (-1))

(** [get_and_incr a] is the paper's [fetch_and_increment]: returns the value
    held before the increment. *)
let get_and_incr (a : int Atomic.t) : int = Atomic.fetch_and_add a 1

(* --- Cache-line padding ---------------------------------------------------- *)

(* Two cache lines' worth of words: x86 prefetches line pairs, so 128-byte
   spacing is what folk wisdom (and multicore-magic) uses to keep two
   unrelated atomics from bouncing the same prefetched pair. *)
let cache_line_words = 16

(** [pad v] reallocates the heap block [v] into a block of at least
    {!cache_line_words} words so that no other allocation shares its cache
    line(s). The extra fields are [()] and never touched; all observable
    fields keep their offsets, so the result behaves exactly like [v].

    Intended for freshly allocated, not-yet-shared blocks — typically
    [pad (Atomic.make x)] (an [Atomic.t] is a one-field record and atomic
    loads/stores only ever touch field 0) or a small mutable record about to
    be placed in a hot array. Must not be applied to immediates (ints,
    constant constructors) or custom/float blocks. *)
let pad (v : 'a) : 'a =
  let orig = Obj.repr v in
  let size = Obj.size orig in
  if size >= cache_line_words then v
  else begin
    let padded = Obj.new_block (Obj.tag orig) cache_line_words in
    for i = 0 to size - 1 do
      Obj.set_field padded i (Obj.field orig i)
    done;
    Obj.obj padded
  end

(** [padded_atomic v] is [pad (Atomic.make v)]: an atomic on its own cache
    line(s). The scheduler uses this for its adjacent hot counters so a CAS
    on one does not invalidate the line a neighbouring counter lives on. *)
let padded_atomic (v : 'a) : 'a Atomic.t = pad (Atomic.make v)

(* --- Array construction ---------------------------------------------------- *)

(* See the interface. The placeholder is an immediate, except for a float
   [f 0]: a float array takes its unboxed layout from a float initial
   element, which forces no collection. *)
let init_array (n : int) (f : int -> 'a) : 'a array =
  if n <= 0 then Array.init n f
  else begin
    let x0 = f 0 in
    let float = Obj.tag (Obj.repr x0) = Obj.double_tag in
    let a = Array.make n (if float then x0 else Obj.magic 0) in
    Array.unsafe_set a 0 x0;
    for i = 1 to n - 1 do
      Array.unsafe_set a i (f i)
    done;
    a
  end

(* --- Exponential backoff --------------------------------------------------- *)

(** Per-thread exponential backoff for idle spin loops: each {!Backoff.once}
    spins [2^k] {!Domain.cpu_relax} pauses and doubles [k] up to a cap, so an
    idle worker quickly stops hammering shared counters (and stealing cache
    bandwidth from working threads) while still reacting within a bounded
    pause once work appears. Not thread-safe — one value per worker. *)
module Backoff = struct
  type t = { mutable exp : int }

  (* At most 2^8 = 256 pauses per call. *)
  let max_exp = 8
  let create () = { exp = 0 }

  let reset (b : t) : unit = b.exp <- 0

  let once (b : t) : unit =
    let spins = 1 lsl b.exp in
    for _ = 1 to spins do
      Domain.cpu_relax ()
    done;
    if b.exp < max_exp then b.exp <- b.exp + 1
end
