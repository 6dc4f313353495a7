(** Metrics registry: named counters and histograms over padded per-domain
    cells.

    The hot path (a counter increment from a worker domain) performs no
    atomic read-modify-write and touches memory no other domain writes:

    - each domain gets its own {e slot} — separately allocated plain [int]
      arrays — found through a small lock-free open-addressing table keyed
      by [Domain.self ()]. The lookup is one or two [Atomic.get]s on cells
      that are written once (at slot claim) and read-shared afterwards;
    - within a slot, counters are spaced [stride] words apart (64 bytes, a
      cache line) so the aggregating reader's loads do not bounce the line a
      writer is hammering;
    - the increment itself is a plain [arr.(i) <- arr.(i) + 1]: the slot has
      a single writer, so no atomicity is needed, and word-sized OCaml array
      accesses never tear.

    Aggregation ([value], [counters], [histograms]) sums over all claimed
    slots. It is racy by design — reading while domains are still running
    gives a momentary snapshot — but exact once the writing domains have
    been joined (the join provides the happens-before edge).

    If more domains touch the registry than [max_domains] allows, the extra
    domains share one overflow slot guarded by a mutex: slower, never
    wrong. *)

(* Counter cells are spaced a cache line apart. *)
let stride = 8

type slot = {
  dom : int;  (** Id of the owning domain ([-1] for the overflow slot). *)
  counters : int array;  (** Counter [i] lives at [i * stride]. *)
  hcells : int array;
      (** Histogram cells, packed (single writer per slot, so bucket-level
          padding would buy nothing): histogram [h] occupies
          [h * hwidth .. (h+1) * hwidth - 1] as [buckets] bucket counts
          followed by a sum cell and a max cell. *)
}

type handle = C of int | H of int

(* Histograms per registry: the engine registers three, a chain stream
   one. *)
let max_histograms = 4

type t = {
  max_counters : int;
  buckets : int;  (** Power-of-two buckets per histogram. *)
  hwidth : int;  (** [buckets + 2]: buckets, sum, max. *)
  table : slot option Atomic.t array;  (** Open addressing, size 2^k. *)
  mask : int;
  overflow : slot;
  overflow_lock : Mutex.t;
  names : (string, handle) Hashtbl.t;  (** Guarded by [reg_lock]. *)
  reg_lock : Mutex.t;
  mutable ncounters : int;
  mutable nhistograms : int;
  mutable counter_names : string list;  (** Reverse registration order. *)
  mutable histogram_names : string list;
}

type counter = { ct : t; idx : int }
type histogram = { ht : t; base : int }

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let make_slot t dom =
  {
    dom;
    counters = Array.make (t.max_counters * stride) 0;
    hcells = Array.make (max_histograms * t.hwidth) 0;
  }

let create ?(max_domains = 16) ?(max_counters = 16) ?(buckets = 48) () : t =
  if max_domains < 1 then invalid_arg "Metrics.create: max_domains < 1";
  if max_counters < 1 then invalid_arg "Metrics.create: max_counters < 1";
  if buckets < 2 then invalid_arg "Metrics.create: buckets < 2";
  let hwidth = buckets + 2 in
  (* 4x the domain budget keeps probe chains short. *)
  let size = next_pow2 (max_domains * 4) in
  let overflow =
    {
      dom = -1;
      counters = Array.make (max_counters * stride) 0;
      hcells = Array.make (max_histograms * hwidth) 0;
    }
  in
  {
    max_counters;
    buckets;
    hwidth;
    table = Array.init size (fun _ -> Atomic.make None);
    mask = size - 1;
    overflow;
    overflow_lock = Mutex.create ();
    names = Hashtbl.create 16;
    reg_lock = Mutex.create ();
    ncounters = 0;
    nhistograms = 0;
    counter_names = [];
    histogram_names = [];
  }

(* --- Registration --------------------------------------------------------- *)

let counter (t : t) (name : string) : counter =
  Mutex.lock t.reg_lock;
  let h =
    match Hashtbl.find_opt t.names name with
    | Some h -> h
    | None ->
        if t.ncounters >= t.max_counters then (
          Mutex.unlock t.reg_lock;
          invalid_arg
            (Printf.sprintf "Metrics.counter: registry full (max_counters=%d)"
               t.max_counters));
        let h = C t.ncounters in
        t.ncounters <- t.ncounters + 1;
        t.counter_names <- name :: t.counter_names;
        Hashtbl.add t.names name h;
        h
  in
  Mutex.unlock t.reg_lock;
  match h with
  | C idx -> { ct = t; idx }
  | H _ ->
      invalid_arg
        (Printf.sprintf "Metrics.counter: %S is registered as a histogram"
           name)

let histogram (t : t) (name : string) : histogram =
  Mutex.lock t.reg_lock;
  let h =
    match Hashtbl.find_opt t.names name with
    | Some h -> h
    | None ->
        if t.nhistograms >= max_histograms then (
          Mutex.unlock t.reg_lock;
          invalid_arg
            (Printf.sprintf
               "Metrics.histogram: registry full (max_histograms=%d)"
               max_histograms));
        let h = H t.nhistograms in
        t.nhistograms <- t.nhistograms + 1;
        t.histogram_names <- name :: t.histogram_names;
        Hashtbl.add t.names name h;
        h
  in
  Mutex.unlock t.reg_lock;
  match h with
  | H i -> { ht = t; base = i * t.hwidth }
  | C _ ->
      invalid_arg
        (Printf.sprintf "Metrics.histogram: %S is registered as a counter"
           name)

(* --- Slot lookup ---------------------------------------------------------- *)

(* Claim or find the calling domain's slot. Probes at most [size] cells;
   a full table sends the domain to the shared overflow slot. *)
let slot_for (t : t) : slot =
  let dom = (Domain.self () :> int) in
  let size = t.mask + 1 in
  let rec probe i attempts =
    if attempts >= size then t.overflow
    else
      let cell = t.table.(i land t.mask) in
      match Atomic.get cell with
      | Some s when s.dom = dom -> s
      | Some _ -> probe (i + 1) (attempts + 1)
      | None ->
          let s = make_slot t dom in
          if Atomic.compare_and_set cell None (Some s) then s
          else probe i attempts (* raced: re-read this cell *)
  in
  probe (dom * 0x9E3779B1) 0

(* --- Hot-path updates ----------------------------------------------------- *)

let add (c : counter) (n : int) : unit =
  let s = slot_for c.ct in
  let i = c.idx * stride in
  if s == c.ct.overflow then (
    Mutex.lock c.ct.overflow_lock;
    s.counters.(i) <- s.counters.(i) + n;
    Mutex.unlock c.ct.overflow_lock)
  else s.counters.(i) <- s.counters.(i) + n

let incr (c : counter) : unit = add c 1

(* Bucket [0] holds values <= 0; bucket [b >= 1] holds [2^(b-1), 2^b). The
   last bucket absorbs everything larger. *)
let bucket_of (t : t) (v : int) : int =
  if v <= 0 then 0
  else begin
    let rec bits acc x = if x = 0 then acc else bits (acc + 1) (x lsr 1) in
    min (t.buckets - 1) (bits 0 v)
  end

let observe (h : histogram) (v : int) : unit =
  let t = h.ht in
  let s = slot_for t in
  let b = h.base + bucket_of t v in
  let sum = h.base + t.buckets in
  let mx = sum + 1 in
  let update () =
    s.hcells.(b) <- s.hcells.(b) + 1;
    s.hcells.(sum) <- s.hcells.(sum) + v;
    if v > s.hcells.(mx) then s.hcells.(mx) <- v
  in
  if s == t.overflow then (
    Mutex.lock t.overflow_lock;
    update ();
    Mutex.unlock t.overflow_lock)
  else update ()

(* --- Aggregation ---------------------------------------------------------- *)

let fold_slots (t : t) ~init ~f =
  let acc = ref init in
  Array.iter
    (fun cell ->
      match Atomic.get cell with Some s -> acc := f !acc s | None -> ())
    t.table;
  f !acc t.overflow

let value_at (t : t) (idx : int) : int =
  fold_slots t ~init:0 ~f:(fun acc s -> acc + s.counters.(idx * stride))

let value (c : counter) : int = value_at c.ct c.idx

type hist_summary = {
  count : int;
  sum : int;
  max : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* Aggregate one histogram's buckets across slots. *)
let hbuckets_at (t : t) (base : int) : int array * int * int =
  let agg = Array.make t.buckets 0 in
  let sum = ref 0 and mx = ref 0 in
  fold_slots t ~init:() ~f:(fun () s ->
      for b = 0 to t.buckets - 1 do
        agg.(b) <- agg.(b) + s.hcells.(base + b)
      done;
      sum := !sum + s.hcells.(base + t.buckets);
      if s.hcells.(base + t.buckets + 1) > !mx then
        mx := s.hcells.(base + t.buckets + 1));
  (agg, !sum, !mx)

(* Quantile estimate from log2 buckets: the representative value of bucket
   [b >= 1] is the midpoint of [2^(b-1), 2^b); exact for bucket 0. *)
let quantile_of_buckets (buckets : int array) (q : float) : float =
  let n = Array.fold_left ( + ) 0 buckets in
  if n = 0 then nan
  else begin
    let target = Float.max 1. (Float.round (q *. float_of_int n)) in
    let rec walk b cum =
      if b >= Array.length buckets then nan
      else
        let cum = cum + buckets.(b) in
        if float_of_int cum >= target then
          if b = 0 then 0. else 0.75 *. Float.of_int (1 lsl b)
        else walk (b + 1) cum
    in
    walk 0 0
  end

let summary_at (t : t) (base : int) : hist_summary =
  let buckets, sum, max = hbuckets_at t base in
  let count = Array.fold_left ( + ) 0 buckets in
  {
    count;
    sum;
    max;
    mean = (if count = 0 then nan else float_of_int sum /. float_of_int count);
    p50 = quantile_of_buckets buckets 0.50;
    p90 = quantile_of_buckets buckets 0.90;
    p99 = quantile_of_buckets buckets 0.99;
  }

let hist_summary (h : histogram) : hist_summary = summary_at h.ht h.base
let quantile (h : histogram) (q : float) : float =
  let buckets, _, _ = hbuckets_at h.ht h.base in
  quantile_of_buckets buckets q

let counters (t : t) : (string * int) list =
  Mutex.lock t.reg_lock;
  let names = List.rev t.counter_names in
  Mutex.unlock t.reg_lock;
  List.mapi (fun idx name -> (name, value_at t idx)) names

let histograms (t : t) : (string * hist_summary) list =
  Mutex.lock t.reg_lock;
  let names = List.rev t.histogram_names in
  Mutex.unlock t.reg_lock;
  List.mapi (fun i name -> (name, summary_at t (i * t.hwidth))) names

let pp ppf (t : t) =
  Fmt.pf ppf "@[<v>%a@,%a@]"
    Fmt.(list ~sep:cut (pair ~sep:(any " = ") string int))
    (counters t)
    Fmt.(
      list ~sep:cut (fun ppf (name, h) ->
          pf ppf "%s: n=%d mean=%.1f p50=%.0f p99=%.0f max=%d" name h.count
            h.mean h.p50 h.p99 h.max))
    (histograms t)
