(** The benchmark's drivers, generic in the location and value types.

    - The {e untraced} run drives the real [Chain.execute_stream] in
      [`Per_block] mode and yields every end-to-end number. Each block it
      commits is executed again by the sequential executor on a reference
      chain: right after the commit on a closed loop, during the next cut
      on the open loop. That is the oracle: roots and outputs must be
      equal, block by block. It is also the yardstick: [speedup_*] compares
      the two executions of the same block, timed milliseconds apart in one
      process, so most of a shared host's drift in speed cancels out.
    - The {e traced} run pushes the same transactions through a driver of
      the benchmark's own that mirrors [Chain.execute_block] call by call,
      using only public entry points ([Bstm.create_instance], [Domain.spawn]
      of a helper running [Bstm.step] with the engine's backoff,
      [Bstm.finalize], [C.apply_state_delta], [C.state_root], [C.digest]).
      It times each call, every transaction's effect handle and the storage
      reader, and yields the per-layer numbers. *)

open Blockstm_kernel
open Util
module Mempool = Blockstm_chain.Mempool
module Backoff = Atomic_util.Backoff
module Json = Blockstm_obs.Json
module Rng = Blockstm_workload.Rng

(** One reported number. *)
type metric = { name : string; value : float; unit : string }

let m name value unit = { name; value; unit }

(** How one workload run ended. [e2e] holds the end-to-end metrics (always
    from the untraced run), [layer] the per-layer metrics (empty unless
    traced), [info] context that is printed but not gated. [failed] counts
    dropped, uncommitted and [Failed]-output transactions out of
    [attempted]. *)
type outcome = {
  correct : (unit, string) result;
  attempted : int;
  failed : int;
  e2e : metric list;
  layer : metric list;
  info : metric list;
}

(** Run length: the timed part lasts [seconds] of wall clock; set-up runs
    [setup_reps] times ([setup_s] is their median, scaled by {!probe}); the
    traced run writes its Chrome trace to [trace] ([None]: no traced
    run). *)
type scale = { seconds : float; setup_reps : int; trace : string option }

(** Worker domains of the engine: the paper-default configuration sized to
    the 2-core reference host. *)
let domains = 2

(** [peak_rss_mb] is read once this many timed transactions have committed
    (or at the end of a shorter run). The OCaml 5.1 heap keeps growing over
    a run whose live data does not, so a fixed amount of work, not a fixed
    time, keeps the number independent of the host's speed. *)
let rss_txns = 100_000

(** Words of the array {!probe} reads: 16 MB, past the per-core caches. It
    lives outside the OCaml heap: a 64 MB heap block, even once freed, left
    the collector pacing [p2p-low]'s heap to 4x its usual peak resident
    set. *)
let probe_words = 2 * 1024 * 1024

type probe_array = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let probe_array () : probe_array =
  let a = Bigarray.(Array1.create int c_layout probe_words) in
  Bigarray.Array1.fill a 1;
  a

(** A yardstick for set-up, owned by the benchmark. On a host shared with
    other tenants, set-up time follows theirs: two 10-run batches read 25%
    apart. The probe has the two halves set-up has: allocation and hashing
    in the OCaml heap (20,000 boxed entries into a [Hashtbl]), like a small
    genesis, and 200,000 reads at scattered places of [a], like the
    memory-bound 10^6-account one. Timed just before each set-up, it slows
    down with it, and set-up time over probe time holds much steadier than
    either. *)
let probe (a : probe_array) =
  let h = Hashtbl.create 16 in
  for i = 0 to 19_999 do
    Hashtbl.replace h (i * 7919) (Array.make 4 i)
  done;
  let s = ref (Hashtbl.fold (fun k v acc -> acc + Hashtbl.hash (k, v.(0))) h 0) in
  for i = 1 to 200_000 do
    let j = i * 0x9E3779B97F4A7C1 in
    s := !s + Bigarray.Array1.get a ((j lxor (j lsr 29)) land (probe_words - 1))
  done;
  !s

(** A fixed probe time, in seconds, near the slow end of the 7-13 ms the
    reference host shows: [setup_s] is set-up time in the reference host's
    seconds. *)
let probe_s = 12e-3

(** Blocks per [Chain.execute_stream] call. A stream keeps every commit it
    returns, outputs included, until it ends; short streams keep the
    outputs held bounded however many blocks a run gets through. *)
let segment = 16

(* ------------------------------------------------------------------------ *)
(* Traced-run accounting                                                     *)
(* ------------------------------------------------------------------------ *)

(** A timed interval of the traced run, kept in memory until exit. [tid] 0
    is the driver domain, 1 the helper; [txn] is -1 when no transaction is
    involved. *)
type span = {
  cat : string;  (** ["block"] or ["step"]. *)
  sname : string;
  tid : int;
  t0 : int;
  t1 : int;
  height : int;
  txn : int;
}

(* Per-domain accumulators. Transactions and the storage reader find the
   record of the domain running them through domain-local storage. *)
type acc = {
  mutable txn_ns : int;  (** Inside transaction closures, effects included. *)
  mutable eff_ns : int;  (** Inside read/write/delta calls. *)
  mutable read_ns : int;
  mutable reads : int;
  mutable read_storage_ns : int;  (** Storage time nested in reads. *)
  mutable storage_ns : int;
  mutable storage_reads : int;
  mutable writes : int;
  mutable exec_ns : int;  (** Steps that ran an incarnation to the end. *)
  mutable exec_txn_ns : int;  (** Closure time inside those steps. *)
  mutable dep_ns : int;  (** Execution steps stopped by an ESTIMATE. *)
  mutable val_ns : int;
  mutable acquire_ns : int;  (** Task fetches that found a task. *)
  mutable idle_ns : int;  (** Task fetches that found none, plus backoff. *)
  mutable steps : span list;  (** Sampled blocks only. *)
}

let fresh_acc () =
  {
    txn_ns = 0;
    eff_ns = 0;
    read_ns = 0;
    reads = 0;
    read_storage_ns = 0;
    storage_ns = 0;
    storage_reads = 0;
    writes = 0;
    exec_ns = 0;
    exec_txn_ns = 0;
    dep_ns = 0;
    val_ns = 0;
    acquire_ns = 0;
    idle_ns = 0;
    steps = [];
  }

let add_acc ~into:t a =
  t.txn_ns <- t.txn_ns + a.txn_ns;
  t.eff_ns <- t.eff_ns + a.eff_ns;
  t.read_ns <- t.read_ns + a.read_ns;
  t.reads <- t.reads + a.reads;
  t.read_storage_ns <- t.read_storage_ns + a.read_storage_ns;
  t.storage_ns <- t.storage_ns + a.storage_ns;
  t.storage_reads <- t.storage_reads + a.storage_reads;
  t.writes <- t.writes + a.writes;
  t.exec_ns <- t.exec_ns + a.exec_ns;
  t.exec_txn_ns <- t.exec_txn_ns + a.exec_txn_ns;
  t.dep_ns <- t.dep_ns + a.dep_ns;
  t.val_ns <- t.val_ns + a.val_ns;
  t.acquire_ns <- t.acquire_ns + a.acquire_ns;
  t.idle_ns <- t.idle_ns + a.idle_ns

let acc_key = Domain.DLS.new_key fresh_acc

(** Block-level phases of the traced driver, in call order. [Wrap] is the
    tracer's own cost of wrapping the block's transactions; [Helper_absent]
    is the helper's slot while the helper domain does not exist (before its
    spawn completes and after it finishes). *)
type phase =
  | Cut
  | Wrap
  | Instance
  | Spawn
  | Join
  | Finalize
  | Apply
  | Root
  | Digest
  | Helper_absent

let phases =
  [ Cut; Wrap; Instance; Spawn; Join; Finalize; Apply; Root; Digest; Helper_absent ]

let phase_name = function
  | Cut -> "cut"
  | Wrap -> "wrap"
  | Instance -> "instance"
  | Spawn -> "spawn"
  | Join -> "join"
  | Finalize -> "finalize"
  | Apply -> "apply"
  | Root -> "root"
  | Digest -> "digest"
  | Helper_absent -> "helper_absent"

let phase_index p =
  let rec go i = function
    | [] -> assert false
    | q :: r -> if q = p then i else go (i + 1) r
  in
  go 0 phases

(* Timed blocks (0-based within the timed window) whose engine steps are
   kept as spans; every other block keeps only its block-level spans, so the
   trace file stays small. *)
let sampled_blocks = [ 0; 16; 64 ]

type tracer = {
  tot : acc;  (** Worker accumulators summed over timed blocks. *)
  phase_ns : int array;  (** Indexed by [phase_index]. *)
  mutable blocks : int;
  mutable txns : int;
  mutable wall_ns : int;  (** Sum of timed blocks' cut-to-digest walls. *)
  cut_ms : float Buf.t;
  block_txns : float Buf.t;
  mutable spans : span list;
  mutable gc0 : Gc.stat option;  (** At the start of the first timed block. *)
  mutable gc1 : Gc.stat option;  (** At the end of the last timed block. *)
}

let tracer () =
  {
    tot = fresh_acc ();
    phase_ns = Array.make (List.length phases) 0;
    blocks = 0;
    txns = 0;
    wall_ns = 0;
    cut_ms = Buf.create 0.;
    block_txns = Buf.create 0.;
    spans = [];
    gc0 = None;
    gc1 = None;
  }

(* Domains x wall of the timed blocks: the time the attribution must cover. *)
let slots tr = float_of_int (domains * tr.wall_ns)

(** Attributed time by layer, as shares of {!slots}; sums to 1 with the
    [unattributed] remainder. Transaction closures run only inside execution
    steps in this configuration, so closure time outside successful
    executions belongs to dependency-aborted ones. *)
let shares tr =
  let a = tr.tot and ph p = tr.phase_ns.(phase_index p) in
  let parts =
    [
      ("vm", a.txn_ns - a.eff_ns);
      ("mvmemory_read", a.read_ns - a.read_storage_ns);
      ("storage_read", a.read_storage_ns);
      ("mvmemory_write", a.eff_ns - a.read_ns);
      ("exec_other", a.exec_ns - a.exec_txn_ns);
      ("dep_abort_other", a.dep_ns - (a.txn_ns - a.exec_txn_ns));
      ("validate", a.val_ns);
      ("acquire", a.acquire_ns);
      ("idle", a.idle_ns);
    ]
    @ List.map (fun p -> (phase_name p, ph p)) phases
  in
  let attributed = List.fold_left (fun s (_, ns) -> s + ns) 0 parts in
  List.map (fun (n, ns) -> (n, ratio (float_of_int ns) (slots tr))) parts
  @ [ ("unattributed", 1. -. ratio (float_of_int attributed) (slots tr)) ]

(** Write the kept spans as a Chrome [trace_event] array (Perfetto,
    [chrome://tracing]). *)
let write_chrome path spans =
  let base = List.fold_left (fun b s -> min b s.t0) max_int spans in
  let num i = Json.Num (float_of_int i) in
  let thread tid name =
    Json.Obj
      [
        ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", num 1);
        ("tid", num tid);
        ("args", Json.Obj [ ("name", Json.Str name) ]);
      ]
  in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.sname);
        ("cat", Json.Str s.cat);
        ("ph", Json.Str "X");
        ("pid", num 1);
        ("tid", num s.tid);
        ("ts", Json.Num (us (s.t0 - base)));
        ("dur", Json.Num (us (s.t1 - s.t0)));
        ( "args",
          Json.Obj
            (("height", num s.height)
            :: (if s.txn < 0 then [] else [ ("txn", num s.txn) ])) );
      ]
  in
  Json.write_file path
    (Json.List (thread 0 "driver" :: thread 1 "helper" :: List.rev_map event spans))

(* ------------------------------------------------------------------------ *)
(* Open-loop load generation                                                 *)
(* ------------------------------------------------------------------------ *)

(** Seeded Poisson arrivals at [rate] per second over [horizon_s]: due
    offsets (ns from the generator's start) and each arrival's transaction,
    drawn from one stream, so a seed fixes the inputs whatever the timing. *)
let poisson ~rate ~horizon_s ~seed (arrival : Rng.t -> int -> 'a) :
    int array * 'a array =
  let rng = Rng.create seed in
  let horizon = horizon_s *. 1e9 in
  let rec go t i dues txns =
    let t = t -. (Float.log (1. -. Rng.float rng) /. rate *. 1e9) in
    if t >= horizon then
      (Array.of_list (List.rev dues), Array.of_list (List.rev txns))
    else go t (i + 1) (int_of_float t :: dues) (arrival rng i :: txns)
  in
  go 0. 0 [] []

type producer_stats = {
  submit_ns : int;  (** Total time inside [Mempool.try_submit]. *)
  late_ns : int array;  (** Per arrival: how late it was offered. *)
  admitted : bool array;  (** [false]: dropped by a full mempool. *)
}

(** The producer domain: sleep (never spin) until each arrival is due, offer
    it to the mempool, and close the pool after the last one. *)
let produce mp ~t_start ~(due : int array) txns : producer_stats =
  let n = Array.length due in
  let late_ns = Array.make n 0 and admitted = Array.make n false in
  let submit_ns = ref 0 in
  for i = 0 to n - 1 do
    let at = t_start + due.(i) in
    let wait = at - now_ns () in
    if wait > 0 then Unix.sleepf (secs wait);
    let t0 = now_ns () in
    late_ns.(i) <- t0 - at;
    admitted.(i) <- Mempool.try_submit mp (i, txns.(i));
    submit_ns := !submit_ns + (now_ns () - t0)
  done;
  Mempool.close mp;
  { submit_ns = !submit_ns; late_ns; admitted }

(* Per-layer metrics that only an open loop has; a closed loop reports
   them as 0. *)
let mempool_metrics ~cut_ms ~submit_ns ~block_txns ~depth ~dropped =
  [
    m "mempool.cut_ms_p50" cut_ms "ms";
    m "mempool.submit_ns_per_txn" submit_ns "ns";
    m "mempool.block_txns_p50" block_txns "count";
    m "mempool.depth_at_cut_p95" depth "count";
    m "mempool.dropped" dropped "count";
  ]

let loadgen_metrics ~late_p99 ~late_max =
  [ m "loadgen.late_ms_p99" late_p99 "ms"; m "loadgen.late_ms_max" late_max "ms" ]

(* ------------------------------------------------------------------------ *)
(* Drivers                                                                   *)
(* ------------------------------------------------------------------------ *)

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  module C = Blockstm_chain.Chain.Make (L) (V)
  module Bstm = C.Bstm

  type 'o txn = (L.t, V.t, 'o) Txn.t

  (** A closed-loop workload: [c_setup ()] builds the genesis state plus
      whatever the transactions need (e.g. a compiled script) and returns a
      seeded block generator; the next block is generated only when the
      chain asks for it. *)
  type 'o closed = {
    c_setup : unit -> C.Store.t * (int -> unit -> 'o txn array);
    c_hash : 'o -> int;  (** Output fingerprint for the oracle. *)
    c_warmup : int;  (** Warm-up blocks: executed and checked, not timed. *)
  }

  (** An open-loop workload: [o_genesis ()] is its set-up; [o_arrival] draws
      one arrival's transaction, following {!poisson}. *)
  type 'o open_ = {
    o_genesis : unit -> C.Store.t;
    o_arrival : Rng.t -> int -> 'o txn;
    o_hash : 'o -> int;
    o_rate : float;  (** Arrivals per second. *)
    o_warmup_s : float;
    o_max_txns : int;  (** Blocks are cut at this size... *)
    o_deadline_ns : int;  (** ...or this long after their first txn was due. *)
  }

  let config = { Bstm.default_config with num_domains = domains }

  let create_chain ?(executor = C.Block_stm config) genesis =
    C.create ~store:`Merkle ~retain_outputs:0 ~executor ~genesis ()

  (* Run [setup] [reps] times, building a fresh chain each time; keep the
     last. Each set-up is timed right after {!probe}, and [setup_s] is the
     median of set-up time over probe time, times {!probe_s}. Collecting in
     between keeps earlier copies from stacking up in the peak resident set,
     and the last collections free the probe's array before anything else
     runs. One full collection leaves enough of the collector's work pending
     that some processes' set-up medians read 40% high; a second settles it.
     Returns the raw median wall time and the median probe time as
     context. *)
  let set_up reps setup =
    let settle () =
      Gc.full_major ();
      Gc.full_major ()
    in
    let walls = Array.make reps 0. and probes = Array.make reps 0. in
    let last = ref None and words = ref (Some (probe_array ())) in
    for i = 0 to reps - 1 do
      last := None;
      settle ();
      let p0 = now_ns () in
      ignore (Sys.opaque_identity (probe (Option.get !words)));
      probes.(i) <- secs (now_ns () - p0);
      settle ();
      let t0 = now_ns () in
      let genesis, source = setup () in
      let chain = create_chain genesis in
      walls.(i) <- secs (now_ns () - t0);
      last := Some (chain, source)
    done;
    words := None;
    settle ();
    let scaled = Array.mapi (fun i w -> w /. probes.(i) *. probe_s) walls in
    ( Option.get !last,
      median scaled,
      [
        m "setup_wall_s" (median walls) "s";
        m "setup_probe_ms" (1e3 *. median probes) "ms";
      ] )

  let hash_output hash = function
    | Txn.Success v -> hash v
    | Txn.Failed msg -> Hashtbl.hash msg

  let fingerprint hash (outputs : 'o Txn.output array) =
    Array.fold_left (fun h o -> (h * 31) + hash_output hash o) 17 outputs

  let count_failed (outputs : 'o Txn.output array) =
    Array.fold_left
      (fun n -> function Txn.Failed _ -> n + 1 | Txn.Success _ -> n)
      0 outputs

  (** The oracle for one block: Block-STM's commit [c] and the sequential
      reference's commit [r] of the same transactions must have the same
      state root and the same outputs. *)
  let check_block hash (c : 'o C.block_commit) (r : 'o C.block_commit) =
    if not (Int64.equal c.state_root r.state_root) then
      Error (Printf.sprintf "state root diverges at height %d" c.height)
    else if fingerprint hash c.outputs <> fingerprint hash r.outputs then
      Error (Printf.sprintf "outputs diverge at height %d" c.height)
    else Ok ()

  (* Drive [chain] with the blocks [next] yields until it yields [None], in
     streams of at most {!segment} blocks. Returns the time spent inside
     [next] ([stream_stats.s_idle_ns], summed). *)
  let drive chain ~on_block ~next =
    let idle = ref 0 and over = ref false in
    while not !over do
      let left = ref segment in
      let _, st =
        C.execute_stream chain ~on_block ~next:(fun () ->
            if !left = 0 then None
            else
              match next () with
              | None ->
                  over := true;
                  None
              | b ->
                  decr left;
                  b)
      in
      idle := !idle + st.C.s_idle_ns
    done;
    !idle

  (* Engine counts from the untraced [block_commit.metrics]. *)
  type counts = {
    mutable incarnations : int;
    mutable dep_aborts : int;
    mutable validations : int;
    mutable val_aborts : int;
    mutable txns : int;
  }

  let counts () =
    { incarnations = 0; dep_aborts = 0; validations = 0; val_aborts = 0; txns = 0 }

  let add_counts k (c : 'o C.block_commit) =
    k.txns <- k.txns + c.txn_count;
    match c.metrics with
    | None -> ()
    | Some x ->
        k.incarnations <- k.incarnations + x.Bstm.incarnations;
        k.dep_aborts <- k.dep_aborts + x.dependency_aborts;
        k.validations <- k.validations + x.validations;
        k.val_aborts <- k.val_aborts + x.validation_aborts

  (** What the untraced run measures over its timed blocks: each block's
      Block-STM time, its sequential reference's time and their ratio, the
      block and transaction latencies, the engine counts, and the peak
      resident set once {!rss_txns} have committed.

      Block-STM runs on both cores: the driver domain and a helper domain
      spawned for the block. The reference runs on the driver domain for
      even heights and on a freshly spawned domain for odd ones, so it too
      samples both; [speedups] keeps the two sets of ratios apart. *)
  type timed = {
    bstm_ns : int Buf.t;
    seq_ns : int Buf.t;
    speedups : float Buf.t array;  (** By [height mod 2]. *)
    blat : float Buf.t;
    clat : float Buf.t;
    k : counts;
    mutable rss : float option;
  }

  let timed () =
    {
      bstm_ns = Buf.create 0;
      seq_ns = Buf.create 0;
      speedups = Array.init 2 (fun _ -> Buf.create 0.);
      blat = Buf.create 0.;
      clat = Buf.create 0.;
      k = counts ();
      rss = None;
    }

  (* Book one timed block: commit [c], its Block-STM time [bstm] and its
     reference's time [seq] (ns). *)
  let book t (c : 'o C.block_commit) ~bstm ~seq =
    Buf.push t.bstm_ns bstm;
    Buf.push t.seq_ns seq;
    Buf.push t.speedups.(c.height mod 2) (ratio (float_of_int seq) (float_of_int bstm));
    add_counts t.k c;
    if t.rss = None && t.k.txns >= rss_txns then t.rss <- Some (peak_rss_mb ())

  (* Where a block's reference runs: the driver domain or a fresh one. *)
  let on_either (c : 'o C.block_commit) f =
    if c.height mod 2 = 0 then f () else Domain.join (Domain.spawn f)

  (* What an untraced run hands to the report. *)
  type untraced = {
    u_correct : (unit, string) result;
    u_attempted : int;
    u_failed : int;
    u_e2e : metric list;
    u_info : metric list;
    u_counts : counts;
    u_tps : float;  (** Timed transactions over Block-STM time. *)
    u_idle_ms : float;
    u_commit_p99 : float;
  }

  (* The end-to-end metrics, in BENCHMARK.json order, plus their context.
     [tps] is over Block-STM time: a closed loop's generation and reference
     time are left out. *)
  let summarize ~correct ~attempted ~failed (t : timed) ~tps ~setup_s ~idle_ns ~info
      =
    let exec = Buf.to_array t.bstm_ns and refs = Buf.to_array t.seq_ns in
    (* A percentile of the per-block speedups: the geometric mean of its
       value over the two places the reference ran. *)
    let speedup p =
      let logs =
        List.filter_map
          (fun b ->
            let xs = Buf.to_array b in
            if Array.length xs = 0 then None else Some (Float.log (percentile p xs)))
          (Array.to_list t.speedups)
      in
      Float.exp (List.fold_left ( +. ) 0. logs /. float_of_int (max 1 (List.length logs)))
    in
    let sum = Array.fold_left ( + ) 0 in
    let rss = match t.rss with Some r -> r | None -> peak_rss_mb () in
    let block_lat = Buf.to_array t.blat and commit_lat = Buf.to_array t.clat in
    let commit_p99 = percentile 99. commit_lat in
    {
      u_correct = correct;
      u_attempted = attempted;
      u_failed = failed;
      u_e2e =
        [
          m "speedup_p50" (speedup 50.) "ratio";
          m "setup_s" setup_s "s";
          m "peak_rss_mb" rss "MB";
        ];
      u_info =
        [
          m "speedup_p10" (speedup 10.) "ratio";
          m "fail_frac" (ratio (float_of_int failed) (float_of_int attempted)) "ratio";
          m "tps" tps "txn/s";
          m "seq_tps"
            (ratio (float_of_int t.k.txns) (secs (sum refs)))
            "txn/s";
          m "commit_p50_ms" (median commit_lat) "ms";
          m "commit_p90_ms" (percentile 90. commit_lat) "ms";
          m "commit_p99_ms" commit_p99 "ms";
          m "commit_samples" (float_of_int (Array.length commit_lat)) "count";
          m "block_p50_ms" (median block_lat) "ms";
          m "block_p95_ms" (percentile 95. block_lat) "ms";
          m "blocks" (float_of_int (Array.length exec)) "count";
        ]
        @ info;
      u_counts = t.k;
      u_tps = tps;
      u_idle_ms = ms idle_ns;
      u_commit_p99 = commit_p99;
    }

  (* ---------------------------------------------------------------------- *)
  (* Traced driver                                                           *)
  (* ---------------------------------------------------------------------- *)

  (* The transaction with its effect handle timed: closure time and, inside
     it, each read (with the storage fall-through it triggers), write and
     delta. Exceptions (ESTIMATE dependencies, aborts) pass through
     unchanged once their time is booked. *)
  let wrap_txn (txn : 'o txn) : 'o txn =
   fun e ->
    let a = Domain.DLS.get acc_key in
    let read l =
      let s0 = a.storage_ns and t0 = now_ns () in
      let book () =
        let dt = now_ns () - t0 in
        a.read_ns <- a.read_ns + dt;
        a.eff_ns <- a.eff_ns + dt;
        a.reads <- a.reads + 1;
        a.read_storage_ns <- a.read_storage_ns + (a.storage_ns - s0)
      in
      match e.Txn.read l with
      | v ->
          book ();
          v
      | exception ex ->
          let bt = Printexc.get_raw_backtrace () in
          book ();
          Printexc.raise_with_backtrace ex bt
    in
    let write l v =
      let t0 = now_ns () in
      e.Txn.write l v;
      a.eff_ns <- a.eff_ns + (now_ns () - t0);
      a.writes <- a.writes + 1
    in
    let delta l d =
      let t0 = now_ns () in
      let r = e.Txn.delta l d in
      a.eff_ns <- a.eff_ns + (now_ns () - t0);
      a.writes <- a.writes + 1;
      r
    in
    let t0 = now_ns () in
    match txn { Txn.read; write; delta } with
    | v ->
        a.txn_ns <- a.txn_ns + (now_ns () - t0);
        v
    | exception ex ->
        let bt = Printexc.get_raw_backtrace () in
        a.txn_ns <- a.txn_ns + (now_ns () - t0);
        Printexc.raise_with_backtrace ex bt

  let timed_storage (st : (L.t, V.t) Intf.storage) : (L.t, V.t) Intf.storage =
   fun l ->
    let a = Domain.DLS.get acc_key in
    let t0 = now_ns () in
    let v = st l in
    a.storage_ns <- a.storage_ns + (now_ns () - t0);
    a.storage_reads <- a.storage_reads + 1;
    v

  (* [Bstm.worker_loop]'s loop, one public [Bstm.step] at a time with the
     same [Backoff] pacing; each step is timed and booked by what it did. *)
  let traced_loop ~tid ~height ~sample inst =
    let a = Domain.DLS.get acc_key in
    let backoff = Backoff.create () in
    let task = ref None in
    while not (Bstm.is_done inst) do
      let carried = !task in
      let x0 = a.txn_ns in
      let t0 = now_ns () in
      let task', ev = Bstm.step inst carried in
      (match ev with
      | Bstm.No_task -> Backoff.once backoff
      | _ -> Backoff.reset backoff);
      let t1 = now_ns () in
      let dt = t1 - t0 in
      let kind =
        match ev with
        | Bstm.Executed _ | Cold_fetch _ | Committed _ ->
            (* The last two are not produced by this configuration. *)
            a.exec_ns <- a.exec_ns + dt;
            a.exec_txn_ns <- a.exec_txn_ns + (a.txn_ns - x0);
            "exec"
        | Exec_dependency _ ->
            a.dep_ns <- a.dep_ns + dt;
            "dep_abort"
        | Validated _ ->
            a.val_ns <- a.val_ns + dt;
            "validate"
        | Got_task ->
            a.acquire_ns <- a.acquire_ns + dt;
            "acquire"
        | No_task ->
            a.idle_ns <- a.idle_ns + dt;
            "idle"
      in
      if sample then begin
        let txn =
          match (carried, task') with
          | Some (Execution v | Validation (v, _)), _
          | None, Some (Execution v | Validation (v, _)) ->
              v.Version.txn_idx
          | None, None -> -1
        in
        a.steps <- { cat = "step"; sname = kind; tid; t0; t1; height; txn } :: a.steps
      end;
      task := task'
    done

  (** Execute one already-cut block the way [Chain.execute_block] does,
      timing every call. [cut] is when cutting the block started and ended;
      only [timed] blocks are accounted. Returns the outputs and the new
      state root. *)
  let traced_block tr chain ~height ~cut:(t_cut, t_wrap) ~timed
      (raw : 'o txn array) =
    let sample = timed && List.mem tr.blocks sampled_blocks in
    if timed && tr.gc0 = None then tr.gc0 <- Some (Gc.quick_stat ());
    let txns = Array.map wrap_txn raw in
    let main = fresh_acc () in
    Domain.DLS.set acc_key main;
    let t_inst = now_ns () in
    let inst =
      Bstm.create_instance ~config
        ~storage:(timed_storage (C.storage_reader chain))
        txns
    in
    let t_spawn = now_ns () in
    let helper =
      Domain.spawn (fun () ->
          let a = fresh_acc () in
          Domain.DLS.set acc_key a;
          let h0 = now_ns () in
          traced_loop ~tid:1 ~height ~sample inst;
          (a, h0, now_ns ()))
    in
    let t_loop = now_ns () in
    traced_loop ~tid:0 ~height ~sample inst;
    let t_join = now_ns () in
    let ha, h0, h1 = Domain.join helper in
    let t_fin = now_ns () in
    let res = Bstm.finalize inst in
    let t_apply = now_ns () in
    C.apply_state_delta chain res.snapshot;
    let t_root = now_ns () in
    let root = C.state_root chain in
    let t_digest = now_ns () in
    ignore
      (Sys.opaque_identity
         (C.digest ~hash_loc:L.hash ~hash_value:V.hash res.snapshot));
    let t_end = now_ns () in
    if timed then begin
      let span tid sname t0 t1 = { cat = "block"; sname; tid; t0; t1; height; txn = -1 } in
      let book p t0 t1 =
        let i = phase_index p in
        tr.phase_ns.(i) <- tr.phase_ns.(i) + (t1 - t0);
        tr.spans <- span (if p = Helper_absent then 1 else 0) (phase_name p) t0 t1 :: tr.spans
      in
      book Cut t_cut t_wrap;
      book Wrap t_wrap t_inst;
      book Instance t_inst t_spawn;
      book Spawn t_spawn t_loop;
      book Join t_join t_fin;
      book Finalize t_fin t_apply;
      book Apply t_apply t_root;
      book Root t_root t_digest;
      book Digest t_digest t_end;
      book Helper_absent t_cut h0;
      book Helper_absent h1 t_end;
      tr.spans <-
        List.rev_append ha.steps
          (List.rev_append main.steps
             (span 1 "worker_loop" h0 h1 :: span 0 "worker_loop" t_loop t_join
            :: tr.spans));
      add_acc ~into:tr.tot main;
      add_acc ~into:tr.tot ha;
      tr.blocks <- tr.blocks + 1;
      tr.txns <- tr.txns + Array.length raw;
      tr.wall_ns <- tr.wall_ns + (t_end - t_cut);
      Buf.push tr.cut_ms (ms (t_wrap - t_cut));
      Buf.push tr.block_txns (float_of_int (Array.length raw));
      tr.gc1 <- Some (Gc.quick_stat ())
    end;
    (res.outputs, root)

  (** The per-layer metrics of a traced run [tr] next to its untraced twin
      [u], in BENCHMARK.json order; [mempool] and [loadgen] are the open
      loop's own. Also writes the Chrome trace and returns the layer
      shares as context. *)
  let layer_report tr (u : untraced) ~path ~mempool ~loadgen =
    write_chrome path tr.spans;
    let a = tr.tot and ph p = tr.phase_ns.(phase_index p) in
    let txns = float_of_int tr.txns and blocks = float_of_int tr.blocks in
    let per_txn ns = ratio (float_of_int ns) txns in
    let per_txn_us ns = per_txn ns /. 1e3 in
    let per_block_us ns = ratio (us ns) blocks in
    let k = u.u_counts in
    let per_utxn x = ratio (float_of_int x) (float_of_int k.txns) in
    let frac ns = ratio (float_of_int ns) (slots tr) in
    let gc f =
      match (tr.gc0, tr.gc1) with
      | Some g0, Some g1 -> f g1 -. f g0
      | _ -> 0.
    in
    let shares = shares tr in
    let layer =
      mempool @ loadgen
      @ [
          m "chain.idle_ms" u.u_idle_ms "ms";
          m "chain.delta_root_us_per_block" (per_block_us (ph Digest)) "us";
          m "chain.commit_p99_ms" u.u_commit_p99 "ms";
          m "storage.reads_per_txn" (per_txn a.storage_reads) "count";
          m "storage.read_ns_per_txn" (per_txn a.storage_ns) "ns";
          m "storage.apply_us_per_block" (per_block_us (ph Apply)) "us";
          m "storage.root_us_per_block" (per_block_us (ph Root)) "us";
          m "core.instance_us_per_block" (per_block_us (ph Instance)) "us";
          m "core.spawn_join_us_per_block" (per_block_us (ph Spawn + ph Join)) "us";
          m "core.exec_us_per_txn" (per_txn_us a.exec_ns) "us";
          m "core.exec_other_us_per_txn" (per_txn_us (a.exec_ns - a.exec_txn_ns)) "us";
          m "core.busy_frac" (frac (a.exec_ns + a.dep_ns + a.val_ns)) "ratio";
          m "core.incarnations_per_txn" (per_utxn k.incarnations) "count";
          m "core.dep_aborts_per_txn" (per_utxn k.dep_aborts) "count";
          m "core.dep_abort_us_per_txn" (per_txn_us a.dep_ns) "us";
          m "core.validations_per_txn" (per_utxn k.validations) "count";
          m "core.val_aborts_per_txn" (per_utxn k.val_aborts) "count";
          m "core.validate_us_per_txn" (per_txn_us a.val_ns) "us";
          m "core.useful_ratio"
            (ratio (float_of_int k.txns) (float_of_int (k.incarnations + k.dep_aborts)))
            "ratio";
          m "scheduler.acquire_us_per_txn" (per_txn_us a.acquire_ns) "us";
          m "scheduler.idle_us_per_block" (per_block_us a.idle_ns) "us";
          m "scheduler.idle_frac" (frac a.idle_ns) "ratio";
          m "mvmemory.reads_per_txn" (per_txn a.reads) "count";
          m "mvmemory.read_ns_per_txn" (per_txn (a.read_ns - a.read_storage_ns)) "ns";
          m "mvmemory.writes_per_txn" (per_txn a.writes) "count";
          m "mvmemory.snapshot_us_per_block" (per_block_us (ph Finalize)) "us";
          m "vm.self_us_per_txn" (per_txn_us (a.txn_ns - a.eff_ns)) "us";
          m "gc.minor_collections"
            (gc (fun g -> float_of_int g.Gc.minor_collections))
            "count";
          m "gc.major_collections"
            (gc (fun g -> float_of_int g.Gc.major_collections))
            "count";
          m "gc.minor_words_per_txn"
            (ratio (gc (fun g -> g.Gc.minor_words)) txns)
            "words";
          m "trace.overhead_frac"
            (1. -. ratio (ratio txns (secs tr.wall_ns)) u.u_tps)
            "ratio";
          m "trace.unattributed_frac" (List.assoc "unattributed" shares) "ratio";
        ]
    in
    (layer, List.map (fun (n, v) -> m ("share." ^ n) v "ratio") shares)

  (* Fold a traced run's verdict into the untraced one's. *)
  let both_correct (u : untraced) = function
    | Ok () -> u.u_correct
    | Error e -> ( match u.u_correct with Error _ as err -> err | Ok () -> Error e)

  let outcome (u : untraced) ?(layer = []) ?(info = []) correct =
    {
      correct;
      attempted = u.u_attempted;
      failed = u.u_failed;
      e2e = u.u_e2e;
      layer;
      info = u.u_info @ info;
    }

  (* ---------------------------------------------------------------------- *)
  (* Closed loop                                                             *)
  (* ---------------------------------------------------------------------- *)

  (* The untraced closed-loop run. Warm-up blocks, then blocks until
     [sc.seconds] have passed; after each commit, the driver runs the same
     block through the reference chain and checks it. Only small results
     escape, so both chains are garbage before a traced run builds its own.
     Also returns the reference's roots and output fingerprints, block by
     block, for the traced run. *)
  let closed_untraced (w : 'o closed) sc ~seed =
    let (chain, stream), setup_s, setup_info = set_up sc.setup_reps w.c_setup in
    let ref_chain = create_chain ~executor:C.Sequential (fst (w.c_setup ())) in
    let gen = stream seed in
    let t = timed () in
    let ref_roots = Buf.create 0L and ref_fps = Buf.create 0 in
    let attempted = ref 0 and failed = ref 0 and correct = ref (Ok ()) in
    let blocks = ref 0 and t_end = ref max_int in
    let block = ref [||] and submitted = ref 0 and handed = ref 0 in
    (* Closed loop: a block is generated (its transactions submitted) only
       once the previous one has committed. *)
    let next () =
      if !blocks >= w.c_warmup && now_ns () >= !t_end then None
      else begin
        submitted := now_ns ();
        block := gen ();
        handed := now_ns ();
        Some !block
      end
    in
    let on_block (c : 'o C.block_commit) =
      let t1 = now_ns () in
      let block = !block in
      let r, seq =
        on_either c (fun () ->
            let r0 = now_ns () in
            let r = C.execute_block ref_chain block in
            (r, now_ns () - r0))
      in
      if !blocks >= w.c_warmup then begin
        book t c ~bstm:(t1 - !handed) ~seq;
        Buf.push t.blat (ms (t1 - !handed));
        Buf.push t.clat (ms (t1 - !submitted))
      end;
      incr blocks;
      attempted := !attempted + c.txn_count;
      failed := !failed + count_failed c.outputs;
      Buf.push ref_roots r.state_root;
      Buf.push ref_fps (fingerprint w.c_hash r.outputs);
      if Result.is_ok !correct then correct := check_block w.c_hash c r
    in
    ignore
      (drive chain ~on_block ~next:(fun () ->
           if !blocks >= w.c_warmup then None else next ()));
    t_end := now_ns () + ns_of_s sc.seconds;
    let idle_ns = drive chain ~on_block ~next in
    let u =
      summarize ~correct:!correct ~attempted:!attempted ~failed:!failed t
        ~tps:(ratio (float_of_int t.k.txns) (secs (Array.fold_left ( + ) 0 (Buf.to_array t.bstm_ns))))
        ~setup_s ~idle_ns ~info:setup_info
    in
    (u, Buf.to_array ref_roots, Buf.to_array ref_fps)

  let run_closed (w : 'o closed) (sc : scale) ~seed : outcome =
    let u, ref_roots, ref_fps = closed_untraced w sc ~seed in
    match sc.trace with
    | None -> outcome u u.u_correct
    | Some path ->
        Gc.full_major ();
        let (chain, stream), _, _ = set_up 1 w.c_setup in
        let gen = stream seed in
        let tr = tracer () and bad = ref None in
        Array.iteri
          (fun i ref_root ->
            let t_cut = now_ns () in
            let raw = gen () in
            let outputs, root =
              traced_block tr chain ~height:(i + 1) ~cut:(t_cut, now_ns ())
                ~timed:(i >= w.c_warmup) raw
            in
            if !bad = None
               && (root <> ref_root || fingerprint w.c_hash outputs <> ref_fps.(i))
            then bad := Some (i + 1))
          ref_roots;
        let layer, shares =
          layer_report tr u ~path
            ~mempool:
              (mempool_metrics ~cut_ms:0. ~submit_ns:0. ~block_txns:0. ~depth:0.
                 ~dropped:0.)
            ~loadgen:(loadgen_metrics ~late_p99:0. ~late_max:0.)
        in
        let traced =
          match !bad with
          | None -> Ok ()
          | Some h -> Error (Printf.sprintf "traced run diverges at height %d" h)
        in
        outcome u ~layer ~info:shares (both_correct u traced)

  (* ---------------------------------------------------------------------- *)
  (* Open loop                                                               *)
  (* ---------------------------------------------------------------------- *)

  (** Open-loop oracle for the traced run: per-arrival output fingerprints
      and the final root must match the untraced run's reference. Valid
      because block cuts never reorder the FIFO mempool and the Merkle root
      depends only on the final state. *)
  let open_oracle ~outs ~root ~ref_outs ~ref_root =
    if not (Int64.equal root ref_root) then
      Error "final state root diverges from the sequential reference"
    else
      match first_mismatch outs ref_outs with
      | Some i -> Error (Printf.sprintf "output of arrival %d diverges" i)
      | None -> Ok ()

  (* One open-loop session: a fresh mempool fed by a fresh producer domain,
     its warm-up end [tw0] and timed-window end [tw1]; [first] is the
     arrival the next block starts with. The pool can hold every arrival of
     the run, so it never drops: with 8192 slots (0.4 s of arrivals), a
     driver stalled that long by the other tenants of a shared host would
     drop arrivals and fail the run. A stall shows as commit latency and a
     deeper pool instead. *)
  type 'o session = {
    mp : (int * 'o txn) Mempool.t;
    due : int array;
    t_start : int;
    tw0 : int;
    tw1 : int;
    producer : producer_stats Domain.t;
    mutable first : int;
  }

  let start (w : 'o open_) ~seconds ~due ~txns =
    let mp = Mempool.create ~capacity:(max 1 (Array.length due)) () in
    let t_start = now_ns () in
    let tw0 = t_start + ns_of_s w.o_warmup_s in
    let producer = Domain.spawn (fun () -> produce mp ~t_start ~due txns) in
    { mp; due; t_start; tw0; tw1 = tw0 + ns_of_s seconds; producer; first = 0 }

  let in_window s t = t >= s.tw0 && t < s.tw1

  (* The block starting with arrival [s.first] closes [o_deadline_ns] after
     that arrival was due, or now if the driver has fallen further behind:
     it takes every arrival due by then, up to [o_max_txns]. Its size is
     counted on the schedule because [Mempool.next_block]'s own deadline
     clock starts when the call finds the pool non-empty: the transactions
     that queued while the previous block executed would wait that long on
     top, and a slower host would cut bigger blocks. Counted on the
     schedule, blocks are the same on any host that keeps up, grow only when
     the driver is behind, and do not shrink when the producer runs late.
     The deadline passed only bounds the wait for a late producer. *)
  let cut (w : 'o open_) s =
    let n = Array.length s.due in
    let max_txns, deadline_ns =
      if s.first >= n then (w.o_max_txns, w.o_deadline_ns)
      else
        let now = now_ns () - s.t_start in
        let close = Int.max (s.due.(s.first) + w.o_deadline_ns) now in
        let last = ref s.first in
        while
          !last + 1 < n
          && !last + 1 - s.first < w.o_max_txns
          && s.due.(!last + 1) <= close
        do
          incr last
        done;
        (!last - s.first + 1, close - now + w.o_deadline_ns)
    in
    match Mempool.next_block s.mp ~max_txns ~deadline_ns with
    | [||] -> None
    | b ->
        s.first <- fst b.(Array.length b - 1) + 1;
        Some b

  let genesis_only (w : 'o open_) () = (w.o_genesis (), ())

  let open_untraced (w : 'o open_) sc ~due ~txns =
    let (chain, ()), setup_s, setup_info = set_up sc.setup_reps (genesis_only w) in
    let ref_chain = create_chain ~executor:C.Sequential (w.o_genesis ()) in
    let n = Array.length due in
    let ref_outs = Array.make n 0 in
    let t = timed () in
    let failed_out = ref 0 and committed = ref 0 and correct = ref (Ok ()) in
    let s = start w ~seconds:sc.seconds ~due ~txns in
    let cur = ref ([||], 0) in
    (* Block [h]'s reference runs while the mempool cuts block [h+1], one
       on the driver domain and the other on a fresh domain, swapping with
       the height's parity; both end before [h+1] executes, so the
       reference never overlaps Block-STM. The fresh domain lives only that
       long: an idle domain would still take part in every stop-the-world
       collection. [pending] holds the block whose reference is due: its
       arrivals, its commit, and its Block-STM time if it committed inside
       the window. *)
    let pending = ref None in
    let next () =
      let b =
        match !pending with
        | None -> cut w s
        | Some (idx, (c : 'o C.block_commit), bstm) ->
            pending := None;
            let reference () =
              let r0 = now_ns () in
              let r = C.execute_block ref_chain (Array.map (fun i -> txns.(i)) idx) in
              (r, now_ns () - r0)
            in
            let cut () = cut w s in
            let b, (r, seq) =
              if c.height mod 2 = 0 then
                let d = Domain.spawn cut in
                let r = reference () in
                (Domain.join d, r)
              else
                let d = Domain.spawn reference in
                let b = cut () in
                (b, Domain.join d)
            in
            Array.iteri (fun j o -> ref_outs.(idx.(j)) <- hash_output w.o_hash o) r.C.outputs;
            if Result.is_ok !correct then correct := check_block w.o_hash c r;
            Option.iter (fun bstm -> book t c ~bstm ~seq) bstm;
            b
      in
      match b with
      | None -> None
      | Some b ->
          cur := (Array.map fst b, now_ns ());
          Some (Array.map snd b)
    in
    let on_block (c : 'o C.block_commit) =
      let t1 = now_ns () in
      let idx, handed = !cur in
      failed_out := !failed_out + count_failed c.outputs;
      committed := !committed + c.txn_count;
      let timed = in_window s t1 in
      if timed then begin
        Buf.push t.blat (ms (t1 - handed));
        (* Open loop: latency runs from when the transaction was due. *)
        Array.iter (fun i -> Buf.push t.clat (ms (t1 - (s.t_start + due.(i))))) idx
      end;
      pending := Some (idx, c, if timed then Some (t1 - handed) else None)
    in
    ignore
      (drive chain ~on_block ~next:(fun () ->
           if now_ns () >= s.tw0 then None else next ()));
    let idle_ns = drive chain ~on_block ~next in
    let prod = Domain.join s.producer in
    let dropped = Array.fold_left (fun d a -> if a then d else d + 1) 0 prod.admitted in
    let late =
      Array.of_list
        (List.filter_map
           (fun i -> if in_window s (s.t_start + due.(i)) then Some (ms prod.late_ns.(i)) else None)
           (List.init n Fun.id))
    in
    let loadgen =
      loadgen_metrics ~late_p99:(percentile 99. late)
        ~late_max:(Array.fold_left max 0. late)
    in
    let u =
      summarize ~correct:!correct ~attempted:n
        ~failed:(dropped + (n - dropped - !committed) + !failed_out)
        t
        ~tps:(float_of_int t.k.txns /. sc.seconds)
        ~setup_s ~idle_ns
        ~info:((m "dropped" (float_of_int dropped) "count" :: loadgen) @ setup_info)
    in
    (u, ref_outs, C.state_root ref_chain, prod.admitted, dropped, loadgen)

  let run_open (w : 'o open_) (sc : scale) ~seed : outcome =
    let due, txns =
      poisson ~rate:w.o_rate ~horizon_s:(w.o_warmup_s +. sc.seconds) ~seed
        w.o_arrival
    in
    let u, ref_outs, ref_root, admitted, dropped, loadgen =
      open_untraced w sc ~due ~txns
    in
    match sc.trace with
    | None -> outcome u u.u_correct
    | Some path ->
        Gc.full_major ();
        let (chain, ()), _, _ = set_up 1 (genesis_only w) in
        let n = Array.length due in
        let outs = Array.make n 0 and depth = Buf.create 0. in
        let tr = tracer () and s = start w ~seconds:sc.seconds ~due ~txns in
        let rec loop height =
          let t_cut = now_ns () in
          match cut w s with
          | None -> ()
          | Some b ->
              let d = Mempool.depth s.mp in
              let t_wrap = now_ns () in
              let timed = in_window s t_wrap in
              if timed then Buf.push depth (float_of_int d);
              let outputs, _ =
                traced_block tr chain ~height ~cut:(t_cut, t_wrap) ~timed
                  (Array.map snd b)
              in
              Array.iteri (fun j o -> outs.(fst b.(j)) <- hash_output w.o_hash o) outputs;
              loop (height + 1)
        in
        loop 1;
        let prod = Domain.join s.producer in
        let traced =
          (* The reference covers the untraced run's arrivals; a drop
             anywhere is a failure in its own right. *)
          if prod.admitted <> admitted then Error "traced run dropped other arrivals"
          else open_oracle ~outs ~root:(C.state_root chain) ~ref_outs ~ref_root
        in
        let layer, shares =
          layer_report tr u ~path
            ~mempool:
              (mempool_metrics
                 ~cut_ms:(median (Buf.to_array tr.cut_ms))
                 ~submit_ns:(ratio (float_of_int prod.submit_ns) (float_of_int n))
                 ~block_txns:(median (Buf.to_array tr.block_txns))
                 ~depth:(percentile 95. (Buf.to_array depth))
                 ~dropped:(float_of_int dropped))
            ~loadgen
        in
        outcome u ~layer ~info:shares (both_correct u traced)
end
