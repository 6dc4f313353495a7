(** Per-worker trace ring buffers for engine step events.

    Each worker (domain) owns one {!ring}: preallocated unboxed [int] arrays
    written by exactly one domain, so recording an event is a handful of
    plain stores — no locks, no atomics, no allocation. Memory is bounded:
    when a ring wraps, the oldest events are overwritten and counted as
    dropped (the most recent window is the interesting one for inspecting a
    block execution).

    Events carry wall-clock timestamps relative to the trace's creation,
    the task kind, the transaction version (index + incarnation), and the
    abort cause where applicable (the blocking transaction for dependency
    aborts, the failed-validation flag for validation aborts). Consecutive
    idle spins ([No_task]) are coalesced into one event so a starving worker
    does not flood its ring.

    Readers ({!events}, {!dropped}) are meant to run after the traced
    execution completes: after [Block_stm.run] returns, or after joining the
    domains of a hand-driven instance. [run]'s helper domains outlive their
    worker loops until the block's result is read out, but they record no
    event after leaving the loop, and [run] joins them before it returns.
    Reading concurrently with a writer yields a torn-but-harmless
    snapshot. *)

open Blockstm_kernel

(* Event kinds, stored as small ints in the ring. *)
let k_exec = 0
let k_exec_dep = 1
let k_val = 2
let k_val_abort = 3
let k_idle = 4
let k_commit = 5
let k_cold = 6

type ring = {
  cap : int;
  ts : int array;  (** Start, ns since trace creation. *)
  dur : int array;  (** Duration, ns. *)
  kind : int array;
  txn : int array;
  inc : int array;
  a : int array;  (** reads (exec/val) or blocking txn (dependency). *)
  b : int array;  (** writes (exec), reads (dependency), spins (idle). *)
  mutable total : int;  (** Events ever recorded; next write at [total mod cap]. *)
}

type t = { t0_ns : int; rings : ring array }

let now_ns () : int = int_of_float (Unix.gettimeofday () *. 1e9)

let create ?(capacity = 65536) ~num_workers () : t =
  if capacity < 2 then invalid_arg "Trace.create: capacity < 2";
  if num_workers < 1 then invalid_arg "Trace.create: num_workers < 1";
  let ring _ =
    {
      cap = capacity;
      ts = Array.make capacity 0;
      dur = Array.make capacity 0;
      kind = Array.make capacity 0;
      txn = Array.make capacity 0;
      inc = Array.make capacity 0;
      a = Array.make capacity 0;
      b = Array.make capacity 0;
      total = 0;
    }
  in
  { t0_ns = now_ns (); rings = Array.init num_workers ring }

let num_workers t = Array.length t.rings

let ring (t : t) ~(worker : int) : ring =
  if worker < 0 || worker >= Array.length t.rings then
    invalid_arg (Printf.sprintf "Trace.ring: worker %d out of range" worker);
  t.rings.(worker)

let push (r : ring) ~ts ~dur ~kind ~txn ~inc ~a ~b =
  let i = r.total mod r.cap in
  r.ts.(i) <- ts;
  r.dur.(i) <- dur;
  r.kind.(i) <- kind;
  r.txn.(i) <- txn;
  r.inc.(i) <- inc;
  r.a.(i) <- a;
  r.b.(i) <- b;
  r.total <- r.total + 1

(** Record what one engine step did, with its measured wall-clock window.
    [Got_task] is dropped (it is the prelude of the next recorded step);
    consecutive [No_task]s extend the previous idle event in place. Single
    writer per ring: must only be called by the worker owning [r]. *)
let record (t : t) (r : ring) ~(t0_ns : int) ~(t1_ns : int)
    (ev : Step_event.t) : unit =
  let ts = t0_ns - t.t0_ns in
  let dur = t1_ns - t0_ns in
  match ev with
  | Step_event.Got_task -> ()
  | Step_event.No_task ->
      let prev = (r.total - 1) mod r.cap in
      if r.total > 0 && r.kind.(prev) = k_idle then begin
        r.dur.(prev) <- ts + dur - r.ts.(prev);
        r.b.(prev) <- r.b.(prev) + 1
      end
      else push r ~ts ~dur ~kind:k_idle ~txn:(-1) ~inc:(-1) ~a:0 ~b:1
  | Step_event.Executed { version; reads; writes } ->
      push r ~ts ~dur ~kind:k_exec ~txn:(Version.txn_idx version)
        ~inc:(Version.incarnation version) ~a:reads ~b:writes
  | Step_event.Exec_dependency { version; blocking; reads } ->
      push r ~ts ~dur ~kind:k_exec_dep ~txn:(Version.txn_idx version)
        ~inc:(Version.incarnation version) ~a:blocking ~b:reads
  | Step_event.Validated { version; aborted; reads } ->
      push r ~ts ~dur
        ~kind:(if aborted then k_val_abort else k_val)
        ~txn:(Version.txn_idx version)
        ~inc:(Version.incarnation version)
        ~a:reads ~b:0
  | Step_event.Committed { upto; count } ->
      push r ~ts ~dur ~kind:k_commit ~txn:(upto - 1) ~inc:(-1) ~a:upto
        ~b:count
  | Step_event.Cold_fetch { version; reads } ->
      push r ~ts ~dur ~kind:k_cold ~txn:(Version.txn_idx version)
        ~inc:(Version.incarnation version) ~a:reads ~b:0

(* --- Reading -------------------------------------------------------------- *)

(** A decoded trace event. *)
type payload =
  | Exec of { version : Version.t; reads : int; writes : int }
      (** An incarnation ran to completion. *)
  | Exec_blocked of { version : Version.t; blocking : int; reads : int }
      (** Dependency abort: the incarnation read [blocking]'s ESTIMATE. *)
  | Validation of { version : Version.t; aborted : bool; reads : int }
      (** A validation pass; [aborted] is the abort cause marker. *)
  | Idle of { spins : int }  (** Coalesced empty [next_task] polls. *)
  | Commit of { upto : int; count : int }
      (** The rolling-commit sweep advanced the committed prefix to [upto],
          committing [count] transactions. *)
  | Cold of { version : Version.t; reads : int }
      (** A [Step_event.Cold_fetch], which no engine path produces. *)

type event = {
  worker : int;
  start_ns : int;  (** ns since trace creation. *)
  dur_ns : int;
  payload : payload;
}

let decode (r : ring) (worker : int) (i : int) : event =
  let version () = Version.make ~txn_idx:r.txn.(i) ~incarnation:r.inc.(i) in
  let payload =
    if r.kind.(i) = k_exec then
      Exec { version = version (); reads = r.a.(i); writes = r.b.(i) }
    else if r.kind.(i) = k_exec_dep then
      Exec_blocked { version = version (); blocking = r.a.(i); reads = r.b.(i) }
    else if r.kind.(i) = k_val || r.kind.(i) = k_val_abort then
      Validation
        {
          version = version ();
          aborted = r.kind.(i) = k_val_abort;
          reads = r.a.(i);
        }
    else if r.kind.(i) = k_commit then
      Commit { upto = r.a.(i); count = r.b.(i) }
    else if r.kind.(i) = k_cold then
      Cold { version = version (); reads = r.a.(i) }
    else Idle { spins = r.b.(i) }
  in
  { worker; start_ns = r.ts.(i); dur_ns = r.dur.(i); payload }

(** Retained events of one worker, oldest first. *)
let worker_events (t : t) ~(worker : int) : event list =
  let r = ring t ~worker in
  let retained = min r.total r.cap in
  let first = r.total - retained in
  List.init retained (fun k -> decode r worker ((first + k) mod r.cap))

(** All retained events, grouped by worker, oldest first within a worker. *)
let events (t : t) : event list =
  List.concat
    (List.init (num_workers t) (fun worker -> worker_events t ~worker))

(** Events overwritten by ring wraparound, across all workers. *)
let dropped (t : t) : int =
  Array.fold_left (fun acc r -> acc + max 0 (r.total - r.cap)) 0 t.rings
