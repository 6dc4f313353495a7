(** Bounded MPSC transaction mempool and block builder (DESIGN.md §14).

    The ingestion front end of a block stream: any number of
    producer domains {!submit} (blocking on a full pool — backpressure) or
    {!try_submit} (dropping on a full pool) transactions; one consumer — the
    chain driver — cuts blocks with {!next_block}, which waits for the first
    transaction and then collects until the block reaches [max_txns] or the
    cut deadline expires, whichever is first.

    The deadline clock starts at the {e first transaction of the block}, not
    at the call: an idle mempool costs nothing, and the bound is on how long
    an admitted transaction can sit uncommitted waiting for peers — the
    latency knob of the throughput/latency trade the sustained-load
    experiment sweeps.

    Generic in the element type: benches enqueue [(submit_ns, txn)] pairs so
    commit latency can be measured end to end. Not tied to any executor. *)

module Trace = Blockstm_obs.Trace

type 'a t = {
  m : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  q : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
  mutable accepted : int;  (** Total transactions ever admitted. *)
  mutable dropped : int;  (** [try_submit] refusals on a full pool. *)
}

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Mempool.create: capacity must be >= 1";
  {
    m = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    q = Queue.create ();
    capacity;
    closed = false;
    accepted = 0;
    dropped = 0;
  }

let capacity t = t.capacity

let depth t =
  Mutex.lock t.m;
  let n = Queue.length t.q in
  Mutex.unlock t.m;
  n

let accepted t =
  Mutex.lock t.m;
  let n = t.accepted in
  Mutex.unlock t.m;
  n

let dropped t =
  Mutex.lock t.m;
  let n = t.dropped in
  Mutex.unlock t.m;
  n

(** Non-blocking submit: [false] if the pool is full or closed (the caller
    decides whether that is a drop or a retry). *)
let try_submit t x =
  Mutex.lock t.m;
  let ok = (not t.closed) && Queue.length t.q < t.capacity in
  if ok then begin
    Queue.push x t.q;
    t.accepted <- t.accepted + 1;
    Condition.signal t.not_empty
  end
  else if not t.closed then t.dropped <- t.dropped + 1;
  Mutex.unlock t.m;
  ok

(** Blocking submit (backpressure): waits while the pool is full. [false]
    iff the pool was closed before the transaction could be admitted. *)
let submit t x =
  Mutex.lock t.m;
  while Queue.length t.q >= t.capacity && not t.closed do
    Condition.wait t.not_full t.m
  done;
  let ok = not t.closed in
  if ok then begin
    Queue.push x t.q;
    t.accepted <- t.accepted + 1;
    Condition.signal t.not_empty
  end;
  Mutex.unlock t.m;
  ok

(** No further submissions; pending transactions still drain through
    {!next_block}, after which it returns [[||]] forever. *)
let close t =
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.m

(* Pop up to [room] elements into [acc] (reversed); caller holds the lock. *)
let drain_locked t acc room =
  let popped = ref 0 in
  while !popped < room && not (Queue.is_empty t.q) do
    acc := Queue.pop t.q :: !acc;
    incr popped
  done;
  if !popped > 0 then Condition.broadcast t.not_full;
  !popped

(** Cut the next block: waits (indefinitely) for the first transaction,
    then collects until [max_txns] are gathered or [deadline_ns] has passed
    since that first transaction. Returns [[||]] only when the pool is
    closed and fully drained — the stream-end signal. The deadline wait is a
    polling loop ([Domain.cpu_relax] between lock acquisitions): the stdlib
    has no timed condition wait, and the consumer is a dedicated driver
    domain whose alternative is idling anyway. *)
let next_block t ~max_txns ~deadline_ns =
  if max_txns < 1 then invalid_arg "Mempool.next_block: max_txns must be >= 1";
  if deadline_ns < 0 then
    invalid_arg "Mempool.next_block: deadline_ns must be >= 0";
  Mutex.lock t.m;
  while Queue.is_empty t.q && not t.closed do
    Condition.wait t.not_empty t.m
  done;
  if Queue.is_empty t.q then begin
    (* Closed and drained. *)
    Mutex.unlock t.m;
    [||]
  end
  else begin
    let t0 = Trace.now_ns () in
    let acc = ref [] in
    let n = ref (drain_locked t acc max_txns) in
    let closed = ref t.closed in
    Mutex.unlock t.m;
    while
      !n < max_txns && (not !closed) && Trace.now_ns () - t0 < deadline_ns
    do
      Domain.cpu_relax ();
      Mutex.lock t.m;
      n := !n + drain_locked t acc (max_txns - !n);
      closed := t.closed;
      Mutex.unlock t.m
    done;
    Array.of_list (List.rev !acc)
  end
