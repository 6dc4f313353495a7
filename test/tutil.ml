(** Shared helpers for the test suite: a compact integer location/value
    domain, executor instantiations over it, and common Alcotest testables.

    Using a dedicated tiny domain (ints for both locations and values) keeps
    unit tests readable; workload-level tests use {!Blockstm_workload}'s
    ledger domain instead. *)

open Blockstm_kernel

module IntLoc = struct
  type t = int

  let equal = Int.equal
  let hash x = x * 0x9E3779B1
  let compare = Int.compare
  let pp = Fmt.int
end

module IntVal = struct
  type t = int

  let equal = Int.equal
  let hash v = v * 0x9E3779B1
  let pp = Fmt.int
  let as_counter v = Some v
  let of_counter v = v
end

module Mv = Blockstm_mvmemory.Mvmemory.Make (IntLoc) (IntVal)
module Store = Blockstm_storage.Memstore.Make (IntLoc) (IntVal)
module Bstm = Blockstm_core.Block_stm.Make (IntLoc) (IntVal)
module Seq = Blockstm_baselines.Sequential.Make (IntLoc) (IntVal)
module BohmI = Blockstm_baselines.Bohm.Make (IntLoc) (IntVal)
module LitmI = Blockstm_baselines.Litm.Make (IntLoc) (IntVal)
module ProfI = Blockstm_baselines.Profile.Make (IntLoc) (IntVal)
module Scheduler = Blockstm_scheduler.Scheduler

type itxn = (int, int, int) Txn.t

(** Storage where every location holds value 0 (total function). *)
let zero_storage : (int, int) Intf.storage = fun _ -> Some 0

(** Storage defined only on [0..n): location i holds [base + i]. *)
let range_storage ?(base = 100) n : (int, int) Intf.storage =
 fun loc -> if loc >= 0 && loc < n then Some (base + loc) else None

(** A read-modify-write transaction: reads [src], writes [dst := f src],
    returns the value read. *)
let rmw ~src ~dst f : itxn =
 fun e ->
  let v = match e.read src with Some v -> v | None -> 0 in
  e.write dst (f v);
  v

(** Increment location [l] by [amount]; returns the new value. *)
let incr_txn ?(amount = 1) l : itxn =
 fun e ->
  let v = match e.read l with Some v -> v | None -> 0 in
  e.write l (v + amount);
  v + amount

(** Transfer between two "accounts" (single-location balances). *)
let transfer ~from_ ~to_ ~amount : itxn =
 fun e ->
  let b1 = match e.read from_ with Some v -> v | None -> 0 in
  let b2 = match e.read to_ with Some v -> v | None -> 0 in
  e.write from_ (b1 - amount);
  e.write to_ (b2 + amount);
  b1 - amount

(** A snapshot in location order, as the sequential reference lists it:
    every other executor lists its bindings in no particular order. *)
let sorted (snapshot : (int * int) list) = List.sort compare snapshot

(** Snapshot and output equality between Block-STM and Sequential. *)
let assert_equiv ?(msg = "parallel = sequential") ?config ~storage
    (txns : itxn array) =
  let seq = Seq.run ~storage txns in
  let par = Bstm.run ?config ~storage txns in
  Alcotest.(check bool)
    (msg ^ " (snapshot)")
    true
    (Seq.same_snapshot seq.snapshot par.snapshot);
  Array.iteri
    (fun i a ->
      let b = par.outputs.(i) in
      if not (Txn.equal_output Int.equal a b) then
        Alcotest.failf "%s: output %d differs: %a vs %a" msg i
          (Txn.pp_output Fmt.int) a (Txn.pp_output Fmt.int) b)
    seq.outputs;
  par

(** Run [f] on its own domain and fail the test if it has not returned
    within [secs]: a hang fails the test instead of stalling the suite. *)
let with_timeout ~secs f =
  let res = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set res (Some (try Ok (f ()) with e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. secs in
  let rec wait () =
    match Atomic.get res with
    | Some r ->
        Domain.join d;
        r
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "no result after %.0f s" secs;
        Unix.sleepf 0.01;
        wait ()
  in
  wait ()

let version = Alcotest.testable Version.pp Version.equal

let qcheck_to_alcotest = QCheck_alcotest.to_alcotest
