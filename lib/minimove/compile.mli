(** The compiled MiniMove VM: lowers the checked AST into nested OCaml
    closures over a slot-indexed frame — variables resolve to array slots at
    compile time, calls are pre-resolved to compiled bodies, constants are
    folded, gas is charged in per-basic-block batches, and per-access
    storage keys are interned into per-resource tables built once per
    compiled script.

    Observationally identical to the tree-walk {!Interp} (same outputs,
    read/write descriptors, gas totals and failure messages), with one
    documented latitude: because gas is charged per batch, a transaction
    that aborts mid-batch may observe out-of-gas up to one basic block
    earlier than the tree-walk VM — never later — when the batch does not
    fit in the remaining gas. That earlier "out of gas" may stand in for a
    deterministic abort (failed assert, division by zero, ...) the
    tree-walk VM would have raised later within the same effect-free gap.
    Batches never span a storage read or write, so the gas observed at
    every effect point is exactly the tree-walk VM's and the read/write
    logs are identical even on the out-of-gas paths.

    A [compiled] value is immutable after construction and safe to share
    read-only across incarnations and domains (all per-execution state —
    frame, gas, effects handle — is per-call), including under Block-STM's
    suspend/resume. *)

open Blockstm_kernel
open Mv_value

type compiled

val compile : ?require_main:bool -> ?intern_addrs:int -> string -> compiled
(** Parse, statically check and compile a MiniMove source string.
    [intern_addrs] sizes each per-resource interned location-key table
    (addresses [0..intern_addrs - 1], default 1024; workloads pass their
    account count); out-of-range addresses fall back to allocating a key
    per access, like the tree-walk VM.
    @raise Lexer.Lex_error on tokenization errors
    @raise Parser.Parse_error on syntax errors
    @raise Check.Check_error on unbound variables, arity mismatches, etc. *)

val of_checked : ?intern_addrs:int -> Interp.compiled -> compiled
(** Compile a script already compiled for the tree-walk VM, so both VMs can
    run the identical checked AST side by side. *)

val default_gas_limit : int
(** Same limit as {!Interp.default_gas_limit}. *)

val run :
  ?entry:string ->
  ?gas_limit:int ->
  compiled ->
  args:Value.t list ->
  (Loc.t, Value.t) Txn.effects ->
  Value.t
(** Run [entry] (default ["main"]) with [args] over the given effects
    handle; returns the entry function's return value.
    @raise Interp.Abort on any deterministic transaction failure, with the
    same message the tree-walk VM would produce. *)

val txn :
  ?entry:string ->
  ?gas_limit:int ->
  compiled ->
  args:Value.t list ->
  (Loc.t, Value.t, Value.t) Txn.t
(** Package a compiled script as a transaction for any executor. *)

val run_with_gas :
  ?entry:string ->
  ?gas_limit:int ->
  compiled ->
  args:Value.t list ->
  (Loc.t, Value.t) Txn.effects ->
  Value.t * int
(** Like {!run}, also reporting gas consumed — equal to the tree-walk VM's
    on every completed execution. *)

val txn_with_gas :
  ?entry:string ->
  ?gas_limit:int ->
  compiled ->
  args:Value.t list ->
  (Loc.t, Value.t, Value.t * int) Txn.t
(** Transaction variant whose output is [(result, gas_used)]. *)
