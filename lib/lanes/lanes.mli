(** Sharded execution lanes: intra-block state partitioning with a
    cross-lane coordinator (DESIGN.md §16).

    A single Block-STM instance saturates once every worker domain hammers
    the same three scheduler counters. Lanes break the block apart {e before}
    execution: the state is split into [K] disjoint lanes by a location
    partition, each transaction whose (static) access footprint stays inside
    one lane joins that lane's sub-block, and the [K] sub-blocks run through
    [K] {e independent} Block-STM instances — separate schedulers, separate
    MVMemory, presized to the sub-block — on a divided domain budget.
    Transactions that straddle lanes ({e cross-lane} transactions) are
    stitched back in by a small coordinator that parks them BOHM-style
    until the batch they interrupt has fully committed: the batch keeps
    growing until a later single-lane transaction conflicts with a parked
    one.

    The partition is driven by per-transaction {!Blockstm_kernel.Access_spec}
    footprints (PR 9); any transaction with a non-exact entry is
    conservatively treated as cross-lane. [lanes = 1] bypasses every piece
    of this machinery and runs the unmodified single-instance engine.

    Correctness (the batch invariant, argued in DESIGN.md §16): within a
    batch, single-lane transactions of different lanes are disjoint on every
    written location, and each parked cross-lane transaction is
    spec-disjoint from every single-lane transaction that {e follows} it in
    the preset order — the planner closes the batch the moment either would
    be violated. Hence executing all lanes in parallel and then the parked
    stragglers in preset order is equivalent to executing the batch's
    preset-order prefix sequentially, and commits are bit-identical to the
    single-instance engine. *)

open Blockstm_kernel

module Make (L : Intf.LOCATION) (V : Intf.VALUE) : sig
  module Bstm : module type of Blockstm_core.Block_stm.Make (L) (V)

  (** A state partition: every location belongs to exactly one of [lanes]
      lanes. [loc_lane] must be pure and return a value in
      [\[0, lanes)] — the partitioner property the test suite checks. *)
  type partition = { lanes : int; loc_lane : L.t -> int }

  (** Per-transaction placement decided by {!classify}. *)
  type assignment =
    | Lane of int
        (** All-exact footprint confined to one lane (transactions touching
            no block-written location are balanced round-robin). *)
    | Cross
        (** Footprint spans lanes, or has a [Wildcard]/[Unknown] entry:
            executed by the coordinator, not inside a lane. *)

  (** One coordinator batch: the contiguous preset range [\[lo, hi)], split
      into per-lane sub-blocks (each in ascending preset order) plus the
      parked cross-lane stragglers (ascending preset order). *)
  type batch = {
    lo : int;
    hi : int;
    lane_txns : int array array;
    stragglers : int array;
  }

  type plan = {
    part : partition;
    assignment : assignment array;
    batches : batch list;  (** In preset order; ranges tile [\[0, n)]. *)
    lane_txn_counts : int array;  (** Single-lane transactions per lane. *)
    cross_lane_txns : int;
  }

  val classify : partition -> L.t Access_spec.t array -> assignment array
  (** Placement of each transaction. A transaction is [Lane l] iff its spec
      is all-exact and every accessed location that {e some} transaction's
      exact write entry names lies in lane [l]; read-only locations nobody
      writes never force a transaction cross-lane. *)

  val plan :
    ?namespace:(L.t -> string) ->
    partition ->
    L.t Access_spec.t array ->
    plan
  (** Split the block into coordinator batches. [namespace] refines
      [Wildcard]-vs-[Exact] conflict tests exactly as in
      {!Access_spec.conflict}. *)

  (** Aggregated execution metrics: the engine counters summed over every
      lane instance, plus the coordinator's own counts. *)
  type lane_metrics = {
    lanes : int;
    batches : int;
    cross_lane_txns : int;  (** Transactions executed by the coordinator. *)
    lane_txn_counts : int array;
    imbalance : float;
        (** Largest lane's share of single-lane transactions relative to a
            perfect [1/K] split ([1.0] = balanced; [0.0] when no
            transaction is single-lane). *)
    engine : Bstm.metrics;
  }

  val lane_config : Bstm.config -> lanes:int -> Bstm.config
  (** Per-lane engine configuration: the caller's config with the domain
      budget divided across [lanes] (floored at 1). Lane-local MVMemory is
      presized to each sub-block by [create_instance] itself. *)

  type 'o result = {
    snapshot : (L.t * V.t) list;
        (** Final value of every location the block wrote, in no particular
            order — the same bindings as the single-instance engine's
            snapshot. *)
    outputs : 'o Txn.output array;
    metrics : lane_metrics;
  }

  val run :
    ?config:Bstm.config ->
    ?loc_namespace:(L.t -> string) ->
    ?on_commit:(int -> 'o Txn.output -> unit) ->
    ?trace_for:(int -> Blockstm_obs.Trace.t option) ->
    partition:partition ->
    specs:L.t Access_spec.t array ->
    storage:(L.t, V.t) Intf.storage ->
    (L.t, V.t, 'o) Txn.t array ->
    'o result
  (** Execute the block through [partition.lanes] parallel engine instances
      under the coordinator. [partition.lanes = 1] is a strict passthrough
      to {!Bstm.run} with [config] untouched, and reads no [specs]: pass
      [[||]].

      [on_commit j output] fires for every transaction in preset order:
      batch ranges are contiguous, so the coordinator emits each batch's
      range as soon as the batch (lanes, then stragglers) completes — the
      same preset-order contract as {!Bstm.run}'s hook. With [lanes = 1] the
      hook goes straight to the engine. [trace_for lane]
      supplies an optional per-lane trace sink reused across that lane's
      batches, giving lane-tagged step events. [loc_namespace] is {!plan}'s
      [namespace].

      @raise Invalid_argument if [partition.lanes < 1], or, with more than
      one lane, if [specs] length mismatches the block or [loc_lane] leaves
      [\[0, lanes)]. *)
end
