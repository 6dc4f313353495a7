(** Machine-readable bench output (the [--json] mode of [bench/main.exe]):
    accumulates every table the experiments print, raw
    per-seed measurement samples with p50/p95/p99 summaries, and bucketed
    distributions (e.g. per-transaction execution times), and renders one
    JSON document — schema ["blockstm-bench/11"]:

    {v
    { "schema": "blockstm-bench/11",
      "mode": "quick" | "full",
      "host": { "cores": 2 },
      "ocaml": "5.1.1",
      "experiments": [
        { "name": "fig3", "description": "...",
          "tables": [ { "title": "...", "header": [...], "rows": [[...]] } ],
          "samples": { "<label>": { "samples": [...],
                                    "summary": { "n", "mean", "stddev",
                                                 "min", "p50", "p95",
                                                 "p99", "max" } } },
          "histograms": { "<label>": {
                            "summary": { ... as above ... },
                            "buckets": [ { "le": 4096, "count": 17 }, ... ] } }
        } ] }
    v}

    [host.cores] is the runtime's [Domain.recommended_domain_count ()] and
    [ocaml] is [Sys.ocaml_version], so a wall-clock table can be read
    against the host it ran on. Histogram buckets are powers of two: bucket [le] counts samples in
    [(le/2, le]]; [le = 0] collects non-positive samples. Empty buckets are
    omitted.

    Table cells that parse as finite numbers are emitted as JSON numbers;
    formatted cells ("1.5x", "50%", "inf") stay strings. Global,
    single-threaded state, like the harness itself. *)

val reset : unit -> unit
(** Drop all recorded experiments (tests). *)

val set_quiet : bool -> unit
(** Suppress console printing in {!emit_table} and {!write} (tests). *)

val set_mode : string -> unit
(** Record the grid mode ("quick" / "full") in the report header. *)

val begin_experiment : name:string -> descr:string -> unit
(** Open a new experiment section; subsequent {!emit_table} and {!sample}
    calls attach to it. *)

val emit_table : Blockstm_stats.Table.t -> unit
(** Print the table (unless quiet) and record it under the current
    experiment. Drop-in replacement for [Table.print]. *)

val sample : label:string -> float -> unit
(** Record one raw measurement (e.g. the tps of a single seed) under the
    current experiment. *)

val histogram : label:string -> float array -> unit
(** Record a full distribution (e.g. one per-transaction execution-time
    array) under the current experiment as power-of-two buckets plus a
    summary. Empty arrays are ignored. *)

val to_json : unit -> Blockstm_obs.Json.t

val write : string -> unit
(** Write {!to_json} to a file. *)
