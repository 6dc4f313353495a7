(** What a single engine step did — emitted by the executor's two-phase step
    API and consumed by the virtual-time simulator (cost accounting) and by
    tests (behavioral assertions). *)

type t =
  | Executed of { version : Version.t; reads : int; writes : int }
      (** A VM execution ran to completion and was recorded. *)
  | Exec_dependency of { version : Version.t; blocking : int; reads : int }
      (** Execution stopped on an ESTIMATE and parked as a dependency of
          [blocking]; [reads] were performed before stopping. *)
  | Validated of { version : Version.t; aborted : bool; reads : int }
      (** A validation re-read [reads] locations; [aborted] iff it failed
          and won the abort. *)
  | Got_task  (** [next_task] produced a task to run next step. *)
  | No_task  (** [next_task] found nothing ready (idle spin). *)
  | Committed of { upto : int; count : int }
      (** The rolling-commit sweep advanced: [count] transactions became
          final, making [upto] the committed-prefix length. *)
  | Cold_fetch of { version : Version.t; reads : int }
      (** Execution suspended on a cold storage read (engine given a
          storage probe); [reads] performed before suspending. The fetch
          completes and the execution task is retried, resuming the
          continuation. *)

val pp : Format.formatter -> t -> unit
