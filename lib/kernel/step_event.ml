(** What a single engine step did. Emitted by the executor's step function
    and consumed by the virtual-time simulator (cost accounting) and by
    tests (behavioral assertions). *)

type t =
  | Executed of { version : Version.t; reads : int; writes : int }
      (** A VM execution ran to completion and was recorded. *)
  | Exec_dependency of { version : Version.t; blocking : int; reads : int }
      (** Execution stopped on an ESTIMATE and parked as a dependency of
          [blocking]; [reads] performed before stopping. *)
  | Validated of { version : Version.t; aborted : bool; reads : int }
      (** A validation task re-read [reads] locations; [aborted] iff it
          failed and won the abort. *)
  | Got_task  (** [next_task] produced a task to run next step. *)
  | No_task  (** [next_task] found nothing ready (idle spin). *)
  | Committed of { upto : int; count : int }
      (** The rolling-commit sweep advanced: [count] transactions became
          final, making [upto] the committed-prefix length. *)
  | Cold_fetch of { version : Version.t; reads : int }
      (** An execution stopped on a cold storage read. No engine path
          produces it: the engine reads storage only through the blocking
          reader. Kept because the end-to-end benchmark matches it. *)

let pp ppf = function
  | Executed { version; reads; writes } ->
      Fmt.pf ppf "executed%a[r=%d,w=%d]" Version.pp version reads writes
  | Exec_dependency { version; blocking; reads } ->
      Fmt.pf ppf "dependency%a->%d[r=%d]" Version.pp version blocking reads
  | Validated { version; aborted; reads } ->
      Fmt.pf ppf "validated%a[aborted=%b,r=%d]" Version.pp version aborted
        reads
  | Got_task -> Fmt.string ppf "got-task"
  | No_task -> Fmt.string ppf "no-task"
  | Committed { upto; count } ->
      Fmt.pf ppf "committed[upto=%d,count=%d]" upto count
  | Cold_fetch { version; reads } ->
      Fmt.pf ppf "cold-fetch%a[r=%d]" Version.pp version reads
