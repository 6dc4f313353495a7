(** Virtual-time parallel execution: the substitute for the paper's 32-core
    testbed (DESIGN.md §3).

    Runs the {e real} Block-STM engine — same MVMemory, same scheduler, same
    aborts and dependency stalls — but drives it from a single OS thread with
    [num_threads] {e virtual} threads, each owning a clock. Tasks are
    two-phase: when a virtual thread starts a task at virtual time [t], the
    task's observable reads happen against the shared state as of [t]
    ({!start}); its effects are applied at [t + cost] ({!finish}), where
    [cost] comes from a {!Cost_model.t}. Events are processed globally in
    virtual-time order, so tasks genuinely overlap: a transaction executing
    while a conflicting lower transaction is still in flight reads stale data
    and later fails validation — reproducing the abort/re-execution dynamics
    a real multicore exhibits, and hence the shape of the paper's
    thread-scaling curves, on a single-core host. *)

open Blockstm_kernel

type stats = {
  makespan_us : float;  (** Virtual time at which the engine completed. *)
  busy_us : float;  (** Sum of task virtual time across threads. *)
  idle_us : float;  (** Sum of idle-spin virtual time across threads. *)
  steps : int;
  executions : int;
  dependency_aborts : int;
  validations : int;
  validation_aborts : int;
}

(** Throughput in transactions/second implied by the virtual makespan. *)
let tps ~txns (s : stats) : float =
  if s.makespan_us <= 0. then infinity
  else float_of_int txns /. (s.makespan_us /. 1e6)

(** The engine hooks the simulator drives — the two-phase step API of
    {!Blockstm_core.Block_stm.Make}, made first-class so the driver is
    independent of the location/value functor instantiation. *)
type ('task, 'pending) engine = {
  start : 'task -> 'pending;
  finish : 'pending -> 'task option * Step_event.t;
  profile : 'pending -> [ `Exec of int * int | `Dep of int | `Val of int ];
  next_task : unit -> 'task option;
  is_done : unit -> bool;
}

type ('task, 'pending) thread_state =
  | Idle of 'task option
  | Working of 'pending

let run (type task pending) ~(num_threads : int) ~(cost : Cost_model.t)
    (engine : (task, pending) engine) : stats =
  if num_threads < 1 then invalid_arg "Virtual_exec.run: num_threads >= 1";
  let clocks = Array.make num_threads 0.0 in
  let states : (task, pending) thread_state array =
    Array.make num_threads (Idle None)
  in
  let busy = ref 0.0 in
  let idle = ref 0.0 in
  let steps = ref 0 in
  let executions = ref 0 in
  let dep_aborts = ref 0 in
  let validations = ref 0 in
  let val_aborts = ref 0 in
  let finished = Array.make num_threads false in
  let n_finished = ref 0 in
  let cost_of_profile = function
    | `Exec (reads, writes) -> Cost_model.exec_cost cost ~reads ~writes
    | `Dep reads -> Cost_model.dep_abort_cost cost ~reads
    | `Val reads -> Cost_model.validation_cost cost ~reads
  in
  while !n_finished < num_threads do
    (* Advance the unfinished virtual thread with the smallest clock. For a
       Working thread the clock already points at its task's finish time. *)
    let t = ref (-1) in
    for i = 0 to num_threads - 1 do
      if (not finished.(i)) && (!t < 0 || clocks.(i) < clocks.(!t)) then t := i
    done;
    let t = !t in
    incr steps;
    (match states.(t) with
    | Working pending ->
        (* Its finish time has arrived: apply effects. *)
        let task', ev = engine.finish pending in
        (match ev with
        | Step_event.Executed _ -> incr executions
        | Exec_dependency _ -> incr dep_aborts
        | Validated { aborted; _ } ->
            incr validations;
            if aborted then incr val_aborts
        | Got_task | No_task | Committed _ | Cold_fetch _ -> ());
        states.(t) <- Idle task'
    | Idle (Some task) ->
        (* Start the carried task now; effects land at now + cost. *)
        let pending = engine.start task in
        let c = cost_of_profile (engine.profile pending) in
        busy := !busy +. c;
        clocks.(t) <- clocks.(t) +. c;
        states.(t) <- Working pending
    | Idle None ->
        if engine.is_done () then begin
          finished.(t) <- true;
          n_finished := !n_finished + 1
        end
        else begin
          let task = engine.next_task () in
          (match task with
          | Some _ ->
              busy := !busy +. cost.sched;
              clocks.(t) <- clocks.(t) +. cost.sched
          | None ->
              (* Idle fast-forward: between finish events the scheduler can
                 only lose ready tasks (starts consume, finishes produce), so
                 a thread that found nothing can sleep until the earliest
                 in-flight task completes instead of spinning in 'sched'-cost
                 steps. This keeps virtual time identical for the work while
                 making fully-sequential workloads simulable. *)
              let next_finish = ref infinity in
              for i = 0 to num_threads - 1 do
                match states.(i) with
                | Working _ ->
                    if clocks.(i) < !next_finish then next_finish := clocks.(i)
                | Idle _ -> ()
              done;
              let target =
                if Float.is_finite !next_finish then
                  Float.max (clocks.(t) +. cost.sched) !next_finish
                else clocks.(t) +. cost.sched
              in
              idle := !idle +. (target -. clocks.(t));
              clocks.(t) <- target);
          states.(t) <- Idle task
        end)
  done;
  let makespan = Array.fold_left Float.max 0.0 clocks in
  {
    makespan_us = makespan;
    busy_us = !busy;
    idle_us = !idle;
    steps = !steps;
    executions = !executions;
    dependency_aborts = !dep_aborts;
    validations = !validations;
    validation_aborts = !val_aborts;
  }
