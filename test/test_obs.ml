(** Observability layer: JSON printer/parser, trace rings (wraparound,
    idle coalescing), Chrome trace export, the bench JSON report, the traced
    engine loop, and the engine's counters across domains. *)

open Blockstm_kernel
module J = Blockstm_obs.Json
module Trace = Blockstm_obs.Trace
module Trace_export = Blockstm_obs.Trace_export

(* --- Json ------------------------------------------------------------------- *)

let rec json_equal (a : J.t) (b : J.t) =
  match (a, b) with
  | J.Null, J.Null -> true
  | J.Bool x, J.Bool y -> x = y
  | J.Num x, J.Num y -> x = y
  | J.Str x, J.Str y -> String.equal x y
  | J.List x, J.List y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | J.Obj x, J.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k, v) (k', v') -> String.equal k k' && json_equal v v')
           x y
  | _ -> false

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd\te\x01f");
        ("unicode", J.Str "héllo – ✓");
        ("n", J.Num 42.);
        ("x", J.Num (-0.125));
        ("big", J.Num 1e22);
        ("null", J.Null);
        ("bools", J.List [ J.Bool true; J.Bool false ]);
        ("nested", J.Obj [ ("empty_list", J.List []); ("empty", J.Obj []) ]);
      ]
  in
  let s = J.to_string v in
  Alcotest.(check bool) "roundtrip" true (json_equal v (J.parse_exn s));
  Alcotest.(check bool) "stable" true
    (String.equal s (J.to_string (J.parse_exn s)))

let test_json_printing () =
  Alcotest.(check string) "nan is null" "null" (J.to_string (J.Num Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (J.to_string (J.Num Float.infinity));
  Alcotest.(check string) "integral floats have no fraction" "3"
    (J.to_string (J.Num 3.));
  Alcotest.(check string) "escapes" "\"a\\\"b\\\\c\\nd\\u0001\""
    (J.to_string (J.Str "a\"b\\c\nd\x01"))

let test_json_parse () =
  Alcotest.(check bool) "number forms" true
    (json_equal
       (J.parse_exn "[0, -1.5, 1e3, 2.5E-1]")
       (J.List [ J.Num 0.; J.Num (-1.5); J.Num 1000.; J.Num 0.25 ]));
  Alcotest.(check bool) "unicode escape" true
    (json_equal (J.parse_exn "\"\\u0041\\u00e9\"") (J.Str "Aé"));
  List.iter
    (fun bad ->
      match J.parse bad with
      | Result.Ok _ -> Alcotest.failf "parse accepted %S" bad
      | Result.Error _ -> ())
    [ "{"; "tru"; "[1,]"; "{\"a\" 1}"; "1 2"; ""; "\"\\q\"" ]

let test_json_accessors () =
  let v = J.parse_exn "{\"a\": [1, \"two\"], \"b\": 3}" in
  Alcotest.(check (option (float 0.)))
    "member b" (Some 3.)
    (Option.bind (J.member "b" v) J.to_float);
  Alcotest.(check (option string))
    "nested str" (Some "two")
    (match Option.bind (J.member "a" v) J.to_list with
    | Some [ _; s ] -> J.to_str s
    | _ -> None);
  Alcotest.(check bool) "missing member" true (J.member "zz" v = None)

(* --- Trace rings ------------------------------------------------------------ *)

let exec_event i =
  Step_event.Executed
    { version = Version.make ~txn_idx:i ~incarnation:0; reads = 1; writes = 1 }

let test_trace_wraparound () =
  let t = Trace.create ~capacity:8 ~num_workers:1 () in
  let r = Trace.ring t ~worker:0 in
  for i = 0 to 19 do
    Trace.record t r ~t0_ns:(i * 10) ~t1_ns:((i * 10) + 5) (exec_event i)
  done;
  let evs = Trace.worker_events t ~worker:0 in
  Alcotest.(check int) "retained = capacity" 8 (List.length evs);
  Alcotest.(check int) "dropped" 12 (Trace.dropped t);
  let txns =
    List.map
      (fun (e : Trace.event) ->
        match e.Trace.payload with
        | Trace.Exec { version; _ } -> Version.txn_idx version
        | _ -> Alcotest.fail "expected Exec payload")
      evs
  in
  Alcotest.(check (list int)) "oldest-first, last 8 kept"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    txns

let test_trace_idle_coalescing () =
  let t = Trace.create ~num_workers:1 () in
  let r = Trace.ring t ~worker:0 in
  Trace.record t r ~t0_ns:0 ~t1_ns:1 Step_event.Got_task;
  for i = 0 to 4 do
    Trace.record t r ~t0_ns:(10 + i) ~t1_ns:(11 + i) Step_event.No_task
  done;
  Trace.record t r ~t0_ns:20 ~t1_ns:25 (exec_event 0);
  Trace.record t r ~t0_ns:30 ~t1_ns:31 Step_event.No_task;
  match Trace.worker_events t ~worker:0 with
  | [ idle1; ex; idle2 ] ->
      (match idle1.Trace.payload with
      | Trace.Idle { spins } ->
          Alcotest.(check int) "coalesced spins" 5 spins;
          (* The 5 polls span [10, 15]. *)
          Alcotest.(check int) "coalesced duration" 5 idle1.Trace.dur_ns
      | _ -> Alcotest.fail "expected leading Idle");
      (match ex.Trace.payload with
      | Trace.Exec _ -> ()
      | _ -> Alcotest.fail "expected Exec");
      (match idle2.Trace.payload with
      | Trace.Idle { spins } -> Alcotest.(check int) "new idle run" 1 spins
      | _ -> Alcotest.fail "expected trailing Idle");
      Alcotest.(check int) "Got_task not recorded" 0 (Trace.dropped t)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_trace_payloads () =
  let t = Trace.create ~num_workers:2 () in
  let r1 = Trace.ring t ~worker:1 in
  Trace.record t r1 ~t0_ns:0 ~t1_ns:1
    (Step_event.Exec_dependency
       { version = Version.make ~txn_idx:3 ~incarnation:1; blocking = 2;
         reads = 7 });
  Trace.record t r1 ~t0_ns:2 ~t1_ns:3
    (Step_event.Validated
       { version = Version.make ~txn_idx:3 ~incarnation:1; aborted = true;
         reads = 7 });
  Alcotest.(check int) "worker 0 empty" 0
    (List.length (Trace.worker_events t ~worker:0));
  (match Trace.worker_events t ~worker:1 with
  | [ dep; v ] ->
      (match dep.Trace.payload with
      | Trace.Exec_blocked { blocking; reads; _ } ->
          Alcotest.(check int) "blocking" 2 blocking;
          Alcotest.(check int) "reads" 7 reads
      | _ -> Alcotest.fail "expected Exec_blocked");
      (match v.Trace.payload with
      | Trace.Validation { aborted; _ } ->
          Alcotest.(check bool) "aborted" true aborted
      | _ -> Alcotest.fail "expected Validation")
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  Alcotest.check_raises "worker out of range"
    (Invalid_argument "Trace.ring: worker 2 out of range") (fun () ->
      ignore (Trace.ring t ~worker:2))

(* --- Trace export ----------------------------------------------------------- *)

let test_trace_export () =
  let t = Trace.create ~num_workers:2 () in
  let r0 = Trace.ring t ~worker:0 in
  let r1 = Trace.ring t ~worker:1 in
  let base = Trace.now_ns () in
  Trace.record t r0 ~t0_ns:(base + 1_000) ~t1_ns:(base + 3_500) (exec_event 0);
  Trace.record t r1 ~t0_ns:(base + 2_000) ~t1_ns:(base + 2_250)
    Step_event.No_task;
  let j = J.parse_exn (J.to_string (Trace_export.to_json t)) in
  let items = Option.get (J.to_list j) in
  (* 1 process_name + 2 thread_name metadata events + 2 duration events. *)
  Alcotest.(check int) "event count" 5 (List.length items);
  let phases =
    List.filter_map (fun e -> Option.bind (J.member "ph" e) J.to_str) items
  in
  Alcotest.(check int) "metadata events" 3
    (List.length (List.filter (String.equal "M") phases));
  Alcotest.(check int) "duration events" 2
    (List.length (List.filter (String.equal "X") phases));
  let exec =
    List.find
      (fun e -> Option.bind (J.member "ph" e) J.to_str = Some "X")
      items
  in
  (* Timestamps are relative to trace creation and rendered in µs. *)
  let first_ev = List.hd (Trace.events t) in
  Alcotest.(check (option (float 0.001)))
    "ts in microseconds"
    (Some (float_of_int first_ev.Trace.start_ns /. 1e3))
    (Option.bind (J.member "ts" exec) J.to_float);
  Alcotest.(check (option (float 0.001)))
    "dur in microseconds" (Some 2.5)
    (Option.bind (J.member "dur" exec) J.to_float);
  Alcotest.(check (option (float 0.)))
    "txn arg" (Some 0.)
    (Option.bind
       (Option.bind (J.member "args" exec) (J.member "txn"))
       J.to_float)

(* --- Traced engine end-to-end ----------------------------------------------- *)

let contended_txns n : int Tutil.Bstm.txn array =
  Array.init n (fun i ->
      fun (e : Tutil.Bstm.effects) ->
        let v = Option.value ~default:0 (e.read 0) in
        e.write 0 (v + 1);
        i)

let test_traced_engine () =
  let num_domains = 2 in
  let n = 40 in
  let trace = Trace.create ~num_workers:num_domains () in
  let config = { Tutil.Bstm.default_config with num_domains } in
  let r =
    Tutil.Bstm.run ~config ~trace ~storage:(fun _ -> None) (contended_txns n)
  in
  Alcotest.(check (list (pair int int))) "snapshot" [ (0, n) ] r.Tutil.Bstm.snapshot;
  let evs = Trace.events trace in
  Alcotest.(check bool) "trace non-empty" true (evs <> []);
  Alcotest.(check bool) "workers in range" true
    (List.for_all (fun (e : Trace.event) -> e.Trace.worker < num_domains) evs);
  let execs =
    List.length
      (List.filter
         (fun (e : Trace.event) ->
           match e.Trace.payload with Trace.Exec _ -> true | _ -> false)
         evs)
  in
  Alcotest.(check int) "one trace event per incarnation"
    r.Tutil.Bstm.metrics.Tutil.Bstm.incarnations execs

(* The engine's counts against the events its steps produced, on 2
   domains. Under [run] each worker adds its tallies in when its loop
   exits; a driver that steps one instance from two domains, as the e2e
   benchmark's traced driver does, adds them on every call. *)
type tally = {
  mutable execs : int;
  mutable blocked : int;
  mutable vals : int;
  mutable val_aborts : int;
}

let fresh_tally () = { execs = 0; blocked = 0; vals = 0; val_aborts = 0 }

let tally_validation t aborted =
  t.vals <- t.vals + 1;
  if aborted then t.val_aborts <- t.val_aborts + 1

let check_counts label t (m : Tutil.Bstm.metrics) =
  let check what want got =
    Alcotest.(check int) (label ^ ": " ^ what) want got
  in
  check "incarnations" t.execs m.Tutil.Bstm.incarnations;
  check "dependency_aborts" t.blocked m.Tutil.Bstm.dependency_aborts;
  check "validations" t.vals m.Tutil.Bstm.validations;
  check "validation_aborts" t.val_aborts m.Tutil.Bstm.validation_aborts

let test_counts_across_domains () =
  let n = 200 in
  List.iter
    (fun rolling ->
      let label = if rolling then "run, rolling" else "run" in
      let trace = Trace.create ~num_workers:2 () in
      let config =
        {
          Tutil.Bstm.default_config with
          num_domains = 2;
          rolling_commit = rolling;
        }
      in
      let r =
        Tutil.Bstm.run ~config ~trace ~storage:(fun _ -> None)
          (contended_txns n)
      in
      Alcotest.(check int) (label ^ ": no event dropped") 0
        (Trace.dropped trace);
      let t = fresh_tally () in
      List.iter
        (fun (e : Trace.event) ->
          match e.Trace.payload with
          | Trace.Exec _ -> t.execs <- t.execs + 1
          | Trace.Exec_blocked _ -> t.blocked <- t.blocked + 1
          | Trace.Validation { aborted; _ } -> tally_validation t aborted
          | _ -> ())
        (Trace.events trace);
      let m = r.Tutil.Bstm.metrics in
      check_counts label t m;
      Alcotest.(check int) (label ^ ": commits")
        (if rolling then n else 0)
        m.Tutil.Bstm.commits)
    [ false; true ];
  let inst =
    Tutil.Bstm.create_instance
      ~config:{ Tutil.Bstm.default_config with num_domains = 2 }
      ~storage:(fun _ -> None)
      (contended_txns n)
  in
  let drive () =
    let t = fresh_tally () in
    let backoff = Atomic_util.Backoff.create () in
    let task = ref None in
    while not (Tutil.Bstm.is_done inst) do
      let task', ev = Tutil.Bstm.step inst !task in
      (match ev with
      | Tutil.Bstm.No_task -> Atomic_util.Backoff.once backoff
      | _ -> Atomic_util.Backoff.reset backoff);
      (match ev with
      | Tutil.Bstm.Executed _ -> t.execs <- t.execs + 1
      | Exec_dependency _ -> t.blocked <- t.blocked + 1
      | Validated { aborted; _ } -> tally_validation t aborted
      | _ -> ());
      task := task'
    done;
    t
  in
  let helper = Domain.spawn drive in
  let a = drive () in
  let b = Domain.join helper in
  check_counts "step on 2 domains"
    {
      execs = a.execs + b.execs;
      blocked = a.blocked + b.blocked;
      vals = a.vals + b.vals;
      val_aborts = a.val_aborts + b.val_aborts;
    }
    (Tutil.Bstm.finalize inst).Tutil.Bstm.metrics

let test_trace_too_small () =
  Alcotest.check_raises "trace with fewer workers than domains"
    (Invalid_argument "Block_stm: trace has fewer workers than num_domains")
    (fun () ->
      ignore
        (Tutil.Bstm.create_instance
           ~config:{ Tutil.Bstm.default_config with num_domains = 4 }
           ~trace:(Trace.create ~num_workers:2 ())
           ~storage:(fun _ -> None)
           (contended_txns 4)))

(* --- Bench JSON report ------------------------------------------------------- *)

module Report = Blockstm_bench.Report
module Experiments = Blockstm_bench.Experiments

let test_report_json () =
  Report.reset ();
  Report.set_quiet true;
  Fun.protect
    ~finally:(fun () ->
      Report.set_quiet false;
      Report.reset ())
    (fun () ->
      Report.set_mode "quick";
      (* Register every experiment (names must round-trip through the JSON
         report) and run one real, cheap one end to end. *)
      List.iter
        (fun (name, descr, f) ->
          Report.begin_experiment ~name ~descr;
          if String.equal name "seq-overhead" then f Experiments.Quick)
        Experiments.all;
      let path = Filename.temp_file "blockstm_bench" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Report.write path;
          let ic = open_in_bin path in
          let len = in_channel_length ic in
          let s = really_input_string ic len in
          close_in ic;
          let j = J.parse_exn s in
          Alcotest.(check (option string))
            "schema" (Some "blockstm-bench/10")
            (Option.bind (J.member "schema" j) J.to_str);
          let exps =
            Option.get (Option.bind (J.member "experiments" j) J.to_list)
          in
          let names =
            List.filter_map
              (fun e -> Option.bind (J.member "name" e) J.to_str)
              exps
          in
          Alcotest.(check (list string))
            "every experiment present, in order"
            (List.map (fun (n, _, _) -> n) Experiments.all)
            names;
          let seq_ov =
            List.find
              (fun e ->
                Option.bind (J.member "name" e) J.to_str
                = Some "seq-overhead")
              exps
          in
          let tables =
            Option.get (Option.bind (J.member "tables" seq_ov) J.to_list)
          in
          Alcotest.(check int) "one table" 1 (List.length tables);
          let rows =
            Option.get
              (Option.bind (J.member "rows" (List.hd tables)) J.to_list)
          in
          Alcotest.(check bool) "rows recorded" true (rows <> []);
          (* Numeric cells (threads, tps columns) are JSON numbers. *)
          let first_row = Option.get (J.to_list (List.hd rows)) in
          Alcotest.(check bool) "numeric cells are numbers" true
            (J.to_float (List.hd first_row) <> None);
          (* Per-seed samples (an object keyed by label) were recorded. *)
          let sample_labels =
            match J.member "samples" seq_ov with
            | Some (J.Obj kvs) -> List.map fst kvs
            | _ -> []
          in
          Alcotest.(check bool) "bstm samples recorded" true
            (List.exists
               (fun l ->
                 String.length l >= 8 && String.sub l 0 8 = "bstm_tps")
               sample_labels)))

let test_report_samples () =
  Report.reset ();
  Report.set_quiet true;
  Fun.protect
    ~finally:(fun () ->
      Report.set_quiet false;
      Report.reset ())
    (fun () ->
      Report.begin_experiment ~name:"x" ~descr:"d";
      List.iter (Report.sample ~label:"lat") [ 1.; 2.; 3.; 4. ];
      let j = Report.to_json () in
      let exp =
        List.hd (Option.get (Option.bind (J.member "experiments" j) J.to_list))
      in
      let lat =
        Option.get (Option.bind (J.member "samples" exp) (J.member "lat"))
      in
      Alcotest.(check (option (float 0.001)))
        "p50" (Some 2.5)
        (Option.bind
           (Option.bind (J.member "summary" lat) (J.member "p50"))
           J.to_float);
      Alcotest.(check (option int))
        "raw samples kept" (Some 4)
        (Option.map List.length
           (Option.bind (J.member "samples" lat) J.to_list)))

let suite =
  [
    Alcotest.test_case "json: roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: printing edge cases" `Quick test_json_printing;
    Alcotest.test_case "json: parser" `Quick test_json_parse;
    Alcotest.test_case "json: accessors" `Quick test_json_accessors;
    Alcotest.test_case "trace: ring wraparound" `Quick test_trace_wraparound;
    Alcotest.test_case "trace: idle coalescing" `Quick
      test_trace_idle_coalescing;
    Alcotest.test_case "trace: payload decoding" `Quick test_trace_payloads;
    Alcotest.test_case "trace_export: chrome trace_event JSON" `Quick
      test_trace_export;
    Alcotest.test_case "engine: traced run matches sequential" `Quick
      test_traced_engine;
    Alcotest.test_case "engine: counts exact across domains" `Quick
      test_counts_across_domains;
    Alcotest.test_case "engine: undersized trace rejected" `Quick
      test_trace_too_small;
    Alcotest.test_case "report: --json golden file" `Quick test_report_json;
    Alcotest.test_case "report: per-seed samples" `Quick test_report_samples;
  ]
