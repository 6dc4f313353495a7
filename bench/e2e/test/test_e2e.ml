(* The end-to-end benchmark's own checks: every workload at smoke scale
   reports exactly the metrics BENCHMARK.json declares and passes its oracle,
   the traced run's attribution covers the wall time, the oracles catch an
   injected divergence, and the diff verdict rules hold. *)

open E2e
module Json = Blockstm_obs.Json
module Lb = Workloads.Lb

let bench = Json.parse_exn (In_channel.with_open_bin "../../../BENCHMARK.json" In_channel.input_all)

(* (name, unit) of each metric in one BENCHMARK.json section, in order. *)
let declared section =
  let str k j = Option.get (Json.to_str (Option.get (Json.member k j))) in
  List.map
    (fun e -> (str "name" e, str "unit" e))
    (Option.get (Json.to_list (Option.get (Json.member section bench))))

let names (ms : Drive.metric list) = List.map (fun (x : Drive.metric) -> (x.name, x.unit)) ms
let pairs = Alcotest.(list (pair string string))

let smoke (w : Workloads.t) () =
  let path = Filename.temp_file "e2e-trace" ".json" in
  let o = w.run ~smoke:true ~seconds:1. ~seed:3 ~trace:(Some path) in
  let events = Option.get (Json.to_list (Json.parse_exn (In_channel.with_open_bin path In_channel.input_all))) in
  Sys.remove path;
  (match o.correct with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "failed" 0 o.failed;
  Alcotest.check pairs "end-to-end metrics" (declared "end_to_end") (names o.e2e);
  Alcotest.check pairs "per-layer metrics" (declared "per_layer") (names o.layer);
  let unattributed =
    (List.find (fun (x : Drive.metric) -> x.name = "trace.unattributed_frac") o.layer).value
  in
  if unattributed > 0.05 then Alcotest.failf "unattributed_frac %.3f > 5%%" unattributed;
  Alcotest.(check bool) "chrome trace has spans" true (List.length events > 2)

let transfers = Alcotest.testable (Fmt.any "<transfers>") ( = )

(* The lazy generator is P2p.generate_stream's draw, block for block. *)
let draws () =
  let spec = { Blockstm_workload.P2p.default_spec with num_accounts = 50; seed = 7 } in
  let gen = Workloads.transfers ~accounts:50 ~base:0 7 in
  List.iter
    (fun (b : Blockstm_workload.P2p.t) -> Alcotest.check transfers "p2p block" b.transfers (gen ()))
    (Blockstm_workload.P2p.generate_stream spec ~nblocks:3);
  let mm =
    Blockstm_workload.Mm_p2p.generate
      { Blockstm_workload.Mm_p2p.default_spec with num_accounts = 50; seed = 7 }
  in
  Alcotest.check transfers "coin block" mm.transfers (Workloads.transfers ~accounts:50 ~base:1 7 ())

let is_error = function Ok () -> false | Error _ -> true

(* The per-block oracle: Block-STM's commit against the sequential
   reference's commit of the same block, then against tampered ones. *)
let block_oracle () =
  let w = Workloads.p2p ~accounts:50 ~smoke:true in
  let commit executor seed =
    let genesis, stream = w.c_setup () in
    Lb.C.execute_block (Lb.create_chain ~executor genesis) (stream seed ())
  in
  let c = commit (Lb.C.Block_stm Lb.config) 1 and r = commit Lb.C.Sequential 1 in
  let check r = is_error (Lb.check_block w.c_hash c r) in
  Alcotest.(check bool) "agrees" false (check r);
  let outputs = Array.copy r.outputs in
  outputs.(3) <- Blockstm_kernel.Txn.Failed "tampered";
  Alcotest.(check bool) "output divergence" true (check { r with outputs });
  Alcotest.(check bool) "root divergence" true (check (commit Lb.C.Sequential 2))

let open_oracle () =
  let outs = [| 3; 1; 4 |] in
  Alcotest.(check bool) "agrees" false
    (is_error (Lb.open_oracle ~outs ~root:7L ~ref_outs:[| 3; 1; 4 |] ~ref_root:7L));
  Alcotest.(check bool) "output divergence" true
    (is_error (Lb.open_oracle ~outs ~root:7L ~ref_outs:[| 3; 2; 4 |] ~ref_root:7L));
  Alcotest.(check bool) "root divergence" true
    (is_error (Lb.open_oracle ~outs ~root:7L ~ref_outs:outs ~ref_root:8L))

let verdict = Alcotest.testable (Fmt.of_to_string Verdict.to_string) ( = )
let base = [| 100.; 101.; 99.; 100.; 102.; 98.; 100.; 101.; 99.; 100. |]

let judge ?(better = Verdict.Higher) ?(bound = 0.05) base cand =
  let v, _, _ = Verdict.compare ~better ~bound ~base ~cand in
  v

let verdicts () =
  let shift k d = Array.mapi (fun i x -> if i < k then x +. d else x -. 1.) base in
  Alcotest.check verdict "10 of 10 pairs" Verdict.Improved (judge base (shift 10 5.));
  Alcotest.check verdict "9 of 10 pairs" Verdict.Improved (judge base (shift 9 5.));
  Alcotest.check verdict "8 of 10 pairs" Verdict.Unchanged (judge base (shift 8 5.));
  (* Every pair wins, but by less than the candidate's own interquartile
     distance. *)
  let scattered = Array.mapi (fun i x -> x +. if i mod 2 = 0 then 2. else 12.) base in
  Alcotest.check verdict "within the candidate's spread" Verdict.Unresolved
    (judge base scattered);
  Alcotest.check verdict "within bound" Verdict.Unchanged (judge base (Array.map (fun x -> x *. 0.98) base));
  Alcotest.check verdict "beyond bound" Verdict.Regressed (judge base (Array.map (fun x -> x *. 0.9) base));
  Alcotest.check verdict "lower is better" Verdict.Regressed
    (judge ~better:Verdict.Lower base (Array.map (fun x -> x *. 1.1) base));
  let wide = [| 50.; 150.; 80.; 120.; 100.; 60.; 140.; 90.; 110.; 100. |] in
  (* Every candidate run beats every base run, by less than the base's IQR:
     not an improvement, but resolved despite the spread. *)
  let spread = Array.init 10 (fun i -> if i < 5 then 0. else 9.) in
  Alcotest.check verdict "all runs better" Verdict.Unchanged
    (judge spread (Array.init 10 (fun i -> 9.1 +. (0.1 *. float_of_int i))));
  (* A wide spread still resolves a regression the pairs agree on: 9 of 10
     pairs lose and the median is worse by more than the bound. *)
  let lose k = Array.mapi (fun i x -> if i < k then x *. 0.7 else x *. 1.01) wide in
  Alcotest.check verdict "wide, 9 of 10 pairs lose" Verdict.Regressed (judge wide (lose 9));
  Alcotest.check verdict "wide, 10 of 10 pairs lose" Verdict.Regressed (judge wide (lose 10));
  Alcotest.check verdict "wide, 8 of 10 pairs lose" Verdict.Unresolved (judge wide (lose 8))

let () =
  Alcotest.run "e2e"
    [
      ( "e2e",
        List.map
          (fun (w : Workloads.t) ->
            Alcotest.test_case ("smoke " ^ w.name ^ ": metrics, oracle, attribution") `Quick (smoke w))
          Workloads.all
        @ [
            Alcotest.test_case "lazy draws equal the library generators" `Quick draws;
            Alcotest.test_case "block oracle catches divergence" `Quick block_oracle;
            Alcotest.test_case "open-loop oracle catches divergence" `Quick open_oracle;
            Alcotest.test_case "diff verdict rules" `Quick verdicts;
          ] );
    ]
