(* Summarize one set of end-to-end benchmark runs, or compare two.

     diff.exe RUNS.json              per workload x metric: median, quartiles,
                                     spread (IQR / median), range (max/min - 1)
     diff.exe --json RUNS.json       the same summary as JSON
     diff.exe BASE.json CAND.json    one verdict row per workload x metric
     diff.exe --baseline CAND.json   BASE is the committed bench/e2e/baseline.json

   RUNS files are what run.sh --json writes. Metric directions and bounds
   come from BENCHMARK.json (--bench FILE overrides the path); paths are
   relative to the repository root. The verdict rule is Verdict's. Exits 1
   if any row regressed. *)

open E2e
module Json = Blockstm_obs.Json

let read path = Json.parse_exn (In_channel.with_open_bin path In_channel.input_all)

let get k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" k)

let num j = match Json.to_float j with Some f -> f | None -> failwith "expected a number"
let str j = match Json.to_str j with Some s -> s | None -> failwith "expected a string"
let items j = match Json.to_list j with Some l -> l | None -> failwith "expected a list"

type spec = { name : string; better : Verdict.better; bound : float }

(* The end-to-end metrics BENCHMARK.json declares, in its order. *)
let specs bench =
  List.map
    (fun e ->
      {
        name = str (get "name" e);
        better = Option.get (Verdict.better_of_string (str (get "better" e)));
        bound = num (get "bound" e);
      })
    (items (get "end_to_end" (read bench)))

(* Workloads in first-seen order, and each (workload, metric)'s values in
   run order. *)
let samples path =
  let order = ref [] and tbl = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let w = str (get "workload" r) in
      if not (List.mem w !order) then order := w :: !order;
      match get "metrics" (get "result" r) with
      | Json.Obj ms ->
          List.iter
            (fun (k, v) ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt tbl (w, k)) in
              Hashtbl.replace tbl (w, k) (num (get "value" v) :: prev))
            ms
      | _ -> failwith "metrics must be an object")
    (items (get "runs" (read path)));
  ( List.rev !order,
    fun w k -> Array.of_list (List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl (w, k)))) )

let summary ~json specs path =
  let workloads, values = samples path in
  let row w s =
    let xs = values w s.name in
    let ({ median = med; q1; q3 } : Verdict.side) = Verdict.side xs in
    let lo = Array.fold_left Float.min Float.infinity xs
    and hi = Array.fold_left Float.max Float.neg_infinity xs in
    (med, q1, q3, Util.ratio (q3 -. q1) (Float.abs med), Util.ratio hi lo -. 1., Array.length xs)
  in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            (List.map
               (fun w ->
                 ( w,
                   Json.Obj
                     (List.map
                        (fun s ->
                          let med, q1, q3, spread, range, n = row w s in
                          ( s.name,
                            Json.Obj
                              [
                                ("median", Json.Num med);
                                ("q1", Json.Num q1);
                                ("q3", Json.Num q3);
                                ("spread", Json.Num spread);
                                ("range", Json.Num range);
                                ("n", Json.Num (float_of_int n));
                              ] ))
                        specs) ))
               workloads)))
  else begin
    Printf.printf "%-12s %-14s %12s %12s %12s %7s %7s %3s\n" "workload" "metric"
      "median" "q1" "q3" "spread" "range" "n";
    List.iter
      (fun w ->
        List.iter
          (fun s ->
            let med, q1, q3, spread, range, n = row w s in
            Printf.printf "%-12s %-14s %12.6g %12.6g %12.6g %6.2f%% %6.2f%% %3d\n" w
              s.name med q1 q3 (100. *. spread) (100. *. range) n)
          specs)
      workloads
  end

let compare specs base cand =
  let workloads, bv = samples base and _, cv = samples cand in
  Printf.printf "%-12s %-14s %28s %28s %7s %6s %s\n" "workload" "metric"
    "base median [q1, q3]" "cand median [q1, q3]" "change" "bound" "verdict";
  let regressed = ref false in
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          let verdict, b, c =
            Verdict.compare ~better:s.better ~bound:s.bound ~base:(bv w s.name)
              ~cand:(cv w s.name)
          in
          if verdict = Verdict.Regressed then regressed := true;
          let side (x : Verdict.side) =
            Printf.sprintf "%.5g [%.5g, %.5g]" x.median x.q1 x.q3
          in
          Printf.printf "%-12s %-14s %28s %28s %+6.1f%% %5.1f%% %s\n" w s.name
            (side b) (side c)
            (100. *. Util.ratio (c.median -. b.median) (Float.abs b.median))
            (100. *. s.bound) (Verdict.to_string verdict))
        specs)
    workloads;
  if !regressed then exit 1

let () =
  let bench = ref "BENCHMARK.json" and json = ref false and baseline = ref false in
  let files = ref [] in
  Arg.parse
    [
      ("--bench", Arg.Set_string bench, "FILE benchmark definition (default BENCHMARK.json)");
      ("--json", Arg.Set json, " print the summary as JSON");
      ("--baseline", Arg.Set baseline, " compare against bench/e2e/baseline.json");
    ]
    (fun f -> files := !files @ [ f ])
    "diff.exe [--bench FILE] [--json] RUNS.json | BASE.json CAND.json | --baseline CAND.json";
  let specs = specs !bench in
  match (!baseline, !files) with
  | false, [ runs ] -> summary ~json:!json specs runs
  | false, [ base; cand ] -> compare specs base cand
  | true, [ cand ] -> compare specs "bench/e2e/baseline.json" cand
  | _ ->
      prerr_endline "diff.exe: expected RUNS.json, BASE.json CAND.json, or --baseline CAND.json";
      exit 2
