(* Benchmark harness entry point.

   Usage:
     dune exec bench/main.exe                 # quick grid, every experiment
     dune exec bench/main.exe -- fig3 fig5    # selected experiments
     dune exec bench/main.exe -- --full       # the paper's full grid
     dune exec bench/main.exe -- micro        # bechamel micro-benches only
     dune exec bench/main.exe -- --json BENCH_blockstm.json
                                              # also write a JSON report
     dune exec bench/main.exe -- scaling --domains 1,2,4,8
                                              # sweep real domain counts
     dune exec bench/main.exe -- lane-scaling --lanes 1,2,4,8
                                              # sweep execution-lane counts
     dune exec bench/main.exe -- sustained --mempool-rate 5000 \
         --block-size 1000 --block-deadline-ms 50
                                              # mempool-fed stream knobs

   See DESIGN.md §5 for the experiment index and EXPERIMENTS.md for
   paper-vs-measured results. *)

let parse_domains s =
  match
    String.split_on_char ',' s
    |> List.map (fun part -> int_of_string_opt (String.trim part))
    |> List.map (function Some d when d >= 1 -> Some d | _ -> None)
    |> List.fold_left
         (fun acc d ->
           match (acc, d) with
           | Some acc, Some d -> Some (d :: acc)
           | _ -> None)
         (Some [])
  with
  | Some l when l <> [] -> List.rev l
  | _ ->
      Printf.eprintf
        "--domains expects a comma-separated list of positive ints, got %S\n"
        s;
      exit 2

let num_arg flag s =
  match float_of_string_opt s with
  | Some v when v > 0. -> v
  | _ ->
      Printf.eprintf "%s expects a positive number, got %S\n" flag s;
      exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_path = ref None in
  let rec strip_json = function
    | [] -> []
    | [ "--json" ] ->
        prerr_endline "--json needs a path argument";
        exit 2
    | "--json" :: path :: rest ->
        json_path := Some path;
        strip_json rest
    | [ "--lanes" ] ->
        prerr_endline "--lanes needs a comma-separated list argument";
        exit 2
    | "--lanes" :: spec :: rest ->
        Blockstm_bench.Experiments.set_lanes_grid (parse_domains spec);
        strip_json rest
    | [ "--domains" ] ->
        prerr_endline "--domains needs a comma-separated list argument";
        exit 2
    | "--domains" :: spec :: rest ->
        Blockstm_bench.Experiments.set_domains_grid (parse_domains spec);
        strip_json rest
    | [ "--mempool-rate" ] | [ "--block-size" ] | [ "--block-deadline-ms" ] ->
        prerr_endline "missing argument for a sustained flag";
        exit 2
    | "--mempool-rate" :: v :: rest ->
        Blockstm_bench.Experiments.set_sustained_rate (num_arg "--mempool-rate" v);
        strip_json rest
    | "--block-size" :: v :: rest ->
        Blockstm_bench.Experiments.set_sustained_block_size
          (int_of_float (num_arg "--block-size" v));
        strip_json rest
    | "--block-deadline-ms" :: v :: rest ->
        Blockstm_bench.Experiments.set_sustained_deadline_ms
          (num_arg "--block-deadline-ms" v);
        strip_json rest
    | a :: rest -> a :: strip_json rest
  in
  let args = strip_json args in
  let mode =
    if List.mem "--full" args then Blockstm_bench.Experiments.Full
    else Blockstm_bench.Experiments.Quick
  in
  let selected =
    List.filter (fun a -> a <> "--full") args
  in
  let known = List.map (fun (n, _, _) -> n) Blockstm_bench.Experiments.all @ [ "micro" ] in
  let bad = List.filter (fun a -> not (List.mem a known)) selected in
  if bad <> [] then begin
    Fmt.epr "unknown experiment(s): %a@.known: %a@."
      Fmt.(list ~sep:comma string)
      bad
      Fmt.(list ~sep:comma string)
      known;
    exit 2
  end;
  let want name = selected = [] || List.mem name selected in
  let mode_name =
    match mode with Blockstm_bench.Experiments.Quick -> "quick" | Full -> "full"
  in
  Blockstm_bench.Report.set_mode mode_name;
  Fmt.pr
    "Block-STM benchmark harness (%s grid). Thread-scaling numbers use the \
     virtual-time executor; see DESIGN.md.@."
    mode_name;
  List.iter
    (fun (name, descr, f) ->
      if want name then begin
        Fmt.pr "@.### %s — %s@." name descr;
        Blockstm_bench.Report.begin_experiment ~name ~descr;
        try f mode
        with Failure msg ->
          (* The grid runner's identity oracle names the failing point. *)
          Fmt.epr "%s: %s@." name msg;
          exit 1
      end)
    Blockstm_bench.Experiments.all;
  if want "micro" then Blockstm_bench.Micro.run ();
  Option.iter Blockstm_bench.Report.write !json_path
