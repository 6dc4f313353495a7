(* Run one workload of the end-to-end benchmark in this process and print
   every metric as "workload metric value unit", then one JSON result line
   (correct, attempted, failed, metrics). Without --trace the JSON carries
   the end-to-end metrics; with --trace FILE it carries the per-layer
   metrics of the traced run and FILE receives its Chrome trace. Exits 1 if
   any committed state or output diverges from the sequential reference, or
   if any transaction was dropped, left uncommitted or failed. *)

open E2e
module Json = Blockstm_obs.Json

let usage =
  "main.exe --workload NAME [--seed N] [--seconds S] [--trace FILE] [--smoke]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref None and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed part (default 10)");
      ( "--trace",
        Arg.String (fun f -> trace := Some f),
        "FILE also run the traced driver; write its Chrome trace to FILE" );
      ("--smoke", Arg.Set smoke, " tiny scale (0.2 s, one set-up)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match Workloads.find !workload with
  | None ->
      Printf.eprintf "unknown workload %S; known: %s\n" !workload
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
      exit 2
  | Some w ->
      let o = w.run ~smoke:!smoke ~seconds:!seconds ~seed:!seed ~trace:!trace in
      Printf.printf
        "# %s: wall clock, seed %d, %d engine domains, host.cores %d, OCaml %s\n"
        w.name !seed Drive.domains
        (Domain.recommended_domain_count ())
        Sys.ocaml_version;
      let line (x : Drive.metric) =
        Printf.printf "%s %s %.12g %s\n" w.name x.name x.value x.unit
      in
      List.iter line (o.e2e @ o.info @ o.layer);
      (match o.correct with
      | Ok () -> ()
      | Error e -> Printf.eprintf "%s: DIVERGENCE: %s\n" w.name e);
      if o.failed > 0 then
        Printf.eprintf "%s: %d of %d transactions dropped, uncommitted or failed\n"
          w.name o.failed o.attempted;
      let gated = if !trace = None then o.e2e else o.layer in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool (Result.is_ok o.correct));
                ("attempted", Json.Num (float_of_int o.attempted));
                ("failed", Json.Num (float_of_int o.failed));
                ( "metrics",
                  Json.Obj
                    (List.map
                       (fun (x : Drive.metric) ->
                         ( x.name,
                           Json.Obj
                             [ ("value", Json.Num x.value); ("unit", Json.Str x.unit) ] ))
                       gated) );
              ]));
      exit (if Result.is_ok o.correct && o.failed = 0 then 0 else 1)
