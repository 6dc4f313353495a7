(** Plain-text table rendering for the benchmark harness: prints the same
    rows/series the paper's figures plot. *)

type t = {
  title : string;
  header : string list;
  mutable rows : string list list;  (* reverse order *)
}

let create ~title ~header = { title; header; rows = [] }
let add_row t row = t.rows <- row :: t.rows

let render ppf t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols =
    List.fold_left (fun acc r -> max acc (List.length r)) 0 all
  in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some s -> max acc (String.length s)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let render_row row =
    List.mapi
      (fun c w ->
        pad (Option.value ~default:"" (List.nth_opt row c)) w)
      widths
    |> String.concat "  "
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  Fmt.pf ppf "@.== %s ==@." t.title;
  Fmt.pf ppf "%s@." (render_row t.header);
  Fmt.pf ppf "%s@." sep;
  List.iter (fun r -> Fmt.pf ppf "%s@." (render_row r)) rows

let print t = render Fmt.stdout t
