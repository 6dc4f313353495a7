(** The rule that compares two sets of runs of one end-to-end metric on one
    workload — a base (the parent, or the committed baseline) and a
    candidate — run in alternating pairs:

    - [Improved]: the candidate wins at least nine tenths of the pairs (ties
      count for neither) and the medians differ, in its favour, by more than
      either side's interquartile distance;
    - [Regressed]: otherwise, when the candidate's median is worse than the
      base's by more than the bound (a share of the base median), and either
      both sides' run-to-run spreads (interquartile distance over median) are
      within the bound or the candidate loses at least nine tenths of the
      pairs;
    - [Unresolved]: otherwise, when either side's spread is wider than the
      bound, unless every candidate run reads better than every base run;
    - [Unchanged]: otherwise. *)

type better = Higher | Lower
type t = Improved | Regressed | Unchanged | Unresolved

let to_string = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

let better_of_string = function
  | "higher" -> Some Higher
  | "lower" -> Some Lower
  | _ -> None

(** Median and quartiles of one side. *)
type side = { median : float; q1 : float; q3 : float }

let side xs =
  { median = Util.median xs; q1 = Util.percentile 25. xs; q3 = Util.percentile 75. xs }

(** Interquartile distance over the median. *)
let spread s = Util.ratio (s.q3 -. s.q1) (Float.abs s.median)

let compare ~better ~bound ~(base : float array) ~(cand : float array) =
  let b = side base and c = side cand in
  let beats x y = match better with Higher -> x > y | Lower -> x < y in
  let pairs = min (Array.length base) (Array.length cand) in
  let wins = ref 0 and losses = ref 0 in
  for i = 0 to pairs - 1 do
    if beats cand.(i) base.(i) then incr wins
    else if beats base.(i) cand.(i) then incr losses
  done;
  let most n = pairs > 0 && 10 * n >= 9 * pairs in
  let worse_by =
    Util.ratio
      (match better with
      | Higher -> b.median -. c.median
      | Lower -> c.median -. b.median)
      (Float.abs b.median)
  in
  let wide = Float.max (spread b) (spread c) > bound in
  let all_beat =
    Array.for_all (fun y -> Array.for_all (fun x -> beats y x) base) cand
  in
  let verdict =
    if
      most !wins
      && beats c.median b.median
      && Float.abs (c.median -. b.median) > Float.max (b.q3 -. b.q1) (c.q3 -. c.q1)
    then Improved
    else if worse_by > bound && ((not wide) || most !losses) then Regressed
    else if wide && not all_beat then Unresolved
    else Unchanged
  in
  (verdict, b, c)
