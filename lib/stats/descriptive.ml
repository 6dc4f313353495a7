(** Descriptive statistics over float samples, used by the benchmark harness
    (each paper data point is an average of repeated measurements). *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p95 : float;
  p99 : float;
}

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else
    let m = mean xs in
    Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
    /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

(** Percentile by linear interpolation between closest ranks; [p] in [0,100]. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then nan
  else if n = 1 then xs.(0)
  else begin
    if p < 0. || p > 100. then invalid_arg "Descriptive.percentile";
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then sorted.(lo)
    else
      let frac = rank -. float_of_int lo in
      (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile 50. xs

let min_max xs =
  let n = Array.length xs in
  if n = 0 then (nan, nan)
  else
    Array.fold_left
      (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
      (xs.(0), xs.(0))
      xs

let summarize xs =
  let lo, hi = min_max xs in
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = lo;
    max = hi;
    median = median xs;
    p95 = percentile 95. xs;
    p99 = percentile 99. xs;
  }

(** Geometric mean, for aggregating speedup ratios. *)
let geomean xs =
  let n = Array.length xs in
  if n = 0 then nan
  else exp (Array.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int n)
