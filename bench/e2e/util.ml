(** Helpers shared by the end-to-end benchmark: a monotonic wall clock,
    growable sample buffers, quantiles and process memory. *)

(** Monotonic wall clock, in nanoseconds ([CLOCK_MONOTONIC]: unaffected by
    clock steps, comparable across domains). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ns_of_s s = int_of_float (s *. 1e9)
let secs ns = float_of_int ns /. 1e9
let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3

(** [a /. b], or 0 when there is nothing to divide by (a metric must never
    print as NaN). *)
let ratio a b = if b = 0. then 0. else a /. b

(** Growable arrays. *)
module Buf = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 256 dummy; n = 0; dummy }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) b.dummy in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(** First index where two equal-length arrays differ. *)
let first_mismatch a b =
  let n = Array.length a in
  let rec go i = if i = n then None else if a.(i) <> b.(i) then Some i else go (i + 1) in
  go 0

(** Linear-interpolation percentile ([p] in 0..100); 0 for no samples. *)
let percentile p xs =
  if Array.length xs = 0 then 0. else Blockstm_stats.Descriptive.percentile p xs

let median xs = percentile 50. xs

(** Peak resident set size of this process ([VmHWM]), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
