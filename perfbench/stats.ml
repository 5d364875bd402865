(* Sample summaries with honest counts.

   Every timing the benchmark prints carries its sample count, and a
   tail percentile is only reported when enough samples lie beyond it:
   a p90 needs at least [min_beyond] samples above it (n >= 100), a p99
   n >= 1000.  Below that the percentile is refused, so a later change
   cannot shrink a run under what its own percentiles need.

   Percentiles are Harrell-Davis estimates: a weighted mean of the
   order statistics around the percentile's rank.  Latencies of a fixed
   query set are gappy in the tail (neighbouring ranks of read-xmark's
   QUERY p90 differ by up to 20 %), and a single order statistic jumps
   whenever two requests near the rank swap places. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [p] among [n] samples (the
   epsilon keeps 0.9 * 100 from rounding up to rank 91). *)
let rank_of ~n p = max 1 (min n (int_of_float (Float.ceil ((p *. float n) -. 1e-9))))

(* Samples strictly beyond percentile [p]: a tail percentile needs at
   least [min_beyond] of them. *)
let supports ~n p = n - rank_of ~n p >= min_beyond

(* Weight of the [i]th order statistic (0-based) in the Harrell-Davis
   estimate of percentile [p] among [n] samples: the mass of the
   Beta((n+1)p, (n+1)(1-p)) density over [i/n, (i+1)/n], integrated by
   the midpoint rule in log space so no term underflows. *)
let hd_weights ~n p =
  let a = float (n + 1) *. p and b = float (n + 1) *. (1. -. p) in
  let steps = 16 in
  let h = 1. /. float (n * steps) in
  let logs =
    Array.init (n * steps) (fun k ->
        let x = (float k +. 0.5) *. h in
        ((a -. 1.) *. log x) +. ((b -. 1.) *. log (1. -. x)))
  in
  let top = Array.fold_left Float.max neg_infinity logs in
  let w = Array.make n 0. in
  Array.iteri (fun k l -> w.(k / steps) <- w.(k / steps) +. exp (l -. top)) logs;
  let total = Array.fold_left ( +. ) 0. w in
  Array.map (fun x -> x /. total) w

let percentile xs p =
  let n = List.length xs in
  if n = 0 || (p > 0.5 && not (supports ~n p)) then None
  else
    let a = sorted xs and w = hd_weights ~n p in
    let v = ref 0. in
    Array.iteri (fun i x -> v := !v +. (w.(i) *. x)) a;
    Some !v

let median xs = match percentile xs 0.5 with Some v -> v | None -> nan

let sum = List.fold_left ( +. ) 0.

let mean = function [] -> nan | xs -> sum xs /. float (List.length xs)

(* A percentile that must exist: the caller sized the run for it.
   Raises [Failure] naming the shortfall otherwise. *)
let require what xs p =
  match percentile xs p with
  | Some v -> v
  | None ->
    failwith
      (Printf.sprintf "%s: p%g refused: n=%d, need %d samples beyond it" what
         (100. *. p) (List.length xs) min_beyond)

let describe_ms what xs =
  let n = List.length xs in
  let cell p =
    match percentile xs p with
    | Some v -> Printf.sprintf "p%g=%.3fms" (100. *. p) (1000. *. v)
    | None -> Printf.sprintf "p%g=refused" (100. *. p)
  in
  Printf.sprintf "%s n=%d %s %s %s" what n (cell 0.5) (cell 0.9) (cell 0.99)
