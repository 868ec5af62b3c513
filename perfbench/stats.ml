(* Statistics helpers shared by every workload of the benchmark. *)

(* 1-based nearest rank of the [pct]-th percentile among [n] samples:
   the ceil(pct * n / 100)-th smallest. Integer arithmetic, so p90 of 100
   samples is exactly rank 90. *)
let rank ~pct n = max 1 (((pct * n) + 99) / 100)

(* samples strictly above the nearest-rank [pct]-th percentile *)
let beyond ~pct n = n - rank ~pct n

(* A tail percentile is reported only when at least this many samples lie
   beyond it; below that it is one or two outliers, not a percentile. *)
let min_beyond = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let percentile ~pct xs =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: no samples";
  let a = sorted xs in
  a.(rank ~pct (Array.length a) - 1)

let tail_percentile ~pct xs =
  if beyond ~pct (Array.length xs) < min_beyond then None
  else Some (percentile ~pct xs)

(* fewest samples for which [tail_percentile ~pct] reports a value *)
let min_samples ~pct =
  let rec go n = if beyond ~pct n >= min_beyond then n else go (n + 1) in
  go 1

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: no samples";
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* A run that attempted nothing measured nothing: it counts as failed. *)
let failure_share ~attempted ~failed =
  if attempted <= 0 then 1.0 else float_of_int failed /. float_of_int attempted

(* Accounting residual: the mean end-to-end latency of an op minus the
   per-op self times of the layers the trace attributed. What is left is
   time no layer span covers (socket, wake-ups, runtime lock, loop). *)
let residual ~mean_latency ~layers_per_op =
  mean_latency -. List.fold_left ( +. ) 0. layers_per_op

(* [hits / (hits + misses)]; 0 when the cache was never consulted *)
let hit_ratio ~hits ~misses =
  if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)

(* Median over slices of [num.(i) / den.(i)]; slices with no [den] (no
   time passed, no op finished) are skipped. *)
let median_slice_ratio ~num ~den =
  if Array.length num = 0 || Array.length den <> Array.length num then
    invalid_arg "Stats.median_slice_ratio";
  let ratios = ref [] in
  Array.iteri (fun i d -> if d > 0. then ratios := (num.(i) /. d) :: !ratios) den;
  median (Array.of_list !ratios)

(* Merge adjacent (ops, ns, cpu) slices until each holds at least [min_ops]
   ops; a short tail joins the slice before it. *)
let coalesce ~min_ops slices =
  let add (a, b, c) (x, y, z) = (a + x, b + y, c + z) in
  let ops (o, _, _) = o in
  let rec go acc cur = function
    | [] -> (
      match acc with
      | last :: rest when ops cur < min_ops -> add last cur :: rest
      | _ -> if ops cur = 0 then acc else cur :: acc)
    | s :: rest ->
      let cur = add cur s in
      if ops cur >= min_ops then go (cur :: acc) (0, 0, 0) rest else go acc cur rest
  in
  Array.of_list (List.rev (go [] (0, 0, 0) slices))
