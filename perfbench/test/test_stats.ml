(* Self-tests of the benchmark's statistics and span helpers. *)

open Perfbench_lib

let floats n = Array.init n (fun i -> float_of_int (i + 1))
let close a b = Alcotest.(check (float 1e-9)) "value" a b

let percentile_rule () =
  (* nearest rank: p90 of 1..100 is the 90th smallest, with 10 beyond it *)
  Alcotest.(check (option (float 0.))) "100 samples" (Some 90.) (Stats.tail_percentile ~pct:90 (floats 100));
  (* 99 samples leave only 9 beyond p90: not reported *)
  Alcotest.(check (option (float 0.))) "99 samples" None (Stats.tail_percentile ~pct:90 (floats 99));
  Alcotest.(check int) "min samples p90" 100 (Stats.min_samples ~pct:90);
  Alcotest.(check int) "min samples p50" 20 (Stats.min_samples ~pct:50);
  close 50. (Stats.percentile ~pct:50 (floats 100));
  close 51. (Stats.percentile ~pct:50 (floats 101));
  close 1. (Stats.percentile ~pct:50 [| 1. |]);
  (* order of the input does not matter *)
  close 3. (Stats.percentile ~pct:50 [| 5.; 1.; 3.; 4.; 2. |]);
  close 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  close 3. (Stats.median [| 5.; 1.; 3.; 4.; 2. |])

let failure_share () =
  close 0. (Stats.failure_share ~attempted:10 ~failed:0);
  close 0.25 (Stats.failure_share ~attempted:8 ~failed:2);
  (* nothing attempted counts as total failure *)
  close 1. (Stats.failure_share ~attempted:0 ~failed:0);
  close 0. (Stats.hit_ratio ~hits:0 ~misses:0);
  close 0.75 (Stats.hit_ratio ~hits:3 ~misses:1)

let slice_ratio () =
  (* 10, 10 and 40 ops in three 1 s slices: the median slice rate is 10 *)
  close 10. (Stats.median_slice_ratio ~num:[| 10.; 10.; 40. |] ~den:[| 1.; 1.; 1. |]);
  (* a slice with no time in it is skipped, not divided by zero *)
  close 7.5 (Stats.median_slice_ratio ~num:[| 5.; 0.; 10. |] ~den:[| 1.; 0.; 1. |])

let coalesce () =
  let slices = Alcotest.(array (triple int int int)) in
  Alcotest.check slices "merged up to 30 ops"
    [| (35, 4, 8) |]
    (Stats.coalesce ~min_ops:30 [ (10, 1, 2); (10, 1, 2); (10, 1, 2); (5, 1, 2) ]);
  Alcotest.check slices "short tail joins the last slice"
    [| (40, 1, 1); (45, 2, 2) |]
    (Stats.coalesce ~min_ops:30 [ (40, 1, 1); (40, 1, 1); (5, 1, 1) ]);
  Alcotest.check slices "too few ops overall: one slice"
    [| (12, 3, 3) |]
    (Stats.coalesce ~min_ops:30 [ (4, 1, 1); (4, 1, 1); (4, 1, 1) ]);
  Alcotest.check slices "an empty tail is dropped"
    [| (30, 1, 1) |]
    (Stats.coalesce ~min_ops:30 [ (30, 1, 1); (0, 0, 0) ])

let residual () =
  close 2.5 (Stats.residual ~mean_latency:10. ~layers_per_op:[ 4.; 3.; 0.5 ]);
  close 10. (Stats.residual ~mean_latency:10. ~layers_per_op:[]);
  (* layers that overrun the end-to-end time leave a negative residual *)
  close (-1.) (Stats.residual ~mean_latency:5. ~layers_per_op:[ 6. ])

let self_times () =
  let t = ref 0 in
  let clock () = !t in
  let sp = Spans.create ~clock in
  let tick k = t := !t + k in
  (* op [0,10) holds a [1,4) and b [5,9); b holds a again at [6,7) *)
  Spans.with_span sp "op" (fun () ->
      tick 1;
      Spans.with_span sp "a" (fun () -> tick 3);
      tick 1;
      Spans.with_span sp "b" (fun () ->
          tick 1;
          Spans.with_span sp "a" (fun () -> tick 1);
          tick 2);
      tick 1);
  let spans = Spans.spans sp in
  Alcotest.(check int) "four spans" 4 (List.length spans);
  Alcotest.(check (list (pair string int)))
    "self"
    [ ("a", 4); ("b", 3); ("op", 3) ]
    (Spans.self_times spans);
  Alcotest.(check (list (pair string int)))
    "total"
    [ ("a", 4); ("b", 4); ("op", 10) ]
    (Spans.total_times spans);
  let b = List.find (fun s -> s.Spans.label = "b") spans in
  let inner_a = List.find (fun s -> s.Spans.label = "a" && s.Spans.parent = b.Spans.id) spans in
  Alcotest.(check int) "inner a starts at 6" 6 inner_a.Spans.start_ns;
  (* a raising body still closes its span *)
  (try Spans.with_span sp "boom" (fun () -> tick 2; failwith "x") with Failure _ -> ());
  Alcotest.(check (list (pair string int)))
    "closed on exception"
    [ ("boom", 2) ]
    (List.filter (fun (l, _) -> l = "boom") (Spans.self_times (Spans.spans sp)))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "failure share" `Quick failure_share;
          Alcotest.test_case "median slice ratio" `Quick slice_ratio;
          Alcotest.test_case "slice coalescing" `Quick coalesce;
          Alcotest.test_case "unattributed residual" `Quick residual;
        ] );
      ("spans", [ Alcotest.test_case "self times" `Quick self_times ]);
    ]
