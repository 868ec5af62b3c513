(* The repository's benchmark runner. Run it through perfbench/run.sh:

     bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 30 --trace 0

   Workloads: paper-hierarchy, serve-cold, serve-warm (see README.md).
   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
   The last line of stdout is the result object. *)

open Common

let usage () =
  prerr_endline
    "usage: perfbench.exe --repro PATH --workload (paper-hierarchy|serve-cold|serve-warm) \
     --seed N --seconds S --trace (0|1)";
  exit 2

(* Program processes per untraced run. Each is set up (set-up time is the
   median over them) and then timed for its share of the run. A daemon's
   speed depends on its own heap and address layout by up to a fifth, so
   the serve workloads take the median over more of them. *)
let processes = function "paper-hierarchy" -> 3 | _ -> 6

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let opt k = List.assoc_opt k opts in
  let int k = match Option.bind (opt k) int_of_string_opt with Some v -> v | None -> usage () in
  let seed = int "seed" in
  let seconds =
    match Option.bind (opt "seconds") float_of_string_opt with
    | Some s when s > 0. -> s
    | _ -> usage ()
  in
  let trace = match opt "trace" with Some "0" -> false | Some "1" -> true | _ -> usage () in
  match opt "child" with
  | Some "paper-hierarchy" -> Wl_hierarchy.child ~seed ~seconds ~min_ops:(int "min-ops") ~trace
  | Some _ -> usage ()
  | None -> (
    let repro = match opt "repro" with Some p when Sys.file_exists p -> p | _ -> usage () in
    let workload = match opt "workload" with Some w -> w | None -> usage () in
    (* a run must end well inside three minutes *)
    deadline_ns := now_ns () + 150_000_000_000;
    let run =
      match workload with
      | "paper-hierarchy" -> Wl_hierarchy.run ~repro
      | "serve-cold" | "serve-warm" -> Wl_serve.run ~repro ~workload
      | _ -> usage ()
    in
    match run ~seed ~seconds ~trace ~processes:(processes workload) with
    | attempted, failed, correct, metrics, info ->
      let env =
        env_json ~workload ~seed ~seconds ~trace
          ~repro_domains:"1"
      in
      print_result ~env ~correct ~attempted ~failed ~info metrics
        (if trace then per_layer else end_to_end);
      exit 0
    | exception e ->
      Printf.eprintf "perfbench: %s failed: %s\n%!" workload (Printexc.to_string e);
      exit 1)
