(* Pieces every workload shares: the metric tables, the timed loop, process
   and /proc helpers, the environment record and the result line. *)

module Json = Repro_obs.Json
module Clock = Repro_obs.Clock
module Stats = Perfbench_lib.Stats
module Spans = Perfbench_lib.Spans

let now_ns = Clock.now_ns

(* ------------------------------------------------------------------ *)
(* metric tables — BENCHMARK.json lists exactly these names and units *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("cpu_ms_per_op", "ms");
    ("peak_rss_mb", "MB");
  ]

(* Span label -> (per-layer metric, unit). A label here is a layer: its
   self time counts towards the attributed sum behind
   [serve.unattributed_ms]. Spans labelled "op" (one op) and "serve.call"
   (the client round trip) are not layers. *)
let layer_spans =
  [
    ("padding.hard_instance", "padding.hard_instance_ms", "ms");
    ("padding.solve_det.pi2", "padding.solve_det_ms.pi2", "ms");
    ("padding.solve_det.pi3", "padding.solve_det_ms.pi3", "ms");
    ("padding.solve_rand.pi2", "padding.solve_rand_ms.pi2", "ms");
    ("padding.solve_rand.pi3", "padding.solve_rand_ms.pi3", "ms");
    ("lcl.is_valid.pi2", "lcl.is_valid_ms.pi2", "ms");
    ("lcl.is_valid.pi3", "lcl.is_valid_ms.pi3", "ms");
    ("graph.hard_instance", "graph.hard_instance_ms", "ms");
    ("problems.so_det", "problems.so_det_ms", "ms");
    ("problems.so_rand", "problems.so_rand_ms", "ms");
    ("problems.so_wave", "problems.so_wave_ms", "ms");
    ("lcl.dcheck", "lcl.dcheck_ms", "ms");
    ("problems.catalog_engine", "problems.catalog_engine_ms", "ms");
    ("linalg.catalog", "linalg.catalog_ms", "ms");
    ("serve.scheduler", "serve.scheduler_us", "us");
    ("serve.protocol", "serve.protocol_us", "us");
    ("serve.hash", "serve.hash_us", "us");
    ("serve.cache", "serve.cache_us", "us");
  ]

(* Program counter -> (per-layer metric, unit). Counted by the program's
   own registry: in-process on paper-hierarchy, from each reply's
   [telemetry] field on the serve workloads. Pool values depend on the
   schedule: they are timing data, not exact counts. *)
let layer_counters =
  [
    ("gadget.verifier.runs", "gadget.verifier_runs_per_op", "count");
    ("local.pool.seq_loops", "local.pool.seq_loops_per_op", "count");
    ("local.pool.jobs", "local.pool.jobs_per_op", "count");
    ("local.pool.cutoff_inline", "local.pool.cutoff_inline_per_op", "count");
    ("local.pool.dispatch_ns", "local.pool.dispatch_ms_per_op", "ms");
    ("local.mp.messages", "local.mp.messages_per_op", "count");
  ]

(* factor from a raw value (ns, or a plain count) to [unit] *)
let scale = function "ms" -> 1e-6 | "us" -> 1e-3 | _ -> 1.

let per_layer =
  List.map (fun (_, m, u) -> (m, u)) (layer_spans @ layer_counters)
  @ [
      ("gc.minor_mwords_per_op", "Mwords");
      ("gc.major_collections_per_op", "count");
      ("paper.det_rounds.pi2", "rounds");
      ("paper.det_rounds.pi3", "rounds");
      ("paper.rand_rounds.pi2", "rounds");
      ("paper.rand_rounds.pi3", "rounds");
      ("serve.reply_cache_hit_ratio", "ratio");
      ("serve.instance_cache_hit_ratio", "ratio");
      ("serve.unattributed_ms", "ms");
      ("trace.ops_per_s_ratio", "ratio");
    ]

(* Every traced run prints every per-layer metric. A layer the workload
   never enters has no spans and no counts, so it reads 0. *)
let new_layers () =
  let t = Hashtbl.create 64 in
  List.iter (fun (m, _) -> Hashtbl.replace t m 0.) per_layer;
  t

let set_layer t name v =
  if not (Hashtbl.mem t name) then invalid_arg ("unknown per-layer metric " ^ name);
  Hashtbl.replace t name v

(* ------------------------------------------------------------------ *)
(* CPU placement *)

(* the CPUs the runner may use, read before anything pins it *)
let nproc = Domain.recommended_domain_count ()

external pin_last_cpu : unit -> int = "perfbench_pin_last_cpu"

(* the CPU this process and every program process it starts from now on
   are pinned to; None while unpinned or where pinning is refused *)
let pinned_cpu : int option ref = ref None

let pin_to_one_cpu () =
  match pin_last_cpu () with c when c >= 0 -> pinned_cpu := Some c | _ -> ()

(* CPU tick counters (user … steal) from /proc/stat: of the pinned CPU
   when there is one, else of the whole host; [.(7)] is time stolen by
   the hypervisor *)
let host_cpu_ticks () =
  let name = match !pinned_cpu with Some c -> "cpu" ^ string_of_int c | None -> "cpu" in
  let ic = open_in "/proc/stat" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match List.filter (( <> ) "") (String.split_on_char ' ' (input_line ic)) with
        | n :: fields when n = name ->
          Array.of_list (List.filteri (fun i _ -> i < 8) (List.map int_of_string fields))
        | _ -> find ()
        | exception End_of_file -> failwith ("no " ^ name ^ " line in /proc/stat")
      in
      find ())

(* ------------------------------------------------------------------ *)
(* a timed phase: closed loop over an op list *)

type phase = {
  lat_ns : float array;  (** one latency per op, in op order *)
  attempted : int;
  failed : int;
  slices : (int * int * int) array;
      (** (ops, ns, program CPU ns) of each tenth of the phase *)
  minor_words : float;  (** GC of this process over the phase *)
  major_collections : int;
  steal_share : float;  (** CPU steal over the phase, from /proc/stat *)
}

(* p90 needs ten samples beyond it *)
let min_ops = Stats.min_samples ~pct:90

(* An untraced run times each of its [k] program processes for a [k]-th
   of the run, so that one process's luck (placement, calibration, heap
   layout) does not decide the whole run; together they still reach
   [min_ops]. *)
let min_ops_each k = (min_ops + k - 1) / k

(* Rates are taken per slice and the median slice is reported, so a burst
   of host CPU steal in one part of a run does not move them. *)
let slices_per_phase = 10

(* A slice's rate is only as good as the ops in it: adjacent slices are
   merged until each holds at least this many (slow workloads end up with
   one slice per process). *)
let min_slice_ops = 30

(* No run may exceed this, whatever [--seconds] says. *)
let deadline_ns = ref max_int

(* Runs [call i] for i = 0, 1, … and times each call; [check i r] judges
   the reply outside the timed window. Stops once [seconds] have passed
   and at least [min_ops] ops ran, or after [max_ops] ops. [cpu] reads the
   program process's CPU time in ns. *)
let run_phase ?(max_ops = max_int) ?(min_ops = min_ops) ?(cpu = fun () -> 0) ~seconds ~call
    ~check () =
  let lat = ref (Array.make 1024 0.) in
  let n = ref 0 and failed = ref 0 in
  let cuts = ref [ (0, 0, 0) ] in
  (* Gc.minor_words is exact for this domain; quick_stat's copy only moves
     at a minor collection on OCaml 5 *)
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let cpu0 = cpu () in
  let stat0 = host_cpu_ticks () in
  let t_start = now_ns () in
  let slice_ns = int_of_float (seconds *. 1e9) / slices_per_phase in
  let next_cut = ref (t_start + slice_ns) in
  let stop_at = t_start + (slices_per_phase * slice_ns) in
  while
    !n < max_ops
    && (!n < min_ops || now_ns () < stop_at)
    && now_ns () < !deadline_ns
  do
    let i = !n in
    let t0 = now_ns () in
    let r = call i in
    let t1 = now_ns () in
    if i = Array.length !lat then begin
      let bigger = Array.make (2 * i) 0. in
      Array.blit !lat 0 bigger 0 i;
      lat := bigger
    end;
    !lat.(i) <- float_of_int (t1 - t0);
    if not (check i r) then incr failed;
    n := i + 1;
    if t1 >= !next_cut && List.length !cuts < slices_per_phase then begin
      cuts := (!n, t1 - t_start, cpu () - cpu0) :: !cuts;
      next_cut := !next_cut + slice_ns
    end
  done;
  let cuts = Array.of_list (List.rev ((!n, now_ns () - t_start, cpu () - cpu0) :: !cuts)) in
  let minor1 = Gc.minor_words () and major1 = (Gc.quick_stat ()).Gc.major_collections in
  let stat1 = host_cpu_ticks () in
  if !n < min_ops then
    failwith (Printf.sprintf "only %d ops before the run deadline (need %d)" !n min_ops);
  {
    lat_ns = Array.sub !lat 0 !n;
    attempted = !n;
    failed = !failed;
    slices =
      Stats.coalesce ~min_ops:min_slice_ops
        (List.init (Array.length cuts - 1) (fun i ->
             let o0, t0, c0 = cuts.(i) and o1, t1, c1 = cuts.(i + 1) in
             (o1 - o0, t1 - t0, c1 - c0)));
    minor_words = minor1 -. minor0;
    major_collections = major1 - major0;
    steal_share =
      (let d i = float_of_int (stat1.(i) - stat0.(i)) in
       let total = List.fold_left (fun a i -> a +. d i) 0. (List.init (Array.length stat0) Fun.id) in
       if total > 0. then d 7 /. total else 0.);
  }

let phase_to_json p =
  Json.Obj
    [
      ("lat_ns", Json.List (Array.to_list (Array.map (fun x -> Json.Float x) p.lat_ns)));
      ("attempted", Json.Int p.attempted);
      ("failed", Json.Int p.failed);
      ( "slices",
        Json.List
          (Array.to_list
             (Array.map (fun (a, b, c) -> Json.List [ Json.Int a; Json.Int b; Json.Int c ]) p.slices))
      );
      ("minor_words", Json.Float p.minor_words);
      ("major_collections", Json.Int p.major_collections);
      ("steal_share", Json.Float p.steal_share);
    ]

let get conv name j =
  match Option.bind (Json.member name j) conv with
  | Some v -> v
  | None -> failwith ("malformed field " ^ name)

let phase_of_json j =
  let ints = function
    | Json.List [ a; b; c ] -> (
      match (Json.to_int a, Json.to_int b, Json.to_int c) with
      | Some a, Some b, Some c -> (a, b, c)
      | _ -> failwith "malformed slice")
    | _ -> failwith "malformed slice"
  in
  {
    lat_ns =
      Array.of_list
        (List.map
           (fun x -> Option.value ~default:nan (Json.to_float x))
           (get Json.to_list "lat_ns" j));
    attempted = get Json.to_int "attempted" j;
    failed = get Json.to_int "failed" j;
    slices = Array.of_list (List.map ints (get Json.to_list "slices" j));
    minor_words = get Json.to_float "minor_words" j;
    major_collections = get Json.to_int "major_collections" j;
    steal_share = get Json.to_float "steal_share" j;
  }

let mean_latency_ms p = Stats.mean p.lat_ns /. 1e6

(* the phases of several program processes as one *)
let merge = function
  | [] -> invalid_arg "merge"
  | ps ->
    let sum f = List.fold_left (fun a p -> a + f p) 0 ps in
    {
      lat_ns = Array.concat (List.map (fun p -> p.lat_ns) ps);
      attempted = sum (fun p -> p.attempted);
      failed = sum (fun p -> p.failed);
      slices = Array.concat (List.map (fun p -> p.slices) ps);
      minor_words = List.fold_left (fun a p -> a +. p.minor_words) 0. ps;
      major_collections = sum (fun p -> p.major_collections);
      steal_share = Stats.mean (Array.of_list (List.map (fun p -> p.steal_share) ps));
    }

(* The end-to-end metrics of an untraced run: one set-up time and one
   timed phase (and peak RSS) per program process. *)
let end_to_end_metrics ~setups_s ~rss_kb phases =
  let p = merge phases in
  let col f = Array.map (fun s -> float_of_int (f s)) p.slices in
  let ops = col (fun (o, _, _) -> o) and ns = col (fun (_, t, _) -> t) in
  let cpu = col (fun (_, _, c) -> c) in
  let p90 =
    match Stats.tail_percentile ~pct:90 p.lat_ns with
    | Some v -> v
    | None -> failwith "too few samples for p90"
  in
  let median xs = Stats.median (Array.of_list xs) in
  ( p,
    [
      ("setup_s", median setups_s);
      ("ops_per_s", 1e9 *. Stats.median_slice_ratio ~num:ops ~den:ns);
      ("latency_p50_ms", Stats.percentile ~pct:50 p.lat_ns /. 1e6);
      ("latency_p90_ms", p90 /. 1e6);
      ("cpu_ms_per_op", Stats.median_slice_ratio ~num:cpu ~den:ops /. 1e6);
      ("peak_rss_mb", median (List.map (fun kb -> float_of_int kb /. 1024.) rss_kb));
    ] )

(* info shared by untraced results *)
let run_info ~setups_s (p : phase) extra =
  Json.Obj
    ([
       ("setup_s_samples", Json.List (List.map (fun s -> Json.Float s) setups_s));
       ("host_steal_share", Json.Float p.steal_share);
     ]
    @ extra)

(* per-layer metrics shared by all traced runs: span self times per op,
   the residual against the untraced phase, and the tracing overhead *)
let fill_span_layers layers ~ops ~e2e_label ~untraced spans =
  let per_op ns = float_of_int ns /. float_of_int (max 1 ops) in
  let self = Spans.self_times spans in
  let attributed_ms =
    List.fold_left
      (fun acc (label, metric, u) ->
        match List.assoc_opt label self with
        | None -> acc
        | Some ns ->
          set_layer layers metric (per_op ns *. scale u);
          (per_op ns /. 1e6) :: acc)
      [] layer_spans
  in
  set_layer layers "serve.unattributed_ms"
    (Stats.residual ~mean_latency:(mean_latency_ms untraced) ~layers_per_op:attributed_ms);
  let e2e_ns = Option.value ~default:0 (List.assoc_opt e2e_label (Spans.total_times spans)) in
  let traced_rate = float_of_int ops /. (float_of_int e2e_ns /. 1e9) in
  let untraced_rate =
    float_of_int untraced.attempted /. (Array.fold_left ( +. ) 0. untraced.lat_ns /. 1e9)
  in
  set_layer layers "trace.ops_per_s_ratio" (traced_rate /. untraced_rate);
  set_layer layers "gc.minor_mwords_per_op"
    (untraced.minor_words /. 1e6 /. float_of_int untraced.attempted);
  set_layer layers "gc.major_collections_per_op"
    (float_of_int untraced.major_collections /. float_of_int untraced.attempted)

let fill_counter_layers layers ~ops counters =
  List.iter
    (fun (name, metric, u) ->
      let v = Option.value ~default:0 (List.assoc_opt name counters) in
      set_layer layers metric (float_of_int v *. scale u /. float_of_int (max 1 ops)))
    layer_counters

let layers_to_json layers =
  Json.Obj (List.map (fun (m, _) -> (m, Json.Float (Hashtbl.find layers m))) per_layer)

let layers_of_json j =
  let layers = new_layers () in
  List.iter (fun (m, _) -> set_layer layers m (get Json.to_float m j)) per_layer;
  layers

(* ------------------------------------------------------------------ *)
(* /proc readers for the program process *)

(* reads to EOF: /proc files report length 0 *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let k = input ic chunk 0 4096 in
        if k > 0 then begin
          Buffer.add_subbytes buf chunk 0 k;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
      in
      go [])

(* VmHWM (peak resident set) in kB *)
let vm_hwm_kb pid =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (read_lines (Printf.sprintf "/proc/%s/status" pid))
  in
  Scanf.sscanf line "VmHWM: %d kB" Fun.id

(* user + system CPU of a whole process (all threads), in ns; /proc counts
   in USER_HZ = 100 ticks per second on Linux *)
let proc_cpu_ns pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  (int_of_string f.(11) + int_of_string f.(12)) * 10_000_000

let self_cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

(* ------------------------------------------------------------------ *)
(* child processes: every one is signalled and reaped before exit *)

let children : int list ref = ref []

let reap pid =
  children := List.filter (( <> ) pid) !children;
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.01;
      wait (tries - 1)
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait tries
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait 1000

let stop_child pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap pid

let () = at_exit (fun () -> List.iter stop_child !children)

(* the environment a program process starts with: the caller's, with every
   REPRO_* knob removed and [set] added *)
let child_env set =
  let keep kv = not (String.length kv >= 6 && String.sub kv 0 6 = "REPRO_") in
  Array.append
    (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) set))

let spawn ?(stdin = Unix.stdin) ?(stdout = Unix.stderr) ~env prog args =
  let pid = Unix.create_process_env prog (Array.of_list (prog :: args)) env stdin stdout Unix.stderr in
  children := pid :: !children;
  pid

(* scratch files of a run live here, inside the checkout *)
let work_dir = ".perfbench"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755

(* ------------------------------------------------------------------ *)
(* environment record *)

let git_commit () =
  let trim = String.trim in
  try
    let head = trim (read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let r = String.sub head 5 (String.length head - 5) in
      if Sys.file_exists (Filename.concat ".git" r) then trim (read_file (Filename.concat ".git" r))
      else
        let line =
          List.find
            (fun l -> Filename.check_suffix l (" " ^ r))
            (read_lines ".git/packed-refs")
        in
        List.hd (String.split_on_char ' ' line)
    end
    else head
  with _ -> "unknown"

(* digest of the program's sources, so results from a checkout without git
   metadata still name the code they measured *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if List.exists (Filename.check_suffix f) [ ".ml"; ".mli"; ".c" ] || f = "dune"
           then [ p ]
           else [])
  in
  let paths = "dune-project" :: (files "lib" @ files "bin") in
  Digest.to_hex
    (Digest.string (String.concat "\000" (List.concat_map (fun p -> [ p; read_file p ]) paths)))

let env_json ~workload ~seed ~seconds ~trace ~repro_domains =
  Json.Obj
    [
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace);
      ("nproc", Json.Int nproc);
      ("repro_domains", Json.String repro_domains);
      ("pinned_cpu", match !pinned_cpu with Some c -> Json.Int c | None -> Json.Null);
      ("ocaml", Json.String Sys.ocaml_version);
      ("git_commit", Json.String (git_commit ()));
      ("source_digest", Json.String (source_digest ()));
    ]

(* The last line of stdout is the result a caller reads; lines before
   it are context for a human (environment, op counts, samples). *)
let print_result ~env ~correct ~attempted ~failed ~info metrics units =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("env", env);
            ( "ops",
              Json.Obj
                [
                  ("attempted", Json.Int attempted);
                  ("succeeded", Json.Int (attempted - failed));
                  ("failed", Json.Int failed);
                  ( "failure_share",
                    Json.Float (Stats.failure_share ~attempted ~failed) );
                ] );
            ("info", info);
          ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v) ->
                     ( name,
                       Json.Obj
                         [ ("value", Json.Float v); ("unit", Json.String (List.assoc name units)) ] ))
                   metrics) );
          ]))
