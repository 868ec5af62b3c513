(* paper-hierarchy: Theorem 11's experiment in-process. Each op is
   [Spec.run_hard] on Π² or Π³ (Hierarchy.level 2/3) at target 10⁴, over a
   fixed cycle of instance seeds drawn from the run seed. The program
   process is a child with REPRO_DOMAINS=1: it never touches serve, the
   message-passing engine or pool dispatch. *)

open Common
module Spec = Repro_padding.Spec
module Hierarchy = Repro_padding.Hierarchy
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module G = Repro_graph.Multigraph
module Registry = Repro_obs.Registry

let target = 10_000

(* Instance seeds per level in one cycle. Op times differ by up to a third
   between instances, so a run covers many: a 30 s run does not finish one
   cycle, and only the warm-up ops (0 and 1) run twice. *)
let per_level = 64

(* the op list: (level, instance seed), Π² and Π³ alternating *)
let ops ~seed =
  let rng = Random.State.make [| seed; 0x5052 |] in
  Array.init (2 * per_level) (fun i ->
      ((if i mod 2 = 0 then 2 else 3), 1 + Random.State.int rng 1_000_000))

let tag level = Printf.sprintf "pi%d" level

(* [Spec.run_hard] with a span around each [Spec] field it calls *)
let traced_run_hard sp (Spec.Packed spec) ~level ~seed =
  let span label f = Spans.with_span sp label f in
  let tag = tag level in
  let rng = Random.State.make [| seed |] in
  let g, input = span "padding.hard_instance" (fun () -> spec.Spec.hard_instance rng ~target) in
  let inst = Instance.create ~seed g in
  let out_d, m_d = span ("padding.solve_det." ^ tag) (fun () -> spec.Spec.solve_det inst input) in
  let out_r, m_r = span ("padding.solve_rand." ^ tag) (fun () -> spec.Spec.solve_rand inst input) in
  let valid out = span ("lcl.is_valid." ^ tag) (fun () -> Spec.is_valid spec g ~input ~output:out) in
  let det_valid = valid out_d in
  let rand_valid = valid out_r in
  {
    Spec.n = G.n g;
    det_rounds = Meter.max_radius m_d;
    rand_rounds = Meter.max_radius m_r;
    det_valid;
    rand_valid;
  }

(* ------------------------------------------------------------------ *)
(* the program process *)

(* Set-up (levels, heap, one op per level) runs before "ready"; then the
   parent either closes our stdin (exit) or sends "go". The result is one
   JSON line on stdout. *)
let child ~seed ~seconds ~min_ops ~trace =
  let ops = ops ~seed in
  let levels = [| Hierarchy.level 2; Hierarchy.level 3 |] in
  let pi level = levels.(level - 2) in
  (* op index -> stats of its first run; every later run of the same op
     must reproduce them exactly *)
  let first = Hashtbl.create 32 in
  let check i (s : Spec.run_stats) =
    let k = i mod Array.length ops in
    let key = (s.n, s.det_rounds, s.rand_rounds) in
    let same =
      match Hashtbl.find_opt first k with
      | None ->
        Hashtbl.replace first k key;
        true
      | Some key0 -> key0 = key
    in
    s.det_valid && s.rand_valid && same
  in
  let run i =
    let level, seed = ops.(i mod Array.length ops) in
    Spec.run_hard (pi level) ~seed ~target
  in
  for i = 0 to 1 do
    if not (check i (run i)) then failwith "warm-up op failed its checks"
  done;
  print_endline "ready";
  match input_line stdin with
  | exception End_of_file -> exit 0
  | _ ->
    let result =
      if not trace then begin
        let p = run_phase ~min_ops ~cpu:self_cpu_ns ~seconds ~call:run ~check () in
        Json.Obj [ ("phase", phase_to_json p); ("rss_kb", Json.Int (vm_hwm_kb "self")) ]
      end
      else begin
        (* three thirds: untraced, spans only, counters only — so neither
           instrument inflates the other's numbers *)
        let third = seconds /. 3. in
        let untraced = run_phase ~min_ops:10 ~seconds:third ~call:run ~check () in
        let sp = Spans.create ~clock:now_ns in
        let traced =
          run_phase ~min_ops:10 ~seconds:third
            ~call:(fun i ->
              let level, seed = ops.(i mod Array.length ops) in
              Spans.with_span sp "op" (fun () -> traced_run_hard sp (pi level) ~level ~seed))
            ~check ()
        in
        Registry.enable ();
        let counted = run_phase ~min_ops:10 ~seconds:third ~call:run ~check () in
        let counters = Registry.counters () in
        Registry.disable ();
        let spans = Spans.spans sp in
        ensure_work_dir ();
        Spans.write_jsonl
          (Filename.concat work_dir (Printf.sprintf "spans-paper-hierarchy-seed%d.jsonl" seed))
          spans;
        let layers = new_layers () in
        fill_span_layers layers ~ops:traced.attempted ~e2e_label:"op" ~untraced spans;
        fill_counter_layers layers ~ops:counted.attempted counters;
        (* the exact round counts of the first Π² and Π³ op *)
        List.iter
          (fun k ->
            let level, _ = ops.(k) in
            let _, det, rand = Hashtbl.find first k in
            set_layer layers (Printf.sprintf "paper.det_rounds.%s" (tag level)) (float_of_int det);
            set_layer layers (Printf.sprintf "paper.rand_rounds.%s" (tag level)) (float_of_int rand))
          [ 0; 1 ];
        Json.Obj
          [
            ("untraced", phase_to_json untraced);
            ("traced", phase_to_json traced);
            ("counted", phase_to_json counted);
            ("layers", layers_to_json layers);
          ]
      end
    in
    print_endline (Json.to_string result);
    exit 0

(* ------------------------------------------------------------------ *)
(* the parent side *)

type child = { pid : int; from_child : in_channel; to_child : out_channel; setup_ns : int }

let spawn_child ~seed ~seconds ~min_ops ~trace =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let t0 = now_ns () in
  let pid =
    spawn ~stdin:in_r ~stdout:out_w
      ~env:(child_env [ ("REPRO_DOMAINS", "1") ])
      Sys.executable_name
      [
        "--child"; "paper-hierarchy"; "--seed"; string_of_int seed; "--seconds";
        Printf.sprintf "%.17g" seconds; "--min-ops"; string_of_int min_ops; "--trace";
        (if trace then "1" else "0");
      ]
  in
  Unix.close in_r;
  Unix.close out_w;
  let from_child = Unix.in_channel_of_descr out_r in
  let to_child = Unix.out_channel_of_descr in_w in
  (match input_line from_child with
  | "ready" -> ()
  | l -> failwith ("paper-hierarchy child: unexpected " ^ l)
  | exception End_of_file -> failwith "paper-hierarchy child died during set-up");
  { pid; from_child; to_child; setup_ns = now_ns () - t0 }

let dismiss c =
  close_out c.to_child;
  close_in c.from_child;
  reap c.pid

(* "deterministic:  182 rounds (valid=true)" -> 182 *)
let cli_rounds repro ~level ~seed =
  let path = Filename.concat work_dir "hierarchy-cli.txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    spawn ~stdout:fd ~env:(child_env [])
      repro
      [ "hierarchy"; "-i"; string_of_int level; "-t"; string_of_int target; "-s"; string_of_int seed ]
  in
  Unix.close fd;
  reap pid;
  let find prefix =
    let l = List.find (fun l -> String.starts_with ~prefix l) (read_lines path) in
    Scanf.sscanf (String.sub l (String.length prefix) (String.length l - String.length prefix)) " %d" Fun.id
  in
  (find "deterministic:", find "randomized:")

(* set up a child, time it, collect its result line *)
let run_child ~seed ~seconds ~min_ops ~trace =
  let c = spawn_child ~seed ~seconds ~min_ops ~trace in
  output_string c.to_child "go\n";
  flush c.to_child;
  let reply =
    match Json.of_string (input_line c.from_child) with
    | Ok j -> j
    | Error e -> failwith ("paper-hierarchy child: bad result: " ^ e)
  in
  dismiss c;
  (float_of_int c.setup_ns /. 1e9, reply)

let run ~repro ~seed ~seconds ~trace ~processes =
  ensure_work_dir ();
  if not trace then begin
    let runs =
      List.init processes (fun _ ->
          run_child ~seed ~seconds:(seconds /. float_of_int processes)
            ~min_ops:(min_ops_each processes)
            ~trace)
    in
    let setups_s = List.map fst runs in
    let p, metrics =
      end_to_end_metrics ~setups_s
        ~rss_kb:(List.map (fun (_, r) -> get Json.to_int "rss_kb" r) runs)
        (List.map (fun (_, r) -> phase_of_json (get Option.some "phase" r)) runs)
    in
    (p.attempted, p.failed, p.failed = 0, metrics, run_info ~setups_s p [])
  end
  else begin
    let _, reply = run_child ~seed ~seconds ~min_ops:10 ~trace in
    let u = phase_of_json (get Option.some "untraced" reply) in
    let t = phase_of_json (get Option.some "traced" reply) in
    let c = phase_of_json (get Option.some "counted" reply) in
    let layers = layers_of_json (get Option.some "layers" reply) in
    (* the sentinel counts must be what the CLI prints for the same
       level, target and seed; pinning one domain must keep the pool
       from ever dispatching *)
    let anchors_ok =
      List.for_all
        (fun k ->
          let level, iseed = (ops ~seed).(k) in
          let det, rand = cli_rounds repro ~level ~seed:iseed in
          float_of_int det = Hashtbl.find layers (Printf.sprintf "paper.det_rounds.%s" (tag level))
          && float_of_int rand
             = Hashtbl.find layers (Printf.sprintf "paper.rand_rounds.%s" (tag level)))
        [ 0; 1 ]
    in
    let pool_idle = Hashtbl.find layers "local.pool.jobs_per_op" = 0. in
    let attempted = u.attempted + t.attempted + c.attempted in
    let failed = u.failed + t.failed + c.failed in
    let metrics = List.map (fun (m, _) -> (m, Hashtbl.find layers m)) per_layer in
    let anchors =
      Json.List
        (List.map
           (fun k ->
             let level, iseed = (ops ~seed).(k) in
             Json.Obj [ ("level", Json.Int level); ("target", Json.Int target); ("seed", Json.Int iseed) ])
           [ 0; 1 ])
    in
    let info =
      Json.Obj
        [
          ("round_anchors", anchors);
          ("anchors_match_cli", Json.Bool anchors_ok);
          ("pool_never_dispatched", Json.Bool pool_idle);
          ("untraced_ops", Json.Int u.attempted);
          ("traced_ops", Json.Int t.attempted);
          ("counted_ops", Json.Int c.attempted);
        ]
    in
    (attempted, failed, failed = 0 && anchors_ok && pool_idle, metrics, info)
  end
