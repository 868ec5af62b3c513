(* serve-cold and serve-warm: a spawned `repro serve` daemon with
   REPRO_DOMAINS=1, driven by this process over one closed-loop Unix-socket
   connection, both pinned to the same CPU. The daemon receives only the
   requests; everything derived from the seed is generated here.

   One domain and one CPU keep the host's scheduling out of the numbers:
   at the default pool size on a 2-vCPU host, every parallel round waited
   for whichever vCPU the hypervisor had descheduled, and every request
   and reply woke an idle vCPU. Identical code then spread by more than
   half its median from run to run (see README.md). *)

open Common
module Server = Repro_serve.Server
module Client = Repro_serve.Client
module Protocol = Repro_serve.Protocol
module Cache = Repro_serve.Cache
module Scheduler = Repro_serve.Scheduler
module SO = Repro_problems.Sinkless_orientation
module Catalog = Repro_problems.Solver_catalog
module DC = Repro_lcl.Distributed_check
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module Pool = Repro_local.Pool

let n = 20_000

type kind =
  | So_solve of string  (** so-det / so-rand / so-wave *)
  | So_check  (** check so-det: reuses the instance its solve built *)
  | Catalog_solve of string * Repro_local.Backend.t

type req = { kind : kind; seed : int; json : Json.t }

(* One group of the mix; every request in it shares [seed]. Engine and
   linalg twins sit next to each other so their digests can be compared. *)
let group seed =
  let base = [ ("n", Json.Int n); ("seed", Json.Int seed) ] in
  let so p = { kind = So_solve p; seed; json = Json.Obj ([ ("op", Json.String "solve"); ("problem", Json.String p) ] @ base) } in
  let cat p b =
    {
      kind = Catalog_solve (p, b);
      seed;
      json =
        Json.Obj
          ([
             ("op", Json.String "solve");
             ("problem", Json.String p);
             ("backend", Json.String (Repro_local.Backend.to_string b));
           ]
          @ base);
    }
  in
  [ so "so-det"; so "so-rand"; so "so-wave";
    { kind = So_check; seed; json = Json.Obj ([ ("op", Json.String "check"); ("problem", Json.String "so-det") ] @ base) } ]
  @ List.concat_map (fun p -> [ cat p `Engine; cat p `Linalg ]) [ "mis"; "luby-mis"; "coloring"; "dcheck" ]
  |> Array.of_list

let group_size = Array.length (group 0)

(* seeds of the timed groups count up from [base]; warm-up and working-set
   groups count down from [base - 1], so no timed request repeats one *)
let base_seed seed = 1_000 + Random.State.int (Random.State.make [| seed; 0x5356 |]) 1_000_000

(* serve-cold's op list: group after group, never repeating a request *)
let cold_op ~seed i = (group (base_seed seed + (i / group_size))).(i mod group_size)

(* serve-cold's warm-up: one group of the mix, then so-rand solves on fresh
   seeds until the daemon's 32-entry instance cache is full, so peak RSS
   does not grow with the number of groups a run gets through *)
let instance_cache_capacity = 32

let cold_warm_up ~seed =
  let b = base_seed seed in
  Array.append
    (group (b - 1))
    (Array.init (instance_cache_capacity - 1) (fun j -> (group (b - 10 - j)).(1)))

(* serve-warm's working set: two groups of the cold mix in a seeded order;
   24 entries, well inside the daemon's 256-entry reply cache *)
let working_set ~seed =
  let ws = Array.append (group (base_seed seed - 2)) (group (base_seed seed - 3)) in
  let rng = Random.State.make [| seed; 0x5757 |] in
  for i = Array.length ws - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = ws.(i) in
    ws.(i) <- ws.(j);
    ws.(j) <- t
  done;
  ws

(* ------------------------------------------------------------------ *)
(* reply checks *)

let field name conv r = Option.bind (Json.member name r) conv
let is_true name r = field name Json.to_bool r = Some true

(* Validity of one reply on its own. [digests] remembers each catalog
   reply's output digest by (problem, seed, backend): engine and linalg
   twins must carry the same one. *)
let valid_reply digests req r =
  is_true "ok" r
  &&
  match req.kind with
  | So_solve _ -> is_true "valid" r && field "sinks" Json.to_int r = Some 0
  | So_check -> is_true "all_accept" r && field "rejecting_nodes" Json.to_int r = Some 0
  | Catalog_solve (p, b) -> (
    is_true "valid" r
    &&
    match field "output_digest" Json.to_str r with
    | None -> false
    | Some d -> (
      Hashtbl.replace digests (p, req.seed, b) d;
      let twin = if b = `Engine then `Linalg else `Engine in
      match Hashtbl.find_opt digests (p, req.seed, twin) with
      | None -> true
      | Some d' -> d = d'))

let without_cache = function
  | Json.Obj fs -> Json.Obj (List.filter (fun (k, _) -> k <> "cache") fs)
  | j -> j

(* ------------------------------------------------------------------ *)
(* the daemon *)

type daemon = { pid : int; conn : Client.t; setup_ns : int }

let cache_counts stats name =
  let c =
    List.find
      (fun c -> field "name" Json.to_str c = Some name)
      (Option.value ~default:[] (field "caches" Json.to_list stats))
  in
  (Option.get (field "hits" Json.to_int c), Option.get (field "misses" Json.to_int c))

let stats d = Client.call d.conn (Json.Obj [ ("op", Json.String "stats") ])

let connect_when_up ~pid addr =
  let give_up = now_ns () + 20_000_000_000 in
  let rec go () =
    match Client.connect addr with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "repro serve exited during start-up");
      if now_ns () > give_up then failwith "repro serve did not come up";
      Unix.sleepf 0.001;
      go ()
  in
  go ()

(* Spawn a daemon and run [warm_up] on its connection; set-up time runs
   from the spawn until the warm-up is done. *)
let start_daemon ~repro ~index ~warm_up =
  ensure_work_dir ();
  let sock = Filename.concat work_dir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) index) in
  let log = Unix.openfile (Filename.concat work_dir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let t0 = now_ns () in
  let pid = spawn ~stdout:log ~env:(child_env [ ("REPRO_DOMAINS", "1") ]) repro [ "serve"; "--socket"; sock ] in
  Unix.close log;
  let conn = connect_when_up ~pid (Server.Unix_path sock) in
  warm_up conn;
  { pid; conn; setup_ns = now_ns () - t0 }

let stop_daemon d =
  Client.close d.conn;
  stop_child d.pid

(* set-up requests must pass the same checks as timed ones *)
let call_valid digests conn req =
  let r = Client.call conn req.json in
  if not (valid_reply digests req r) then failwith ("set-up request failed: " ^ Json.to_string r);
  r

(* ------------------------------------------------------------------ *)
(* in-process replicas of the daemon's handlers, for the traced run: the
   same public calls [Server] makes for each op, each under its layer's
   span. They also re-derive the reply's verdicts. *)

type replica = {
  sp : Spans.t;
  sched : Scheduler.t;
  mutable instance : (int * Repro_graph.Multigraph.t) option;  (** last built, by seed *)
}

let replica_cold rp req reply =
  let span label f = Spans.with_span rp.sp label f in
  let graph () =
    match rp.instance with
    | Some (s, g) when s = req.seed -> g
    | _ ->
      let g =
        span "graph.hard_instance" (fun () -> SO.hard_instance (Random.State.make [| req.seed |]) ~n)
      in
      rp.instance <- Some (req.seed, g);
      g
  in
  let agrees name v = field name Json.to_int reply = Some v in
  let ok =
    match req.kind with
    | So_solve p ->
      let g = graph () in
      let inst = Instance.create ~seed:req.seed g in
      let solver, label =
        match p with
        | "so-det" -> (SO.solve_deterministic, "problems.so_det")
        | "so-rand" -> (SO.solve_randomized, "problems.so_rand")
        | _ -> ((fun i -> SO.solve_randomized_frontier i), "problems.so_wave")
      in
      span label (fun () ->
          let out, meter = solver inst in
          SO.is_valid g out && agrees "sinks" (SO.count_sinks g out)
          && agrees "rounds" (Meter.max_radius meter))
    | So_check ->
      let g = graph () in
      let inst = Instance.create ~seed:req.seed g in
      let out, _ = span "problems.so_det" (fun () -> SO.solve_deterministic inst) in
      let v = span "lcl.dcheck" (fun () -> DC.run SO.problem inst ~input:(SO.trivial_input g) ~output:out) in
      v.DC.all_accept && agrees "checker_rounds" v.DC.rounds
    | Catalog_solve (p, backend) ->
      let entry = Option.get (Catalog.find p) in
      let label = if backend = `Engine then "problems.catalog_engine" else "linalg.catalog" in
      let s = span label (fun () -> entry.Catalog.c_solve ~backend ~seed:req.seed ~n) in
      s.Catalog.s_valid
      && field "output_digest" Json.to_str reply = Some (Digest.to_hex (Digest.string s.Catalog.s_output))
  in
  (* the hand-off every scheduled request makes, with an empty job *)
  span "serve.scheduler" (fun () ->
      match Scheduler.submit rp.sched (fun ~queue_ns:_ -> Json.Null) with
      | `Accepted t -> ignore (Scheduler.wait t)
      | `Busy | `Shutdown -> failwith "replica scheduler refused a job");
  ok

(* framing, hashing and the cache read of one hit, on a socketpair and an
   in-process cache primed with the working set *)
let replica_warm rp ~pair:(a, b) ~cache req reply =
  let span label f = Spans.with_span rp.sp label f in
  let echoed =
    span "serve.protocol" (fun () ->
        Protocol.write_frame a req.json;
        let got_req = Protocol.read_frame b in
        Protocol.write_frame b reply;
        (got_req, Protocol.read_frame a))
  in
  let hash = span "serve.hash" (fun () -> Protocol.request_hash req.json) in
  let hit, cached = span "serve.cache" (fun () -> Cache.find_or_add cache hash (fun () -> Json.Null)) in
  echoed = (Ok req.json, Ok reply) && hit && cached = reply

(* ------------------------------------------------------------------ *)

(* A hit replays the telemetry of the request that filled the cache; only
   a miss did the work its telemetry describes. *)
let telemetry_sum acc r =
  match (field "cache" Json.to_str r, Json.member "telemetry" r) with
  | Some "miss", Some (Json.Obj fs) ->
    List.iter
      (fun (k, v) ->
        match Json.to_int v with
        | Some v -> Hashtbl.replace acc k (v + Option.value ~default:0 (Hashtbl.find_opt acc k))
        | None -> ())
      fs
  | _ -> ()

let run ~repro ~workload ~seed ~seconds ~trace ~processes:k =
  (* before any daemon or thread starts, so that all of them inherit it *)
  pin_to_one_cpu ();
  let cold = workload = "serve-cold" in
  (* primed replies of the working set, without their cache field *)
  let primed = Hashtbl.create 32 in
  let ws = working_set ~seed in
  let warm_up conn =
    let call = call_valid (Hashtbl.create 32) conn in
    if cold then Array.iter (fun r -> ignore (call r)) (cold_warm_up ~seed)
    else Array.iter (fun r -> Hashtbl.replace primed r.json (without_cache (call r))) ws
  in
  let op i = if cold then cold_op ~seed i else ws.(i mod Array.length ws) in
  let digests = Hashtbl.create 64 in
  let check_reply req r =
    field "cache" Json.to_str r = Some (if cold then "miss" else "hit")
    && valid_reply digests req r
    && (cold || Hashtbl.find_opt primed req.json = Some (without_cache r))
  in
  (* the daemon's own cache counters must agree with what was sent *)
  let cache_delta d f =
    let s0 = stats d in
    let v = f () in
    let s1 = stats d in
    let delta name =
      let h0, m0 = cache_counts s0 name and h1, m1 = cache_counts s1 name in
      (h1 - h0, m1 - m0)
    in
    (v, delta)
  in
  let expected_replies ops (hits, misses) = if cold then hits = 0 && misses = ops else hits = ops && misses = 0 in
  if not trace then begin
    (* k daemons one after another, each set up and then timed for a k-th
       of the run; serve-cold's op list carries on where the last one
       stopped *)
    let ops_done = ref 0 in
    let runs =
      List.init k (fun index ->
          let d = start_daemon ~repro ~index ~warm_up in
          let offset = !ops_done in
          let p, delta =
            cache_delta d (fun () ->
                run_phase ~min_ops:(min_ops_each k)
                  ~cpu:(fun () -> proc_cpu_ns d.pid)
                  ~seconds:(seconds /. float_of_int k)
                  ~call:(fun i ->
                    let req = op (offset + i) in
                    (req, Client.call d.conn req.json))
                  ~check:(fun _ (req, r) -> check_reply req r)
                  ())
          in
          ops_done := offset + p.attempted;
          let rss_kb = vm_hwm_kb (string_of_int d.pid) in
          stop_daemon d;
          (float_of_int d.setup_ns /. 1e9, p, rss_kb, expected_replies p.attempted (delta "replies")))
    in
    let setups_s = List.map (fun (s, _, _, _) -> s) runs in
    let p, metrics =
      end_to_end_metrics ~setups_s
        ~rss_kb:(List.map (fun (_, _, r, _) -> r) runs)
        (List.map (fun (_, p, _, _) -> p) runs)
    in
    let replies_ok = List.for_all (fun (_, _, _, ok) -> ok) runs in
    ( p.attempted,
      p.failed,
      p.failed = 0 && replies_ok,
      metrics,
      run_info ~setups_s p [ ("reply_cache_counts_match", Json.Bool replies_ok) ] )
  end
  else begin
    (* untraced phase on one daemon, then the same op list replayed traced
       on a fresh one, so serve-cold's replay still misses every cache *)
    let d = start_daemon ~repro ~index:0 ~warm_up in
    let untraced =
      run_phase ~min_ops:10 ~seconds:(seconds /. 2.)
        ~call:(fun i ->
          let req = op i in
          (req, Client.call d.conn req.json))
        ~check:(fun _ (req, r) -> check_reply req r)
        ()
    in
    stop_daemon d;
    Hashtbl.reset digests;
    let d = start_daemon ~repro ~index:1 ~warm_up in
    (* the replicas use the daemon's pool size *)
    Pool.set_size 1;
    let sched = Scheduler.create () in
    let pair = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let cache = Cache.create ~capacity:256 "replies" in
    if cold then begin
      (* the replicas warm up too (pool spawn, dispatch calibration), on
         the warm-up group and without keeping spans *)
      let scratch = { sp = Spans.create ~clock:now_ns; sched; instance = None } in
      Array.iter (fun r -> ignore (replica_cold scratch r Json.Null)) (group (base_seed seed - 1))
    end
    else
      Array.iter
        (fun r ->
          ignore (Cache.find_or_add cache (Protocol.request_hash r.json) (fun () -> Client.call d.conn r.json)))
        ws;
    let rp = { sp = Spans.create ~clock:now_ns; sched; instance = None } in
    let telemetry = Hashtbl.create 32 in
    let traced, delta =
      cache_delta d (fun () ->
          run_phase ~min_ops:10 ~max_ops:20_000 ~seconds:(seconds /. 2.)
            ~call:(fun i ->
              let req = op i in
              Spans.with_span rp.sp "op" (fun () ->
                  let r = Spans.with_span rp.sp "serve.call" (fun () -> Client.call d.conn req.json) in
                  let replica_ok =
                    if cold then replica_cold rp req r else replica_warm rp ~pair ~cache req r
                  in
                  (req, r, replica_ok)))
            ~check:(fun _ (req, r, replica_ok) ->
              telemetry_sum telemetry r;
              check_reply req r && replica_ok)
            ())
    in
    stop_daemon d;
    Scheduler.shutdown sched;
    Unix.close (fst pair);
    Unix.close (snd pair);
    let spans = Spans.spans rp.sp in
    Spans.write_jsonl
      (Filename.concat work_dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed))
      spans;
    let layers = new_layers () in
    fill_span_layers layers ~ops:traced.attempted ~e2e_label:"serve.call" ~untraced spans;
    fill_counter_layers layers ~ops:traced.attempted
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) telemetry []);
    let reply_hits, reply_misses = delta "replies" in
    let inst_hits, inst_misses = delta "instances" in
    set_layer layers "serve.reply_cache_hit_ratio" (Stats.hit_ratio ~hits:reply_hits ~misses:reply_misses);
    set_layer layers "serve.instance_cache_hit_ratio" (Stats.hit_ratio ~hits:inst_hits ~misses:inst_misses);
    let replies_ok = expected_replies traced.attempted (reply_hits, reply_misses) in
    let attempted = untraced.attempted + traced.attempted in
    let failed = untraced.failed + traced.failed in
    let info =
      Json.Obj
        [
          ("reply_cache_counts_match", Json.Bool replies_ok);
          ("untraced_ops", Json.Int untraced.attempted);
          ("traced_ops", Json.Int traced.attempted);
        ]
    in
    ( attempted,
      failed,
      failed = 0 && replies_ok,
      List.map (fun (m, _) -> (m, Hashtbl.find layers m)) per_layer,
      info )
  end
