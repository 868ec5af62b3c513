module G = Repro_graph.Multigraph
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module Pool = Repro_local.Pool
module MP = Repro_local.Message_passing
module Frontier = Repro_local.Frontier
module Audit = Repro_local.Audit
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module DC = Repro_lcl.Distributed_check
module SO = Repro_problems.Sinkless_orientation
module Coloring = Repro_problems.Coloring
module Mis = Repro_problems.Mis
module Luby = Repro_problems.Luby
module LFlood = Repro_linalg.Flood
module Matching = Repro_problems.Matching
module Two = Repro_problems.Two_coloring
module ND = Repro_problems.Network_decomposition
module GL = Repro_gadget.Labels
module Check = Repro_gadget.Check
module Corrupt = Repro_gadget.Corrupt
module V = Repro_gadget.Verifier
module Psi = Repro_gadget.Psi
module NP = Repro_gadget.Ne_psi
module Spec = Repro_padding.Spec
module H = Repro_padding.Hierarchy
module PP = Repro_padding.Pi_prime
module PT = Repro_padding.Padded_types
module Prov = Repro_obs.Provenance

type verdict = (unit, string) result

let known_bugs = [ "so-edge-clause" ]

let planted_bug = ref (Sys.getenv_opt "REPRO_FUZZ_BREAK")

let ( let& ) v f = match v with Ok () -> f () | Error _ as e -> e

let require cond msg = if cond then Ok () else Error msg

let requiref cond fmt = Format.kasprintf (require cond) fmt

(* ------------------------------------------------------------------ *)

let unit_input g = Labeling.const g ~v:() ~e:() ~b:()

let dc_accepts problem inst out =
  (DC.run problem inst ~input:(unit_input inst.Instance.graph) ~output:out)
    .DC.all_accept

let so_solvers (recipe, seed) =
  let g = Gen_graph.to_graph recipe in
  let inst = Instance.create ~seed g in
  let check label (out : SO.output) =
    let& () = requiref (SO.is_valid g out) "%s: sequential checker rejects" label in
    let& () =
      requiref (SO.count_sinks g out = 0) "%s: %d sinks left" label
        (SO.count_sinks g out)
    in
    requiref (dc_accepts SO.problem inst out) "%s: distributed checker rejects"
      label
  in
  let out_d, _ = SO.solve_deterministic inst in
  let& () = check "so-det" out_d in
  let out_r, _ = SO.solve_randomized inst in
  let& () = check "so-rand" out_r in
  let out_w, _ = SO.solve_randomized_frontier inst in
  check "so-wave" out_w

let colorful (recipe, seed) =
  let g = Gen_graph.to_graph recipe in
  let inst = Instance.create ~seed g in
  let delta = G.max_degree g in
  let col, _ = Coloring.solve inst in
  let& () = require (Coloring.is_valid g col) "coloring: sequential checker rejects" in
  let& () =
    require
      (dc_accepts (Coloring.problem ~delta) inst col)
      "coloring: distributed checker rejects"
  in
  let mis, _ = Mis.solve inst in
  let& () = require (Mis.is_valid g mis) "mis: sequential checker rejects" in
  let& () = require (dc_accepts Mis.problem inst mis) "mis: distributed checker rejects" in
  let mat, _ = Matching.solve inst in
  let& () = require (Matching.is_valid g mat) "matching: sequential checker rejects" in
  require (dc_accepts Matching.problem inst mat) "matching: distributed checker rejects"

let two_coloring (recipe, seed) =
  let g = Gen_graph.to_graph recipe in
  let& () = require (Two.is_bipartite g) "generator produced a non-bipartite graph" in
  let inst = Instance.create ~seed g in
  let out, _ = Two.solve inst in
  let& () = require (Two.is_valid g out) "2-coloring: sequential checker rejects" in
  require (dc_accepts Two.problem inst out) "2-coloring: distributed checker rejects"

let decompose (recipe, seed) =
  let g = Gen_graph.to_graph recipe in
  let inst = Instance.create ~seed g in
  let ls = ND.linial_saks inst ~p:0.5 in
  let& () = require (ND.is_valid g ls) "linial-saks decomposition invalid" in
  let gr = ND.greedy inst in
  require (ND.is_valid g gr) "greedy decomposition invalid"

(* ------------------------------------------------------------------ *)
(* checker-vs-checker differential (the planted-bug oracle) *)

let so_seq_problem () =
  match !planted_bug with
  | Some "so-edge-clause" ->
    (* the deliberately broken copy: accepts any edge labeling *)
    { SO.problem with Ne_lcl.check_edge = (fun _ -> true) }
  | _ -> SO.problem

let flip_half (out : SO.output) h =
  let b = Array.copy out.Labeling.b in
  b.(h) <- (match b.(h) with SO.Out -> SO.In | SO.In -> SO.Out);
  { out with Labeling.b }

let dcheck (recipe, seed, mutate) =
  let g = Gen_graph.to_graph recipe in
  let inst = Instance.create ~seed g in
  let out, _ = SO.solve_deterministic inst in
  let out, mutated =
    match mutate with
    | Some h when G.m g > 0 -> (flip_half out (h mod (2 * G.m g)), true)
    | _ -> (out, false)
  in
  let seq_ok =
    Ne_lcl.is_valid (so_seq_problem ()) g ~input:(unit_input g) ~output:out
  in
  let dist_ok = dc_accepts SO.problem inst out in
  let& () =
    requiref (seq_ok = dist_ok)
      "checkers disagree: sequential says %b, distributed says %b" seq_ok dist_ok
  in
  requiref (dist_ok = not mutated)
    "verdict %b but output was %s" dist_ok
    (if mutated then "corrupted" else "produced by the solver")

(* ------------------------------------------------------------------ *)
(* pool-size differential *)

let engines (recipe, seed) =
  let g = Gen_graph.to_graph recipe in
  let inst = Instance.create ~seed g in
  let run () =
    let out, m = SO.solve_deterministic inst in
    let fl = MP.flood_gather inst ~radius:3 (fun v -> v) in
    (out, Meter.max_radius m, Meter.histogram m, fl)
  in
  let saved = Pool.size () in
  Fun.protect
    ~finally:(fun () -> Pool.set_size saved)
    (fun () ->
      Pool.set_size 1;
      let base = run () in
      let rec go = function
        | [] -> Ok ()
        | s :: rest ->
          Pool.set_size s;
          let& () =
            requiref (run () = base) "%d-domain run differs from sequential" s
          in
          go rest
      in
      go [ 2; 4 ])

(* differential for the arena-mailbox engine: MP.run (flat epoch-tagged
   mailboxes, scratch receive buffers) vs MP.run_boxed (the pre-arena
   option-mailbox engine, kept exactly for this oracle). Two algorithms
   so both message representations are exercised: heap payloads (int
   lists) and unboxed-capable ones (floats). *)
let flood_ids_alg : (int list * int, int list, int) MP.algorithm =
  {
    MP.init = (fun inst v -> ([ Instance.id inst v ], 0));
    send = (fun (known, _) ~round:_ ~port:_ -> known);
    receive =
      (fun (known, stable) ~round:_ msgs ->
        let fresh =
          Array.fold_left
            (fun acc l -> List.filter (fun x -> not (List.mem x known)) l @ acc)
            [] msgs
          |> List.sort_uniq compare
        in
        if fresh = [] then Either.Right stable
        else Either.Left (fresh @ known, stable + 1));
  }

let float_sum_alg : (float, float, float) MP.algorithm =
  {
    MP.init = (fun _ v -> float_of_int (v + 1));
    send = (fun x ~round:_ ~port:_ -> x);
    receive =
      (fun x ~round msgs ->
        let s = Array.fold_left ( +. ) x msgs in
        if round >= 2 then Either.Right s else Either.Left s);
  }

let flat_vs_boxed (recipe, seed) =
  let g = Gen_graph.to_graph recipe in
  let inst = Instance.create ~seed g in
  let a = MP.run inst flood_ids_alg in
  let b = MP.run_boxed inst flood_ids_alg in
  let& () = require (a.MP.outputs = b.MP.outputs) "flood outputs differ" in
  let& () = require (a.MP.rounds = b.MP.rounds) "flood per-node rounds differ" in
  let& () =
    requiref
      (a.MP.max_rounds = b.MP.max_rounds)
      "flood max_rounds: flat %d, boxed %d" a.MP.max_rounds b.MP.max_rounds
  in
  let fa = MP.run inst float_sum_alg in
  let fb = MP.run_boxed inst float_sum_alg in
  let& () = require (fa.MP.outputs = fb.MP.outputs) "float outputs differ" in
  require (fa.MP.rounds = fb.MP.rounds) "float per-node rounds differ"

(* differential for the frontier engine: Frontier.run must be
   byte-identical to both flat engines — outputs, per-node round counts
   and max_rounds — at every density threshold (default switch, forced
   always-dense, forced always-sparse) and every pool size. *)
let frontier_vs_flat (recipe, seed) =
  let g = Gen_graph.to_graph recipe in
  let inst = Instance.create ~seed g in
  let n = G.n g in
  let check_alg : type st msg out.
      string -> (st, msg, out) MP.algorithm -> verdict =
   fun label alg ->
    let flat = MP.run inst alg in
    let boxed = MP.run_boxed inst alg in
    let& () =
      requiref
        (flat.MP.outputs = boxed.MP.outputs)
        "%s: flat vs boxed outputs differ" label
    in
    let rec go = function
      | [] -> Ok ()
      | (tname, thr) :: rest ->
        let fr =
          match thr with
          | None -> Frontier.run inst alg
          | Some t -> Frontier.run ~dense_threshold:t inst alg
        in
        let& () =
          requiref
            (fr.Frontier.outputs = flat.MP.outputs)
            "%s/%s: frontier outputs differ" label tname
        in
        let& () =
          requiref
            (fr.Frontier.rounds = flat.MP.rounds)
            "%s/%s: frontier per-node rounds differ" label tname
        in
        let& () =
          requiref
            (fr.Frontier.max_rounds = flat.MP.max_rounds)
            "%s/%s: frontier max_rounds %d, flat %d" label tname
            fr.Frontier.max_rounds flat.MP.max_rounds
        in
        go rest
    in
    go [ ("switch", None); ("dense", Some 0); ("sparse", Some (n + 1)) ]
  in
  let saved = Pool.size () in
  Fun.protect
    ~finally:(fun () -> Pool.set_size saved)
    (fun () ->
      let rec go = function
        | [] -> Ok ()
        | s :: rest ->
          Pool.set_size s;
          let& () = check_alg (Printf.sprintf "ids@%dd" s) flood_ids_alg in
          let& () = check_alg (Printf.sprintf "float@%dd" s) float_sum_alg in
          go rest
      in
      go [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* linalg backend differential *)

(* gather the radius-[radius] ball's ids through the engine proper,
   halting on an explicit hop counter carried in the state (so the
   round-numbering convention cannot skew the comparison) *)
let ball_ids_alg radius : (int list * int, int list, int list) MP.algorithm =
  {
    MP.init = (fun inst v -> ([ Instance.id inst v ], 0));
    send = (fun (known, _) ~round:_ ~port:_ -> known);
    receive =
      (fun (known, hops) ~round:_ msgs ->
        let known =
          List.sort_uniq compare
            (Array.fold_left (fun acc l -> l @ acc) known msgs)
        in
        if hops + 1 >= radius then Either.Right known
        else Either.Left (known, hops + 1));
  }

(* The backend matrix: for every vectorized solver, the linalg run must
   be byte-identical to its engine twin — labelings, meters, verdicts
   and per-round flood output — and the flood knowledge must also agree
   with the same gather executed through MP.run and MP.run_boxed. Swept
   at 1, 2 and 4 domains. *)
let linalg_vs_engine (recipe, seed) =
  let g = Gen_graph.to_graph recipe in
  let inst = Instance.create ~seed g in
  let radius = 3 in
  let once label =
    let ce, me = Coloring.solve inst in
    let cl, ml = Coloring.solve_linalg inst in
    let& () =
      requiref (ce = cl) "%s: coloring backends produce different labels" label
    in
    let& () =
      requiref
        (Meter.max_radius me = Meter.max_radius ml)
        "%s: coloring backends charge different rounds" label
    in
    let ma, mma = Mis.solve inst in
    let mb, mmb = Mis.solve_linalg inst in
    let& () = requiref (ma = mb) "%s: mis backends differ" label in
    let& () =
      requiref
        (Meter.max_radius mma = Meter.max_radius mmb)
        "%s: mis backends charge different rounds" label
    in
    let& () = requiref (Mis.is_valid g mb) "%s: linalg mis invalid" label in
    let la, lma = Luby.solve inst in
    let lb, lmb = Luby.solve_linalg inst in
    let& () = requiref (la = lb) "%s: luby backends differ" label in
    let& () =
      requiref
        (Meter.max_radius lma = Meter.max_radius lmb)
        "%s: luby backends charge different rounds" label
    in
    let& () = requiref (Luby.is_valid g lb) "%s: linalg luby-mis invalid" label in
    let payload v = Instance.id inst v in
    let fe = MP.flood_gather inst ~radius payload in
    let fl = LFlood.gather inst ~radius payload in
    let& () =
      requiref (fe = fl) "%s: flood by_round differs between backends" label
    in
    let derived =
      Array.init (G.n g) (fun v ->
          List.sort_uniq compare
            (payload v :: List.concat (Array.to_list fe.(v))))
    in
    let eng = MP.run inst (ball_ids_alg radius) in
    let boxed = MP.run_boxed inst (ball_ids_alg radius) in
    let& () =
      requiref
        (eng.MP.outputs = boxed.MP.outputs)
        "%s: MP.run vs run_boxed ball ids differ" label
    in
    let& () =
      requiref (eng.MP.outputs = derived)
        "%s: engine-run ball ids differ from flood knowledge" label
    in
    let so_out, _ = SO.solve_deterministic inst in
    let input = unit_input g in
    let va = DC.run SO.problem inst ~input ~output:so_out in
    let vb = DC.run_linalg SO.problem inst ~input ~output:so_out in
    requiref (va = vb) "%s: dcheck verdicts differ between backends" label
  in
  let saved = Pool.size () in
  Fun.protect
    ~finally:(fun () -> Pool.set_size saved)
    (fun () ->
      let rec go = function
        | [] -> Ok ()
        | s :: rest ->
          Pool.set_size s;
          let& () = once (Printf.sprintf "%dd" s) in
          go rest
      in
      go [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* gadget: Check × Verifier × Psi × Ne_psi *)

let bfs_dist g src =
  let n = G.n g in
  let d = Array.make n (-1) in
  let q = Queue.create () in
  d.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun w ->
        if d.(w) < 0 then begin
          d.(w) <- d.(u) + 1;
          Queue.add w q
        end)
      (G.neighbors g u)
  done;
  d

(* GadOk <-> witness *)
let flip_status (o : NP.node_out) =
  {
    o with
    NP.status =
      (match o.NP.status with NP.NOk -> NP.NWit | NP.NPtr _ | NP.NWit -> NP.NOk);
  }

let flip_psi_status (sol : NP.solution) ~site =
  let c = Labeling.copy sol in
  let x = site mod Array.length sol.Labeling.v in
  c.Labeling.v.(x) <- flip_status sol.Labeling.v.(x);
  c

let gadget (case : Gen_gadget.case) =
  let delta = max 1 case.Gen_gadget.delta in
  let t, fault = Gen_gadget.build case in
  let n = G.n t.GL.graph in
  let structurally_valid = Check.is_valid ~delta t in
  let& () =
    requiref
      (structurally_valid = (fault = None))
      "Check says %s but a fault %s planted"
      (if structurally_valid then "valid" else "invalid")
      (if fault = None then "was not" else "was")
  in
  let out, _ = V.run ~delta ~n t in
  let& () =
    requiref
      (Psi.is_valid ~delta t out)
      "verifier output does not satisfy Psi"
  in
  let sol, _ = NP.prove ~delta ~n t in
  let& () =
    requiref (NP.is_valid ~delta t sol) "node-edge proof rejected by Ne_psi"
  in
  let site = match case.Gen_gadget.corruption with Some (_, s) -> s | None -> 0 in
  let& () =
    requiref
      (NP.violations ~delta t (flip_psi_status sol ~site) <> [])
      "Ne_psi accepts a proof with node %d's status flipped" (site mod n)
  in
  match fault with
  | None ->
    requiref (V.is_all_ok out) "verifier claims error on a valid gadget"
  | Some f ->
    let& () =
      requiref (not (V.is_all_ok out)) "verifier claims GadOk on a corrupted gadget"
    in
    (* every Error of the proof must localize the planted fault *)
    let dists = List.map (bfs_dist t.GL.graph) f.Corrupt.f_sites in
    let errors = ref [] in
    Array.iteri (fun v o -> if o = Psi.Error then errors := v :: !errors) out;
    let& () = require (!errors <> []) "corrupted gadget but no Error output" in
    let far =
      List.filter
        (fun v ->
          List.for_all
            (fun d -> d.(v) < 0 || d.(v) > Corrupt.fault_radius)
            dists)
        !errors
    in
    requiref (far = [])
      "Error nodes %s are farther than %d from the fault (%s)"
      (String.concat "," (List.map string_of_int far))
      Corrupt.fault_radius
      (Format.asprintf "%a" Corrupt.pp_fault f)

(* ------------------------------------------------------------------ *)

type padded_corruption = Flip_s | Toggle_perr2 | Swap_eps | Flip_status

let padded_corruptions = [ Flip_s; Toggle_perr2; Swap_eps; Flip_status ]

let pp_padded_corruption fmt k =
  Format.pp_print_string fmt
    (match k with
    | Flip_s -> "flip-s"
    | Toggle_perr2 -> "toggle-perr2"
    | Swap_eps -> "swap-eps"
    | Flip_status -> "flip-status")

let corrupt_padded g kind ~site
    (out : (('vi, 'ei, 'bi, 'vo, 'eo, 'bo) PT.pv_out, unit, PT.pb_out) Labeling.t)
    =
  let c = Labeling.copy out in
  let x = site mod Array.length out.Labeling.v in
  let o = out.Labeling.v.(x) in
  (match kind with
  | Flip_s ->
    let l = o.PT.list_part in
    let s = Array.copy l.PT.s in
    let i = site / Array.length out.Labeling.v mod Array.length s in
    s.(i) <- not s.(i);
    c.Labeling.v.(x) <- { o with PT.list_part = { l with PT.s } }
  | Toggle_perr2 ->
    c.Labeling.v.(x) <-
      {
        o with
        PT.perr =
          (match o.PT.perr with
          | PT.PortErr2 -> PT.NoPortErr
          | PT.PortErr1 | PT.NoPortErr -> PT.PortErr2);
      }
  | Swap_eps ->
    let h = site mod Array.length out.Labeling.b in
    c.Labeling.b.(h) <-
      (match out.Labeling.b.(h) with
      | Some _ -> None
      | None ->
        Some
          {
            NP.mirror = out.Labeling.v.(G.half_node g h).PT.psi_v;
            bad_edge = false;
            color_claim = None;
            to_next = [];
            from_prev = [];
          })
  | Flip_status -> c.Labeling.v.(x) <- { o with PT.psi_v = flip_status o.PT.psi_v });
  c

(* the padded levels, typed (H.level packs them existentially) *)
let pi2 = lazy (PP.pad H.sinkless_orientation)
let pi3 = lazy (PP.pad (Lazy.force pi2))

(* [Spec.run_hard]'s instance and both solver outputs *)
let padded_run (spec : _ Spec.t) ~target ~seed =
  let rng = Random.State.make [| seed |] in
  let g, input = spec.Spec.hard_instance rng ~target in
  let inst = Instance.create ~seed g in
  let out_d, _ = spec.Spec.solve_det inst input in
  let out_r, _ = spec.Spec.solve_rand inst input in
  (g, input, out_d, out_r)

let padding_at spec (target, seed) =
  let g, input, out_d, out_r = padded_run spec ~target ~seed in
  let accepted out = Ne_lcl.violations spec.Spec.problem g ~input ~output:out = [] in
  let& () =
    requiref (accepted out_d) "deterministic padded solution invalid (n=%d)"
      (G.n g)
  in
  let& () =
    requiref (accepted out_r) "randomized padded solution invalid (n=%d)" (G.n g)
  in
  (* each corruption breaks a constraint outright on a hard instance
     (every gadget valid): Σ_list agreement (6), PortErr2 placement (3),
     ε placement (1), the Ψ_G mirror rule (2) *)
  let kind = List.nth padded_corruptions (seed mod 4) and site = seed / 4 in
  requiref
    (not (accepted (corrupt_padded g kind ~site out_d)))
    "padded checker accepts a corrupted output (%a, site %d, n=%d)"
    pp_padded_corruption kind site (G.n g)

let padding (level, target, seed) =
  match level with
  | 2 -> padding_at (Lazy.force pi2) (target, seed)
  | 3 -> padding_at (Lazy.force pi3) (target, seed)
  | _ -> invalid_arg "Oracle.padding: level must be 2 or 3"

let provenance (reg, seed) =
  let g = Gen_graph.to_regular reg in
  let inst = Instance.create ~seed g in
  let out, m = SO.solve_deterministic inst in
  let cert =
    Audit.run_flood ~label:"fuzz-so-det" inst ~declared:(Meter.declared m)
  in
  let& () =
    requiref cert.Prov.c_ok "solver flood certificate failed (%d violations)"
      (List.length cert.Prov.c_violations)
  in
  let verdict, cert2 =
    DC.audited_run ~label:"fuzz-dcheck" SO.problem inst ~input:(unit_input g)
      ~output:out
  in
  let& () = require verdict.DC.all_accept "distributed checker rejects solver output" in
  requiref cert2.Prov.c_ok "checker certificate failed (%d violations)"
    (List.length cert2.Prov.c_violations)
