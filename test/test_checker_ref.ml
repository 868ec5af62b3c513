(* The rewritten padded-hierarchy checkers and Ψ_G prover assembly held
   to the reference copies in checker_ref.ml: identical Ne_lcl violation
   lists on solved and corrupted Π² / Π³ outputs and on Ψ_G proofs of
   valid and corrupted gadgets, and identical prover solutions. The
   cases come from the fuzz generators, so a failure shrinks and prints
   a replay seed. *)

module G = Repro_graph.Multigraph
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module Meter = Repro_local.Meter
module Spec = Repro_padding.Spec
module PP = Repro_padding.Pi_prime
module H = Repro_padding.Hierarchy
module Family = Repro_gadget.Family
module NP = Repro_gadget.Ne_psi
module Gen = Repro_fuzz.Gen
module Prop = Repro_fuzz.Prop
module Oracle = Repro_fuzz.Oracle
module Gen_gadget = Repro_fuzz.Gen_gadget

let ( let& ) v f = match v with Ok () -> f () | Error _ as e -> e
let requiref cond fmt =
  Format.kasprintf (fun s -> if cond then Ok () else Error s) fmt

(* the reference Π' of [spec]: what Pi_prime.pad builds, with the
   reference Ψ_G check in the gadget family *)
let ref_problem (spec : _ Spec.t) =
  let f = Family.log_family ~delta:(PP.delta_of spec) in
  let family =
    { f with Family.ne_problem = Checker_ref.Ne_psi.problem ~delta:f.Family.delta }
  in
  Checker_ref.Pi_prime.problem ~family spec

let so = H.sinkless_orientation
let pi2 = PP.pad so
let pi3 = PP.pad pi2
let ref2 = ref_problem so

(* Π³'s reference nests the reference Π² check in its hypothetical nodes
   and virtual edges *)
let ref3 = ref_problem { pi2 with Spec.problem = ref2 }

let pp_violations vs =
  String.concat "," (List.map (Format.asprintf "%a" Ne_lcl.pp_violation) vs)

let same_violations what ~got ~want =
  requiref (got = want) "%s: rewritten [%s] vs reference [%s]" what
    (pp_violations got) (pp_violations want)

(* every output of the case — both solvers', uncorrupted and with each
   corruption kind at the case's site — judged by both checkers *)
let padded_diff spec reference (target, seed) =
  let g, input, out_d, out_r = Oracle.padded_run spec ~target ~seed in
  let judge what out =
    same_violations what
      ~got:(Ne_lcl.violations spec.Spec.problem g ~input ~output:out)
      ~want:(Ne_lcl.violations reference g ~input ~output:out)
  in
  let rec corrupted solver out = function
    | [] -> Ok ()
    | kind :: rest ->
      let site = seed + List.length rest in
      let& () =
        judge
          (Format.asprintf "%s %a@%d" solver Oracle.pp_padded_corruption kind
             site)
          (Oracle.corrupt_padded g kind ~site out)
      in
      corrupted solver out rest
  in
  let& () = judge "det" out_d in
  let& () = judge "rand" out_r in
  let& () = corrupted "det" out_d Oracle.padded_corruptions in
  corrupted "rand" out_r Oracle.padded_corruptions

let padded_prop =
  Prop.make ~name:"padding-vs-reference"
    ~size_of:(fun (_, target, _) -> target)
    ~show:(fun (l, t, s) -> Printf.sprintf "{level=%d; target=%d; seed=%d}" l t s)
    Gen.(
      let* level = int_range 2 3 in
      let* target = if level >= 3 then int_range 40 90 else int_range 40 160 in
      let* s = int_range 0 9999 in
      return (level, target, s))
    (fun (level, target, seed) ->
      if level = 2 then padded_diff pi2 ref2 (target, seed)
      else padded_diff pi3 ref3 (target, seed))

(* witness-data corruptions of a Ψ_G proof, beyond the status flip: at
   the site's half, and at a half of a witness node if there is one
   (there the GadOk cleanliness rule does not mask the tag rules) *)
let psi_corruptions (sol : NP.solution) ~site =
  let nb = Array.length sol.Labeling.b in
  let rec witness_half h =
    if h >= nb then []
    else
      match sol.Labeling.b.(h).NP.mirror.NP.status with
      | NP.NWit -> [ h ]
      | NP.NOk | NP.NPtr _ -> witness_half (h + 1)
  in
  let chain = { NP.ccolor = 0; cpos = 1; ckind = NP.K2c } in
  let at h (what, f) =
    let c = Labeling.copy sol in
    c.Labeling.b.(h) <- f sol.Labeling.b.(h);
    (Printf.sprintf "%s@%d" what h, c)
  in
  ("status", Oracle.flip_psi_status sol ~site)
  :: List.concat_map
       (fun h ->
         List.map (at h)
           [
             ("bad-edge", fun (o : NP.half_out) -> { o with NP.bad_edge = not o.NP.bad_edge });
             ("claim", fun o -> { o with NP.color_claim = Some site });
             ("to-next", fun o -> { o with NP.to_next = chain :: o.NP.to_next });
             ("from-prev", fun o -> { o with NP.from_prev = chain :: o.NP.from_prev });
           ])
       ((site mod nb) :: witness_half 0)

let equal_arrays a b = Array.length a = Array.length b && Array.for_all2 ( = ) a b

(* witness marks seen across the sweeps (bad edges, color claims, chain
   tags): the prover-equality test must exercise the populated-table
   assembly, not only the clean one *)
let marks = Array.make 3 0

let count_marks (sol : NP.solution) =
  Array.iteri
    (fun k f -> if Array.exists f sol.Labeling.b then marks.(k) <- marks.(k) + 1)
    [|
      (fun (h : NP.half_out) -> h.NP.bad_edge);
      (fun h -> h.NP.color_claim <> None);
      (fun h -> h.NP.to_next <> []);
    |]

let gadget_diff ~delta ~site (t : Repro_gadget.Labels.t) =
  let g = t.Repro_gadget.Labels.graph in
  let n = G.n g in
  let sol, m = NP.prove ~delta ~n t in
  let rsol, rm = Checker_ref.Ne_psi.prove ~delta ~n t in
  let& () =
    requiref
      (equal_arrays sol.Labeling.v rsol.Labeling.v
      && equal_arrays sol.Labeling.e rsol.Labeling.e
      && equal_arrays sol.Labeling.b rsol.Labeling.b)
      "prover solution differs from the reference assembly"
  in
  let& () =
    requiref
      (List.for_all (fun v -> Meter.radius m v = Meter.radius rm v) (List.init n Fun.id))
      "prover meter differs from the reference"
  in
  count_marks sol;
  let input = NP.input_of t in
  let reference = Checker_ref.Ne_psi.problem ~delta in
  let judge (what, out) =
    same_violations what
      ~got:(NP.violations ~delta t out)
      ~want:(Ne_lcl.violations reference g ~input ~output:out)
  in
  List.fold_left
    (fun acc c -> match acc with Ok () -> judge c | Error _ -> acc)
    (judge ("proof", sol))
    (psi_corruptions sol ~site)

let gadget_case_diff (case : Gen_gadget.case) =
  let t, _ = Gen_gadget.build case in
  let site =
    match case.Gen_gadget.corruption with Some (_, s) -> s | None -> case.Gen_gadget.height
  in
  gadget_diff ~delta:(max 1 case.Gen_gadget.delta) ~site t

let gadget_prop =
  Prop.make ~name:"gadget-vs-reference" ~size_of:Gen_gadget.nodes_of
    ~show:(Format.asprintf "%a" Gen_gadget.pp_case)
    (Gen_gadget.gen ~max_delta:4 ~max_height:4 ~corrupted:None ())
    gadget_case_diff

let run_prop ~count prop =
  let r = Prop.run ~count ~seed:20261018 prop in
  match r.Prop.r_failure with
  | None -> ()
  | Some _ -> Alcotest.fail (Format.asprintf "%a" Prop.pp_report r)

let test_padded () = run_prop ~count:40 padded_prop

(* chain tags come only from rules 2c/2d, which the fuzzed corruptions
   of the sweep above do not trip; relabeled halves with truthful flags
   do (the search in test_gadget.ml's chain-proof test) *)
let chain_gadgets () =
  let module B = Repro_gadget.Build in
  let module C = Repro_gadget.Check in
  let module L = Repro_gadget.Labels in
  let rng = Random.State.make [| 47 |] in
  let found = ref [] in
  for _ = 1 to 200 do
    let t =
      L.with_truthful_flags
        (Repro_gadget.Corrupt.apply rng Repro_gadget.Corrupt.Relabel_half
           (B.gadget ~delta:3 ~height:4))
    in
    if
      List.exists
        (fun (v : C.violation) -> v.C.rule = "2c" || v.C.rule = "2d")
        (C.violations ~delta:3 t)
    then found := t :: !found
  done;
  !found

(* A gadget whose only faults are global: two LChild edges of one
   sub-gadget swap parents, then colors and flags are recomputed. Every
   edge still looks right from both ends, so the proof carries chain tags
   (rules 2c/2d) but no bad-edge marks or color claims — the assembly
   path where only the chain tables are populated. *)
let crossed_parents () =
  let module B = Repro_gadget.Build in
  let module L = Repro_gadget.Labels in
  let t = B.gadget ~delta:3 ~height:5 in
  let g = t.L.graph in
  let parent_halves =
    List.filter
      (fun h ->
        let x = G.half_node g h and p = G.half_node g (G.mate h) in
        L.equal_half_label t.L.halves.(h) L.Parent
        && L.equal_half_label t.L.halves.(G.mate h) L.LChild
        && L.has_half t x L.Left && L.has_half t x L.Right
        && L.has_half t p L.Left
        && t.L.nodes.(x).L.kind = L.Index 1)
      (List.init (2 * G.m g) Fun.id)
  in
  (* the first and last candidates: far enough apart that the swap makes
     no parallel edge *)
  match (parent_halves, List.rev parent_halves) with
  | hx :: _, hy :: _ when hx <> hy ->
    let half_node = Array.init (2 * G.m g) (G.half_node g) in
    let hp = G.mate hx and hq = G.mate hy in
    half_node.(hp) <- G.half_node g hq;
    half_node.(hq) <- G.half_node g hp;
    let g' = G.of_half_node ~n:(G.n g) ~m:(G.m g) half_node in
    let colors = B.greedy_distance2_coloring g' in
    L.with_truthful_flags
      {
        t with
        L.graph = g';
        nodes = Array.mapi (fun v nl -> { nl with L.color2 = colors.(v) }) t.L.nodes;
        half_color2 = Array.map (fun v -> colors.(v)) half_node;
      }
  | _ -> Alcotest.fail "no two interior LChild edges found"

let test_gadget () =
  Array.fill marks 0 3 0;
  run_prop ~count:120 gadget_prop;
  List.iteri
    (fun i t ->
      match gadget_diff ~delta:3 ~site:(7 * i) t with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "chain gadget %d: %s" i e))
    (chain_gadgets ());
  let t = crossed_parents () in
  let sol, _ = NP.prove ~delta:3 ~n:(G.n t.Repro_gadget.Labels.graph) t in
  Alcotest.(check bool) "crossed parents: chain tags only" true
    (Array.exists (fun (h : NP.half_out) -> h.NP.to_next <> []) sol.Labeling.b
    && Array.for_all
         (fun (h : NP.half_out) -> (not h.NP.bad_edge) && h.NP.color_claim = None)
         sol.Labeling.b);
  (match gadget_diff ~delta:3 ~site:11 t with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("crossed parents: " ^ e));
  Array.iteri
    (fun k what ->
      Alcotest.(check bool) (what ^ " marks exercised") true (marks.(k) > 0))
    [| "bad-edge"; "color-claim"; "chain-tag" |]

let suite =
  [
    Alcotest.test_case "padded checkers = reference" `Quick test_padded;
    Alcotest.test_case "Ne_psi checks and prover = reference" `Quick test_gadget;
  ]
