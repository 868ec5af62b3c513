module G = Repro_graph.Multigraph
module T = Repro_graph.Traversal
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module Meter = Repro_local.Meter
open Labels

type chain_kind = K2c | K2d

let chain_last = function K2c -> 3 | K2d -> 4

let chain_step k pos =
  match (k, pos) with
  | K2c, 0 -> LChild
  | K2c, 1 -> Right
  | K2c, 2 -> Parent
  | K2d, 0 -> Right
  | K2d, 1 -> LChild
  | K2d, 2 -> Left
  | K2d, 3 -> Parent
  | (K2c | K2d), _ -> invalid_arg "Ne_psi.chain_step"

type chain_id = { ccolor : int; cpos : int; ckind : chain_kind }

type status = NOk | NPtr of Psi.pointer | NWit

type node_out = { status : status; chains : chain_id list }

type half_in = { bl : half_label; bcolor : int; bflags : half_flags }

type half_out = {
  mirror : node_out;
  bad_edge : bool;
  color_claim : int option;
  to_next : chain_id list;
  from_prev : chain_id list;
}

type problem_t =
  (node_label, unit, half_in, node_out, unit, half_out) Ne_lcl.t

type solution = (node_out, unit, half_out) Labeling.t

(* ------------------------------------------------------------------ *)
(* Input-visible violation predicates                                 *)
(* ------------------------------------------------------------------ *)

let is_subgadget_label = function
  | Parent | LChild | RChild | Left | Right -> true
  | Up | Down _ -> false

(* A violation visible from one node's own input labels. *)
let node_input_bad ~delta (v_in : node_label) (b_in : half_in array) =
  let labels = Array.map (fun b -> b.bl) b_in in
  let has l = Array.exists (fun l' -> l' = l) labels in
  let dup =
    let s = Array.copy labels in
    Array.sort compare s;
    let d = ref false in
    for i = 1 to Array.length s - 1 do
      if s.(i) = s.(i - 1) then d := true
    done;
    !d
  in
  let flags =
    {
      f_right = has Right;
      f_left = has Left;
      f_child = has LChild || has RChild;
    }
  in
  let flags_lie = Array.exists (fun b -> b.bflags <> flags) b_in in
  let color_lie = Array.exists (fun b -> b.bcolor <> v_in.color2) b_in in
  dup || flags_lie || color_lie
  ||
  match v_in.kind with
  | Center ->
    Array.length b_in <> delta
    || v_in.port <> None
    || Array.exists (fun b -> match b.bl with Down _ -> false | _ -> true) b_in
  | Index i -> (
    (match v_in.port with Some j -> j <> i | None -> false)
    (* 1c, node-visible part: Down labels only occur at the center *)
    || Array.exists (fun b -> match b.bl with Down _ -> true | _ -> false) b_in
    (* 3e: no Right and no Left means root shape *)
    || ((not (has Right)) && (not (has Left))
       && not
            (has LChild && has RChild
            && Array.for_all
                 (fun l ->
                   match l with
                   | LChild | RChild | Up -> true
                   | Parent | Left | Right | Down _ -> false)
                 labels))
    (* 3f *)
    || has RChild <> has LChild
    (* 3h *)
    || (v_in.port <> None)
       <> ((not (has Right)) && (not (has LChild)) && not (has RChild))
    (* §4.3 c1, node-visible part: a sub-gadget node hangs on a parent or
       on the center *)
    || ((not (has Parent)) && not (has Up)))

(* A violation visible from one edge's input labels (both sides). *)
let edge_input_bad (u_in : node_label) (w_in : node_label) (bu : half_in)
    (bw : half_in) =
  let dir lu (uk : node_kind) (wk : node_kind) lw (fu : half_flags)
      (fw : half_flags) =
    match lu with
    | Left -> lw <> Right || uk = Center || wk = Center
    | Right -> lw <> Left || uk = Center || wk = Center
    | LChild | RChild -> lw <> Parent || uk = Center || wk = Center
    | Parent ->
      lw <> RChild && lw <> LChild
      || uk = Center || wk = Center
      (* 3a / 3b via replicated flags: w is u's parent *)
      || (not fu.f_right) <> ((not fw.f_right) && lw = RChild)
      || (not fu.f_left) <> ((not fw.f_left) && lw = LChild)
    | Up -> wk <> Center
    | Down i -> (
      uk <> Center || lw <> Up
      || match wk with Index j -> j <> i | Center -> true)
  in
  let index_mismatch lu uk wk =
    is_subgadget_label lu
    &&
    match (uk, wk) with
    | Index i, Index j -> i <> j
    | (Center | Index _), _ -> uk = Center || wk = Center
  in
  let bottom lu (fu : half_flags) (fw : half_flags) =
    (* 3g: a childless node's horizontal neighbors are childless *)
    (lu = Left || lu = Right) && (not fu.f_child) && fw.f_child
  in
  u_in.color2 = w_in.color2
  || dir bu.bl u_in.kind w_in.kind bw.bl bu.bflags bw.bflags
  || dir bw.bl w_in.kind u_in.kind bu.bl bw.bflags bu.bflags
  || index_mismatch bu.bl u_in.kind w_in.kind
  || index_mismatch bw.bl w_in.kind u_in.kind
  || bottom bu.bl bu.bflags bw.bflags
  || bottom bw.bl bw.bflags bu.bflags

(* ------------------------------------------------------------------ *)
(* The ne-LCL                                                          *)
(* ------------------------------------------------------------------ *)

(* The two checks below run once per node and once per edge of every
   padded instance Π' validates, so they follow the checker hot-path rules
   (DESIGN.md, "The checker hot path"): no closures or lists built on the
   clean path, labels compared by [match], and node outputs compared
   [==]-then-[=] — the prover shares one [node_out] per node between the
   node slot and every mirror, so valid outputs never reach the structural
   walk. Every sub-predicate is still evaluated in the original order, so
   the verdict (and any exception a malformed chain tag raises) is that
   of the plain definition kept in test/checker_ref.ml. *)

let chain_mem c chains = List.mem c chains

let is_nok = function NOk -> true | NPtr _ | NWit -> false
let same_out (a : node_out) (b : node_out) = a == b || a = b

let half_clean h =
  (not h.bad_edge)
  && (match h.color_claim with None -> true | Some _ -> false)
  && (match h.to_next with [] -> true | _ :: _ -> false)
  && match h.from_prev with [] -> true | _ :: _ -> false

(* examines every tag, even after a failure: [chain_step] raises on a
   malformed tag, and the definition raises wherever such a tag sits *)
let rec to_next_tags_ok chains (bl : half_label) ok = function
  | [] -> ok
  | c :: rest ->
    let bad =
      (not (chain_mem c chains))
      || c.cpos >= chain_last c.ckind
      || not (equal_half_label bl (chain_step c.ckind c.cpos))
    in
    to_next_tags_ok chains bl (ok && not bad) rest

let rec from_prev_tags_ok chains ok = function
  | [] -> ok
  | c :: rest ->
    let bad = (not (chain_mem c chains)) || c.cpos = 0 in
    from_prev_tags_ok chains (ok && not bad) rest

let has_label (inputs : half_in array) l =
  let d = Array.length inputs in
  let k = ref 0 in
  while !k < d && not (equal_half_label inputs.(!k).bl l) do
    incr k
  done;
  !k < d

let check_node ~delta (nv : (node_label, unit, half_in, node_out, unit, half_out) Ne_lcl.node_view) =
  let out = nv.v_out in
  let halves = nv.b_out in
  let inputs = nv.b_in in
  let d = Array.length halves in
  let mirrors_ok =
    let k = ref 0 in
    while !k < d && same_out halves.(!k).mirror out do
      incr k
    done;
    !k = d
  in
  let ok_clean =
    (not (is_nok out.status))
    || (match out.chains with [] -> true | _ :: _ -> false)
       &&
       let k = ref 0 in
       while !k < d && half_clean halves.(!k) do
         incr k
       done;
       !k = d
  in
  (* chain well-formedness *)
  let chains_ok =
    match out.chains with
    | [] -> true
    | chains ->
      let count f =
        Array.fold_left (fun acc h -> if f h then acc + 1 else acc) 0 halves
      in
      List.for_all
        (fun c ->
          let cont =
            c.cpos >= chain_last c.ckind
            || count (fun i -> List.mem c i.to_next) = 1
          in
          let prev =
            c.cpos = 0 || count (fun i -> List.mem c i.from_prev) = 1
          in
          cont && prev)
        chains
  in
  let tags_ok =
    let ok = ref true in
    for idx = 0 to d - 1 do
      let h = halves.(idx) in
      ok := to_next_tags_ok out.chains inputs.(idx).bl !ok h.to_next;
      ok := from_prev_tags_ok out.chains !ok h.from_prev
    done;
    !ok
  in
  (* pointer well-formedness *)
  let ptr_ok =
    match out.status with
    | NPtr Psi.PRight -> has_label inputs Right
    | NPtr Psi.PLeft -> has_label inputs Left
    | NPtr Psi.PParent -> has_label inputs Parent
    | NPtr Psi.PRChild -> has_label inputs RChild
    | NPtr Psi.PUp ->
      (match nv.v_in.kind with Center -> false | Index _ -> true)
      && has_label inputs Up
    | NPtr (Psi.PDown i) ->
      (match nv.v_in.kind with Center -> true | Index _ -> false)
      && has_label inputs (Down i)
    | NOk | NWit -> true
  in
  (* witness justification *)
  let justified =
    match out.status with
    | NWit ->
      node_input_bad ~delta nv.v_in inputs
      || Array.exists (fun h -> h.bad_edge) halves
      || (let claims =
            Array.to_list halves |> List.filter_map (fun h -> h.color_claim)
          in
          let sorted = List.sort compare claims in
          let rec dup = function
            | a :: (b :: _ as r) -> a = b || dup r
            | _ -> false
          in
          dup sorted)
      || List.exists
           (fun c ->
             c.cpos = chain_last c.ckind
             && not
                  (chain_mem
                     { c with cpos = 0 }
                     out.chains))
           out.chains
      || List.exists
           (fun c ->
             c.cpos = 0
             && not
                  (chain_mem
                     { c with cpos = chain_last c.ckind }
                     out.chains))
           out.chains
    | NOk | NPtr _ -> true
  in
  mirrors_ok && ok_clean && chains_ok && tags_ok && ptr_ok && justified

(* stop at the first failing tag: the definition never reaches (so
   never raises on) the tags after it *)
let rec to_next_edge_ok (lsrc : half_label) (far : node_out) = function
  | [] -> true
  | c :: rest ->
    equal_half_label lsrc (chain_step c.ckind c.cpos)
    && chain_mem { c with cpos = c.cpos + 1 } far.chains
    && to_next_edge_ok lsrc far rest

let rec from_prev_edge_ok (lfar : half_label) (far : node_out) = function
  | [] -> true
  | c :: rest ->
    equal_half_label lfar (chain_step c.ckind (c.cpos - 1))
    && chain_mem { c with cpos = c.cpos - 1 } far.chains
    && from_prev_edge_ok lfar far rest

let check_edge (ev : (node_label, unit, half_in, node_out, unit, half_out) Ne_lcl.edge_view) =
  let mirrors =
    same_out ev.bu_out.mirror ev.u_out && same_out ev.bw_out.mirror ev.w_out
  in
  let mix = is_nok ev.u_out.status = is_nok ev.w_out.status in
  let ptr_rule (src : node_out) (src_in : node_label) (lsrc : half_label)
      (dst : node_out) =
    match src.status with
    | NOk | NWit -> true
    | NPtr p -> (
      let applies =
        match (p, lsrc) with
        | Psi.PRight, Right
        | Psi.PLeft, Left
        | Psi.PParent, Parent
        | Psi.PRChild, RChild
        | Psi.PUp, Up -> true
        | Psi.PDown i, Down j -> i = j
        | ( ( Psi.PRight | Psi.PLeft | Psi.PParent | Psi.PRChild | Psi.PUp
            | Psi.PDown _ ),
            _ ) -> false
      in
      if not applies then true
      else
        match (p, dst.status) with
        | _, NWit -> true
        | Psi.PRight, NPtr Psi.PRight -> true
        | Psi.PLeft, NPtr Psi.PLeft -> true
        | ( Psi.PParent,
            NPtr (Psi.PParent | Psi.PLeft | Psi.PRight | Psi.PUp) ) -> true
        | Psi.PRChild, NPtr (Psi.PRChild | Psi.PRight | Psi.PLeft) -> true
        | Psi.PUp, NPtr (Psi.PDown j) -> (
          match src_in.kind with Index i -> j <> i | Center -> false)
        | Psi.PDown _, NPtr Psi.PRChild -> true
        | ( ( Psi.PRight | Psi.PLeft | Psi.PParent | Psi.PRChild | Psi.PUp
            | Psi.PDown _ ),
            (NOk | NPtr _) ) -> false)
  in
  let bad_edge_ok =
    ((not ev.bu_out.bad_edge) && not ev.bw_out.bad_edge)
    || edge_input_bad ev.u_in ev.w_in ev.bu_in ev.bw_in
  in
  let claim_ok (h : half_out) (far : node_label) =
    match h.color_claim with None -> true | Some c -> far.color2 = c
  in
  let chain_edge (h : half_out) (lsrc : half_in) (lfar : half_in)
      (far : node_out) =
    to_next_edge_ok lsrc.bl far h.to_next
    && from_prev_edge_ok lfar.bl far h.from_prev
  in
  mirrors && mix
  && ptr_rule ev.u_out ev.u_in ev.bu_in.bl ev.w_out
  && ptr_rule ev.w_out ev.w_in ev.bw_in.bl ev.u_out
  && bad_edge_ok
  && claim_ok ev.bu_out ev.w_in
  && claim_ok ev.bw_out ev.u_in
  && chain_edge ev.bu_out ev.bu_in ev.bw_in ev.w_out
  && chain_edge ev.bw_out ev.bw_in ev.bu_in ev.u_out

let problem ~delta : problem_t =
  {
    name = "psi-gadget-ne";
    check_node = check_node ~delta;
    check_edge;
  }

(* ------------------------------------------------------------------ *)
(* Inputs and solutions                                                *)
(* ------------------------------------------------------------------ *)

let input_of (t : Labels.t) =
  Labeling.init t.graph
    ~v:(fun v -> t.nodes.(v))
    ~e:(fun _ -> ())
    ~b:(fun h ->
      { bl = t.halves.(h); bcolor = t.half_color2.(h); bflags = t.half_flags.(h) })

let clean_half mirror =
  { mirror; bad_edge = false; color_claim = None; to_next = []; from_prev = [] }

let all_ok_solution (t : Labels.t) : solution =
  let ok = { status = NOk; chains = [] } in
  Labeling.init t.graph
    ~v:(fun _ -> ok)
    ~e:(fun _ -> ())
    ~b:(fun _ -> clean_half ok)

let is_valid ~delta t (sol : solution) =
  Ne_lcl.is_valid (problem ~delta) t.graph ~input:(input_of t) ~output:sol

let violations ~delta t (sol : solution) =
  Ne_lcl.violations (problem ~delta) t.graph ~input:(input_of t) ~output:sol

(* ------------------------------------------------------------------ *)
(* The prover                                                          *)
(* ------------------------------------------------------------------ *)

(* distance-9 coloring of the chain initiators: greedy, each initiator
   avoids colors of initiators within distance 9 *)
let initiator_colors g initiators =
  let colors = Hashtbl.create 16 in
  List.iter
    (fun u ->
      let near = T.bfs_bounded g u ~radius:9 in
      let avoid = Hashtbl.create 8 in
      List.iter
        (fun (w, _) ->
          match Hashtbl.find_opt colors w with
          | Some c -> Hashtbl.replace avoid c ()
          | None -> ())
        near;
      let rec pick c = if Hashtbl.mem avoid c then pick (c + 1) else c in
      Hashtbl.replace colors u (pick 0))
    initiators;
  colors

let prove ~delta ~n (t : Labels.t) =
  let g = t.graph in
  let psi_out, meter = Verifier.run ~delta ~n t in
  let status =
    Array.map
      (function
        | Psi.Ok -> NOk
        | Psi.Error -> NWit
        | Psi.Ptr p -> NPtr p)
      psi_out
  in
  let chains = Array.make (G.n g) [] in
  let tags tbl h = match Hashtbl.find_opt tbl h with Some l -> l | None -> [] in
  let to_next_tag = Hashtbl.create 16 in
  let from_prev_tag = Hashtbl.create 16 in
  let bad_edge_mark = Hashtbl.create 16 in
  let color_claim_mark = Hashtbl.create 16 in
  (* chain initiators *)
  let wants_chain u =
    let rules = Check.node_violations ~delta t u in
    let has r = List.exists (fun v -> v.Check.rule = r) rules in
    let kinds = ref [] in
    if has "2c" then begin
      match follow_path t u [ LChild; Right; Parent ] with
      | Some w when w <> u -> kinds := K2c :: !kinds
      | Some _ | None -> ()
    end;
    if has "2d" then begin
      match follow_path t u [ Right; LChild; Left; Parent ] with
      | Some w when w <> u -> kinds := K2d :: !kinds
      | Some _ | None -> ()
    end;
    !kinds
  in
  let initiators = ref [] in
  for u = 0 to G.n g - 1 do
    if status.(u) = NWit && wants_chain u <> [] then initiators := u :: !initiators
  done;
  let icolors = initiator_colors g (List.rev !initiators) in
  (* lay chains *)
  List.iter
    (fun u ->
      let col = Hashtbl.find icolors u in
      List.iter
        (fun kind ->
          let rec walk v pos =
            let cid = { ccolor = col; cpos = pos; ckind = kind } in
            if not (List.mem cid chains.(v)) then
              chains.(v) <- cid :: chains.(v);
            if pos < chain_last kind then begin
              match half_with t v (chain_step kind pos) with
              | None -> () (* cannot happen: wants_chain checked the path *)
              | Some h ->
                let prev = tags to_next_tag h in
                if not (List.mem cid prev) then
                  Hashtbl.replace to_next_tag h (cid :: prev);
                let w = G.half_node g (G.mate h) in
                let cid' = { ccolor = col; cpos = pos + 1; ckind = kind } in
                let prev' = tags from_prev_tag (G.mate h) in
                if not (List.mem cid' prev') then
                  Hashtbl.replace from_prev_tag (G.mate h) (cid' :: prev');
                walk w (pos + 1)
            end
          in
          walk u 0;
          Meter.charge meter u 12)
        (wants_chain u))
    (List.rev !initiators);
  (* witnesses for edge-visible and color-visible violations *)
  for u = 0 to G.n g - 1 do
    if status.(u) = NWit then begin
      let hs = G.halves g u in
      (* bad-edge marks *)
      Array.iter
        (fun h ->
          let m = G.mate h in
          let w = G.half_node g m in
          let bu = { bl = t.halves.(h); bcolor = t.half_color2.(h); bflags = t.half_flags.(h) } in
          let bw = { bl = t.halves.(m); bcolor = t.half_color2.(m); bflags = t.half_flags.(m) } in
          if edge_input_bad t.nodes.(u) t.nodes.(w) bu bw then
            Hashtbl.replace bad_edge_mark h ())
        hs;
      (* color claims: two halves with equal far colors *)
      let far_color h = t.nodes.(G.half_node g (G.mate h)).color2 in
      let arr = Array.map (fun h -> (far_color h, h)) hs in
      Array.sort compare arr;
      for i = 1 to Array.length arr - 1 do
        let c0, h0 = arr.(i - 1) and c1, h1 = arr.(i) in
        if c0 = c1 then begin
          Hashtbl.replace color_claim_mark h0 c0;
          Hashtbl.replace color_claim_mark h1 c1
        end
      done
    end
  done;
  (* chain participants that end up holding an open end must be witnesses
     only if their status is NWit; others keep pointer/Ok status — but a
     node made to hold chain tags cannot be NOk, so promote those *)
  for u = 0 to G.n g - 1 do
    if chains.(u) <> [] && status.(u) = NOk then status.(u) <- NWit
  done;
  (* one node_out per node, shared between the node slot and every
     incident half's mirror — the mirrors are structurally equal either
     way, and sharing lets the checker's [==] fast path decide them *)
  let outs =
    Array.init (G.n g) (fun u ->
        { status = status.(u); chains = List.sort compare chains.(u) })
  in
  let b =
    if
      Hashtbl.length bad_edge_mark = 0
      && Hashtbl.length color_claim_mark = 0
      && Hashtbl.length to_next_tag = 0
      && Hashtbl.length from_prev_tag = 0
    then begin
      (* no marks (every valid gadget): one clean half per node, shared by
         all of the node's halves *)
      let clean = Array.map clean_half outs in
      Array.init (2 * G.m g) (fun h -> clean.(G.half_node g h))
    end
    else
      Array.init (2 * G.m g) (fun h ->
          {
            mirror = outs.(G.half_node g h);
            bad_edge = Hashtbl.mem bad_edge_mark h;
            color_claim = Hashtbl.find_opt color_claim_mark h;
            to_next = tags to_next_tag h;
            from_prev = tags from_prev_tag h;
          })
  in
  let sol : solution = { Labeling.v = outs; e = Array.make (G.m g) (); b } in
  (sol, meter)
