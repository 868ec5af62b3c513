module G = Repro_graph.Multigraph
module T = Repro_graph.Traversal
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module Ids = Repro_local.Ids
module GL = Repro_gadget.Labels
module NP = Repro_gadget.Ne_psi
module GB = Repro_gadget.Build
module Family = Repro_gadget.Family
open Padded_types

let delta_of (spec : _ Spec.t) = spec.Spec.hard_max_degree

(* ------------------------------------------------------------------ *)
(* Constraints of Π' (§3.3)                                            *)
(* ------------------------------------------------------------------ *)

(* The checks below run once per node and once per edge of every Π'
   validation, and at Π³ once more for every hypothetical Π² node, so
   they follow the checker hot-path rules (DESIGN.md, "The checker hot
   path"): sub-views are built with counted loops into exactly sized
   arrays seeded from a real element, Ψ_G statuses are compared by
   [match], and label values that the solver shares (one Σ_list per
   gadget, copied Π-inputs) are compared [==]-then-[=]. Spec.mli states
   the precondition that makes [same] exact: hierarchy labels hold no
   floats or closures. Every sub-predicate is evaluated in the original
   order, so verdicts match the plain definition in test/checker_ref.ml. *)

let same a b = a == b || a = b
let is_port_half (e_in : _ pe_in) = e_in.etype = PortEdge
let is_nok (o : NP.node_out) =
  match o.NP.status with NP.NOk -> true | NP.NPtr _ | NP.NWit -> false

let unwrap = function Some h -> h | None -> assert false

(* Constraint 2 at a node: Ψ_G's node constraint over gadget edges only. *)
let psi_node_ok ~(family : Family.t) (nv : _ Ne_lcl.node_view) =
  let e_in = nv.Ne_lcl.e_in in
  let d = Array.length e_in in
  (* the gadget halves: how many, the first, and whether all carry Some *)
  let k = ref 0 and first = ref (-1) and some_ok = ref true in
  for i = 0 to d - 1 do
    if not (is_port_half e_in.(i)) then begin
      if !first < 0 then first := i;
      incr k;
      match nv.Ne_lcl.b_out.(i) with Some _ -> () | None -> some_ok := false
    end
  done;
  !some_ok
  &&
  let k = !k and first = !first in
  (* [f] of the gadget halves' entries of [a], in port order *)
  let gadget_halves f a =
    if k = 0 then [||]
    else begin
      let sub = Array.make k (f a.(first)) in
      let j = ref 0 in
      for i = first to d - 1 do
        if not (is_port_half e_in.(i)) then begin
          sub.(!j) <- f a.(i);
          incr j
        end
      done;
      sub
    end
  in
  family.Family.ne_problem.Ne_lcl.check_node
    {
      Ne_lcl.degree = k;
      v_in = (nv.Ne_lcl.v_in : _ pv_in).gad_v;
      v_out = (nv.Ne_lcl.v_out : _ pv_out).psi_v;
      e_in = Array.make k ();
      e_out = Array.make k ();
      b_in = gadget_halves (fun (b : _ pb_in) -> b.gad_b) nv.Ne_lcl.b_in;
      b_out = gadget_halves unwrap nv.Ne_lcl.b_out;
    }

(* Constraint 5's hypothetical node: Π's node constraint on the virtual
   node encoded in Σ_list. *)
let hypothetical_node_ok (p : _ Ne_lcl.t) (l : _ sigma_list) =
  let n = Array.length l.s in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if l.s.(i) then incr k
  done;
  let k = !k in
  (* the members' entries of [a], in port order: [a] itself when every
     port is a member (checks never mutate or retain a view) *)
  let members a =
    if k = n && Array.length a = n then a
    else if k = 0 then [||]
    else begin
      let sub = Array.make k a.(0) in
      let j = ref 0 in
      for i = 0 to n - 1 do
        if l.s.(i) then begin
          sub.(!j) <- a.(i);
          incr j
        end
      done;
      sub
    end
  in
  p.Ne_lcl.check_node
    {
      Ne_lcl.degree = k;
      v_in = l.iv;
      v_out = l.ov;
      e_in = members l.ie;
      e_out = members l.oe;
      b_in = members l.ib;
      b_out = members l.ob;
    }

let check_node ~(family : Family.t) (p : _ Ne_lcl.t) (nv : _ Ne_lcl.node_view) =
  let delta = family.Family.delta in
  let vin : _ pv_in = nv.Ne_lcl.v_in in
  let vout : _ pv_out = nv.Ne_lcl.v_out in
  let e_in = nv.Ne_lcl.e_in and b_out = nv.Ne_lcl.b_out in
  (* constraint 1: ε exactly on port-edge halves *)
  let eps_ok =
    let k = ref 0 in
    while
      !k < nv.Ne_lcl.degree
      &&
      match b_out.(!k) with
      | None -> is_port_half e_in.(!k)
      | Some _ -> not (is_port_half e_in.(!k))
    do
      incr k
    done;
    !k >= nv.Ne_lcl.degree
  in
  (* constraint 3: PortErr2 placement *)
  let port_edge_count =
    let c = ref 0 in
    for k = 0 to Array.length e_in - 1 do
      if is_port_half e_in.(k) then incr c
    done;
    !c
  in
  let perr2_ok =
    match vin.gad_v.GL.port with
    | Some _ -> (vout.perr = PortErr2) = (port_edge_count <> 1)
    | None -> vout.perr <> PortErr2
  in
  (* constraint 2 *)
  let psi_ok = psi_node_ok ~family nv in
  (* constraint 5, gated on the gadget claiming GadOk *)
  let list_ok =
    (not (is_nok vout.psi_v))
    ||
    let l = vout.list_part in
    Array.length l.s = delta
    && Array.length l.ie = delta
    && Array.length l.ib = delta
    && Array.length l.oe = delta
    && Array.length l.ob = delta
    && (match vin.gad_v.GL.port with
       | Some i -> l.s.(i - 1) = (vout.perr = NoPortErr)
       | None -> true)
    && (match vin.gad_v.GL.port with
       | Some 1 -> same l.iv vin.pi_v
       | Some _ | None -> true)
    && (match vin.gad_v.GL.port with
       | Some i when l.s.(i - 1) ->
         (* the unique incident port edge's Π-inputs are copied *)
         let ok = ref true in
         for k = 0 to Array.length e_in - 1 do
           let e : _ pe_in = e_in.(k) in
           if is_port_half e then begin
             if not (same l.ie.(i - 1) e.pi_e) then ok := false;
             if not (same l.ib.(i - 1) (nv.Ne_lcl.b_in.(k) : _ pb_in).pi_b)
             then ok := false
           end
         done;
         !ok
       | Some _ | None -> true)
    && hypothetical_node_ok p l
  in
  eps_ok && perr2_ok && psi_ok && list_ok

let check_edge ~(family : Family.t) (p : _ Ne_lcl.t) (ev : _ Ne_lcl.edge_view) =
  let ein : _ pe_in = ev.Ne_lcl.ee_in in
  let uin : _ pv_in = ev.Ne_lcl.u_in in
  let win : _ pv_in = ev.Ne_lcl.w_in in
  let uout : _ pv_out = ev.Ne_lcl.u_out in
  let wout : _ pv_out = ev.Ne_lcl.w_out in
  let u_ok = is_nok uout.psi_v in
  let w_ok = is_nok wout.psi_v in
  match ein.etype with
  | GadEdge -> (
    (* constraint 2: Ψ_G's edge constraint *)
    match (ev.Ne_lcl.bu_out, ev.Ne_lcl.bw_out) with
    | Some bu, Some bw ->
      let psi_view : _ Ne_lcl.edge_view =
        {
          Ne_lcl.self_loop = ev.Ne_lcl.self_loop;
          u_in = uin.gad_v;
          u_out = uout.psi_v;
          w_in = win.gad_v;
          w_out = wout.psi_v;
          ee_in = ();
          ee_out = ();
          bu_in = (ev.Ne_lcl.bu_in : _ pb_in).gad_b;
          bu_out = bu;
          bw_in = (ev.Ne_lcl.bw_in : _ pb_in).gad_b;
          bw_out = bw;
        }
      in
      family.Family.ne_problem.Ne_lcl.check_edge psi_view
      (* constraint 6, gadget edges: the Σ_list agrees across the gadget *)
      && ((not (u_ok && w_ok)) || same uout.list_part wout.list_part)
    | None, _ | _, None -> false (* constraint 1, edge side *))
  | PortEdge -> (
    (match (ev.Ne_lcl.bu_out, ev.Ne_lcl.bw_out) with
    | None, None -> true
    | Some _, _ | _, Some _ -> false)
    &&
    (* constraint 4 *)
    let c4_side (xin : _ pv_in) (xout : _ pv_out) (yin : _ pv_in)
        (yout : _ pv_out) =
      match xin.gad_v.GL.port with
      | None -> true
      | Some _ ->
        let y_port = match yin.gad_v.GL.port with Some _ -> true | None -> false in
        let both_ports_ok = y_port && is_nok xout.psi_v && is_nok yout.psi_v in
        let facing_bad =
          (not y_port) || (not (is_nok xout.psi_v)) || not (is_nok yout.psi_v)
        in
        ((not both_ports_ok) || xout.perr <> PortErr1)
        && ((not facing_bad) || xout.perr <> NoPortErr)
    in
    c4_side uin uout win wout
    && c4_side win wout uin uout
    &&
    (* constraint 6, port edges: the virtual edge satisfies Π's edge
       constraint. The paper gates this on both endpoints being ports of
       GadOk gadgets; we additionally require both ports to be valid
       (members of S), which — given constraints 3–5 — is equivalent in
       every situation the solver can reach and keeps the entries
       meaningful when a port faces a PortErr2 port. *)
    match (uin.gad_v.GL.port, win.gad_v.GL.port) with
    | Some i, Some j when u_ok && w_ok ->
      let lu = uout.list_part and lw = wout.list_part in
      if
        i - 1 < Array.length lu.s
        && j - 1 < Array.length lw.s
        && lu.s.(i - 1)
        && lw.s.(j - 1)
      then
        same lu.ie.(i - 1) lw.ie.(j - 1)
        && same lu.oe.(i - 1) lw.oe.(j - 1)
        &&
        let view : _ Ne_lcl.edge_view =
          {
            Ne_lcl.self_loop = false;
            u_in = lu.iv;
            u_out = lu.ov;
            w_in = lw.iv;
            w_out = lw.ov;
            ee_in = lu.ie.(i - 1);
            ee_out = lu.oe.(i - 1);
            bu_in = lu.ib.(i - 1);
            bu_out = lu.ob.(i - 1);
            bw_in = lw.ib.(j - 1);
            bw_out = lw.ob.(j - 1);
          }
        in
        p.Ne_lcl.check_edge view
      else true
    | (Some _ | None), _ -> true)

let problem ~family (spec : _ Spec.t) : _ Ne_lcl.t =
  {
    Ne_lcl.name = spec.Spec.name ^ "-padded";
    check_node = check_node ~family spec.Spec.problem;
    check_edge = check_edge ~family spec.Spec.problem;
  }

(* ------------------------------------------------------------------ *)
(* The Lemma-4 solver                                                  *)
(* ------------------------------------------------------------------ *)

type comp_data = {
  members : int array;          (* padded ids, local order *)
  labels : GL.t;
  lhalf : int array;            (* padded half -> local half or -1 *)
  mutable valid : bool;
  mutable vnode : int;          (* virtual node id, or -1 *)
}

(* Split an arbitrary Π'-instance into its gadget components (connected
   components of the GadEdge subgraph) and re-assemble each as a labeled
   gadget candidate for Ψ_G. *)
let gadget_components g (input : _ Labeling.t) =
  let n = G.n g in
  let comp = Array.make n (-1) in
  let ncomp = ref 0 in
  let is_gad e = (input.Labeling.e.(e) : _ pe_in).etype = GadEdge in
  (* flat-array FIFO: same traversal (and so the same component and local
     numbering) as the Queue-based BFS it replaces, without the per-node
     queue cells *)
  let q = Array.make n 0 in
  for s = 0 to n - 1 do
    if comp.(s) < 0 then begin
      let head = ref 0 and tail = ref 0 in
      comp.(s) <- !ncomp;
      q.(!tail) <- s;
      incr tail;
      while !head < !tail do
        let v = q.(!head) in
        incr head;
        G.iter_halves g v ~f:(fun h ->
            let w = G.half_node g (G.mate h) in
            if is_gad (G.edge_of_half h) && comp.(w) < 0 then begin
              comp.(w) <- !ncomp;
              q.(!tail) <- w;
              incr tail
            end)
      done;
      incr ncomp
    end
  done;
  let local = Array.make n (-1) in
  let sizes = Array.make !ncomp 0 in
  for v = 0 to n - 1 do
    local.(v) <- sizes.(comp.(v));
    sizes.(comp.(v)) <- sizes.(comp.(v)) + 1
  done;
  let members = Array.init !ncomp (fun c -> Array.make sizes.(c) 0) in
  for v = 0 to n - 1 do
    members.(comp.(v)).(local.(v)) <- v
  done;
  (* per-component edges in global edge order, bucketed CSR-style (the
     Builder's tuple-list path allocated ~6 words per edge) *)
  let ecount = Array.make !ncomp 0 in
  let m = G.m g in
  for e = 0 to m - 1 do
    if is_gad e then begin
      let u = G.half_node g (2 * e) in
      ecount.(comp.(u)) <- ecount.(comp.(u)) + 1
    end
  done;
  let eoff = Array.make (!ncomp + 1) 0 in
  for c = 0 to !ncomp - 1 do
    eoff.(c + 1) <- eoff.(c) + ecount.(c)
  done;
  let ebuf = Array.make eoff.(!ncomp) 0 in
  let ecur = Array.copy eoff in
  for e = 0 to m - 1 do
    if is_gad e then begin
      let c = comp.(G.half_node g (2 * e)) in
      ebuf.(ecur.(c)) <- e;
      ecur.(c) <- ecur.(c) + 1
    end
  done;
  let lhalf = Array.make (2 * m) (-1) in
  let comps =
    Array.init !ncomp (fun c ->
        let gm = ecount.(c) in
        let half_node = Array.make (2 * gm) 0 in
        for le = 0 to gm - 1 do
          let e = ebuf.(eoff.(c) + le) in
          half_node.(2 * le) <- local.(G.half_node g (2 * e));
          half_node.((2 * le) + 1) <- local.(G.half_node g ((2 * e) + 1));
          lhalf.(2 * e) <- 2 * le;
          lhalf.((2 * e) + 1) <- (2 * le) + 1
        done;
        let graph = G.of_half_node ~n:sizes.(c) ~m:gm half_node in
        let nodes =
          Array.map (fun v -> (input.Labeling.v.(v) : _ pv_in).gad_v) members.(c)
        in
        let halves = Array.make (2 * gm) GL.Up in
        let half_color2 = Array.make (2 * gm) 0 in
        let dummy_flags = { GL.f_right = false; f_left = false; f_child = false } in
        let half_flags = Array.make (2 * gm) dummy_flags in
        for le = 0 to gm - 1 do
          let e = ebuf.(eoff.(c) + le) in
          let fill h =
            let b_in : _ pb_in = input.Labeling.b.(h) in
            halves.(lhalf.(h)) <- b_in.gad_b.NP.bl;
            half_color2.(lhalf.(h)) <- b_in.gad_b.NP.bcolor;
            half_flags.(lhalf.(h)) <- b_in.gad_b.NP.bflags
          in
          fill (2 * e);
          fill ((2 * e) + 1)
        done;
        {
          members = members.(c);
          labels = { GL.graph; nodes; halves; half_color2; half_flags };
          lhalf;
          valid = false;
          vnode = -1;
        })
  in
  (comp, comps)

(* distinct identifiers not used by [used], starting from 1 *)
let fresh_ids used k =
  let taken = Hashtbl.create (2 * List.length used) in
  List.iter (fun x -> Hashtbl.replace taken x ()) used;
  let out = ref [] in
  let next = ref 1 in
  for _ = 1 to k do
    while Hashtbl.mem taken !next do
      incr next
    done;
    Hashtbl.replace taken !next ();
    out := !next :: !out
  done;
  List.rev !out

let double_sweep_diameter g =
  if G.n g = 0 then 0
  else begin
    let d0 = T.bfs g 0 in
    let a = ref 0 in
    Array.iteri (fun v d -> if d > d0.(!a) then a := v) d0;
    let da = T.bfs g !a in
    Array.fold_left max 0 da
  end

let solve ~(family : Family.t) (spec : _ Spec.t) ~which inst (input : _ Labeling.t) =
  let delta = family.Family.delta in
  let g = inst.Instance.graph in
  let n = G.n g in
  let meter = Meter.create n in
  let comp, comps = gadget_components g input in
  (* 1. prove Ψ_G on every gadget component *)
  let psi_v = Array.make n { NP.status = NP.NOk; chains = [] } in
  let psi_half = Array.make (2 * G.m g) None in
  Array.iter
    (fun cd ->
      let sol, m = family.Family.prove ~n:inst.Instance.n_promise cd.labels in
      cd.valid <-
        Array.for_all (fun (o : NP.node_out) -> o.NP.status = NP.NOk)
          sol.Labeling.v;
      Array.iteri
        (fun l v ->
          psi_v.(v) <- sol.Labeling.v.(l);
          Meter.charge meter v (Meter.radius m l))
        cd.members;
      (* pull the half outputs back onto the padded halves: each padded
         gadget half of this component has a local half in cd.lhalf *)
      let off = G.ports_off g and prt = G.ports_flat g in
      (* the prover shares one clean half per node: wrap it once *)
      let last = ref None in
      Array.iter
        (fun v ->
          for k = off.(v) to off.(v + 1) - 1 do
            let ph = prt.(k) in
            if cd.lhalf.(ph) >= 0 then begin
              let b = sol.Labeling.b.(cd.lhalf.(ph)) in
              match !last with
              | Some b' as o when b' == b -> psi_half.(ph) <- o
              | Some _ | None ->
                let o = Some b in
                last := o;
                psi_half.(ph) <- o
            end
          done)
        cd.members)
    comps;
  (* 2. port classification *)
  let port_of v = (input.Labeling.v.(v) : _ pv_in).gad_v.GL.port in
  let port_edges v =
    List.rev
      (G.fold_halves g v ~init:[] ~f:(fun acc h ->
           if (input.Labeling.e.(G.edge_of_half h) : _ pe_in).etype = PortEdge
           then h :: acc
           else acc))
  in
  let perr = Array.make n NoPortErr in
  for v = 0 to n - 1 do
    (match port_of v with
    | None -> perr.(v) <- NoPortErr
    | Some _ -> (
      match port_edges v with
      | [ h ] ->
        let w = G.half_node g (G.mate h) in
        let bad =
          port_of w = None
          || (not comps.(comp.(v)).valid)
          || not comps.(comp.(w)).valid
        in
        perr.(v) <- (if bad then PortErr1 else NoPortErr)
      | [] | _ :: _ -> perr.(v) <- PortErr2));
    Meter.charge meter v 2
  done;
  (* 3. the virtual multigraph *)
  let nvirt = ref 0 in
  Array.iter
    (fun cd ->
      if cd.valid then begin
        cd.vnode <- !nvirt;
        incr nvirt
      end)
    comps;
  let phantoms = ref [] in
  let vedges = ref [] in
  (* (vu, vw, padded portedge, half at u side, half at w side) *)
  G.iter_edges g ~f:(fun e u w ->
      if (input.Labeling.e.(e) : _ pe_in).etype = PortEdge then begin
        let valid_port v = port_of v <> None && perr.(v) = NoPortErr in
        let vu = if valid_port u then comps.(comp.(u)).vnode else -1 in
        let vw = if valid_port w then comps.(comp.(w)).vnode else -1 in
        match (vu >= 0, vw >= 0) with
        | true, true -> vedges := (vu, vw, e, 2 * e, (2 * e) + 1) :: !vedges
        | true, false ->
          let ph = !nvirt in
          incr nvirt;
          phantoms := ph :: !phantoms;
          vedges := (vu, ph, e, 2 * e, (2 * e) + 1) :: !vedges
        | false, true ->
          let ph = !nvirt in
          incr nvirt;
          phantoms := ph :: !phantoms;
          vedges := (ph, vw, e, (2 * e) + 1, 2 * e) :: !vedges
        | false, false -> ()
      end);
  let vedges = List.rev !vedges in
  let vb = G.Builder.create !nvirt in
  List.iter (fun (a, b_, _, _, _) -> ignore (G.Builder.add_edge vb a b_)) vedges;
  let vgraph = G.Builder.build vb in
  (* virtual half -> padded half (same construction order) *)
  let vhalf_to_padded = Array.make (2 * G.m vgraph) (-1) in
  List.iteri
    (fun k (_, _, _, hu, hw) ->
      vhalf_to_padded.(2 * k) <- hu;
      vhalf_to_padded.((2 * k) + 1) <- hw)
    vedges;
  (* ids *)
  let vids = Array.make !nvirt 0 in
  Array.iter
    (fun cd ->
      if cd.valid then begin
        let mn =
          Array.fold_left
            (fun acc v -> min acc inst.Instance.ids.(v))
            max_int cd.members
        in
        vids.(cd.vnode) <- mn
      end)
    comps;
  let used = Array.to_list vids |> List.filter (fun x -> x > 0) in
  let fresh = fresh_ids used (List.length !phantoms) in
  List.iter2 (fun ph id -> vids.(ph) <- id) (List.rev !phantoms) fresh;
  (* port-1 node of each valid component *)
  let port1 = Array.make (Array.length comps) (-1) in
  Array.iteri
    (fun c cd ->
      Array.iter
        (fun v -> if port_of v = Some 1 then port1.(c) <- v)
        cd.members)
    comps;
  (* 4. virtual inputs *)
  let is_phantom = Array.make !nvirt false in
  List.iter (fun ph -> is_phantom.(ph) <- true) !phantoms;
  let comp_of_vnode = Array.make !nvirt (-1) in
  Array.iteri (fun c cd -> if cd.valid then comp_of_vnode.(cd.vnode) <- c) comps;
  let vinput =
    Labeling.init vgraph
      ~v:(fun vn ->
        if is_phantom.(vn) then spec.Spec.dvi
        else begin
          let c = comp_of_vnode.(vn) in
          if port1.(c) >= 0 then
            (input.Labeling.v.(port1.(c)) : _ pv_in).pi_v
          else spec.Spec.dvi
        end)
      ~e:(fun ve ->
        let ph = vhalf_to_padded.(2 * ve) in
        (input.Labeling.e.(G.edge_of_half ph) : _ pe_in).pi_e)
      ~b:(fun vh ->
        (input.Labeling.b.(vhalf_to_padded.(vh)) : _ pb_in).pi_b)
  in
  (* 5. run Π's solver on the virtual instance *)
  let vinst =
    Instance.create
      ~seed:((inst.Instance.seed * 31) + 17)
      ~ids:vids ~n_promise:inst.Instance.n_promise vgraph
  in
  let solver =
    match which with
    | `Det -> spec.Spec.solve_det
    | `Rand -> spec.Spec.solve_rand
  in
  let vout, vmeter = solver vinst vinput in
  (* 6. Σ_list per valid component *)
  let fresh_sigma () =
    {
      s = Array.make delta false;
      iv = spec.Spec.dvi;
      ie = Array.make delta spec.Spec.dei;
      ib = Array.make delta spec.Spec.dbi;
      ov = spec.Spec.dvo;
      oe = Array.make delta spec.Spec.deo;
      ob = Array.make delta spec.Spec.dbo;
    }
  in
  let sigma = Array.map (fun _ -> fresh_sigma ()) comps in
  Array.iteri
    (fun c cd ->
      if cd.valid then begin
        let l = sigma.(c) in
        if port1.(c) >= 0 then
          l.iv <- (input.Labeling.v.(port1.(c)) : _ pv_in).pi_v;
        Array.iter
          (fun v ->
            match port_of v with
            | Some i when perr.(v) = NoPortErr -> (
              l.s.(i - 1) <- true;
              match port_edges v with
              | [ h ] ->
                l.ie.(i - 1) <-
                  (input.Labeling.e.(G.edge_of_half h) : _ pe_in).pi_e;
                l.ib.(i - 1) <- (input.Labeling.b.(h) : _ pb_in).pi_b
              | [] | _ :: _ -> ())
            | Some _ | None -> ())
          cd.members
      end)
    comps;
  (* write the virtual outputs back *)
  Array.iteri
    (fun c cd ->
      if cd.valid then sigma.(c).ov <- vout.Labeling.v.(cd.vnode))
    comps;
  List.iteri
    (fun k (vu, vw, _, hu, hw) ->
      let assign vn padded_half vhalf =
        if vn >= 0 && not is_phantom.(vn) then begin
          let c = comp_of_vnode.(vn) in
          let pnode = G.half_node g padded_half in
          match port_of pnode with
          | Some i ->
            sigma.(c).oe.(i - 1) <- vout.Labeling.e.(k);
            sigma.(c).ob.(i - 1) <- vout.Labeling.b.(vhalf)
          | None -> ()
        end
      in
      assign vu hu (2 * k);
      assign vw hw ((2 * k) + 1))
    vedges;
  (* 7. assemble the output labeling *)
  let out =
    Labeling.init g
      ~v:(fun v ->
        { list_part = sigma.(comp.(v)); perr = perr.(v); psi_v = psi_v.(v) })
      ~e:(fun _ -> ())
      ~b:(fun h -> psi_half.(h))
  in
  (* 9. meter: the Lemma-4 communication overhead *)
  let dmax =
    Array.fold_left
      (fun acc cd ->
        if cd.valid then max acc (double_sweep_diameter cd.labels.GL.graph)
        else acc)
      0 comps
  in
  Array.iter
    (fun cd ->
      if cd.valid then begin
        let r = Meter.radius vmeter cd.vnode in
        Array.iter
          (fun v -> Meter.charge meter v ((r + 1) * (dmax + 2)))
          cd.members
      end)
    comps;
  (out, meter)

(* ------------------------------------------------------------------ *)
(* pad: Theorem 1's Π ↦ Π'                                             *)
(* ------------------------------------------------------------------ *)

let problem_of = problem

let isqrt x =
  let r = int_of_float (sqrt (float_of_int x)) in
  let r = if (r + 1) * (r + 1) <= x then r + 1 else r in
  max 1 r

let hard_instance_parts_with (family : Family.t) (spec : _ Spec.t) rng
    ~base_target ~gadget_target =
  let base_g, base_in = spec.Spec.hard_instance rng ~target:base_target in
  let gadget = family.Family.make ~target:gadget_target in
  let pg =
    Padded_graph.build base_g ~delta:family.Family.delta
      ~gadget_for:(fun _ -> gadget)
  in
  let inp =
    Padded_graph.input_labeling pg ~base_input:base_in ~dei:spec.Spec.dei
      ~dbi:spec.Spec.dbi
  in
  (pg, inp)

let hard_instance_parts (spec : _ Spec.t) rng ~base_target ~gadget_target =
  hard_instance_parts_with
    (Family.log_family ~delta:(delta_of spec))
    spec rng ~base_target ~gadget_target

let pad_with (family : Family.t) (spec : _ Spec.t) : _ Spec.t =
  if family.Family.delta < spec.Spec.hard_max_degree then
    invalid_arg "Pi_prime.pad_with: family delta below hard-instance degree";
  let delta = family.Family.delta in
  let default_flags = { GL.f_right = false; f_left = false; f_child = false } in
  let fresh_sigma () =
    {
      s = Array.make delta false;
      iv = spec.Spec.dvi;
      ie = Array.make delta spec.Spec.dei;
      ib = Array.make delta spec.Spec.dbi;
      ov = spec.Spec.dvo;
      oe = Array.make delta spec.Spec.deo;
      ob = Array.make delta spec.Spec.dbo;
    }
  in
  {
    Spec.name = spec.Spec.name ^ "'";
    problem = problem_of ~family spec;
    dvi =
      {
        pi_v = spec.Spec.dvi;
        gad_v = { GL.kind = GL.Index 1; port = None; color2 = 0 };
      };
    dei = { pi_e = spec.Spec.dei; etype = GadEdge };
    dbi =
      {
        pi_b = spec.Spec.dbi;
        gad_b = { NP.bl = GL.Up; bcolor = 0; bflags = default_flags };
      };
    dvo =
      {
        list_part = fresh_sigma ();
        perr = NoPortErr;
        psi_v = { NP.status = NP.NOk; chains = [] };
      };
    deo = ();
    dbo = None;
    solve_det = solve ~family spec ~which:`Det;
    solve_rand = solve ~family spec ~which:`Rand;
    hard_instance =
      (fun rng ~target ->
        let base_target = max 4 (isqrt target) in
        let gadget_target = max 10 (target / base_target) in
        let pg, inp =
          hard_instance_parts_with family spec rng ~base_target ~gadget_target
        in
        (pg.Padded_graph.padded, inp));
    hard_max_degree = max 5 delta;
  }

let pad (spec : _ Spec.t) : _ Spec.t =
  pad_with (Family.log_family ~delta:(delta_of spec)) spec

let pad_packed (Spec.Packed spec) = Spec.Packed (pad spec)

let pad_packed_with family (Spec.Packed spec) = Spec.Packed (pad_with family spec)
