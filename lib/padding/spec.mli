(** A problem bundle: an ne-LCL together with everything the padding
    transformer needs to lift it — solvers, default labels, and a
    hard-instance generator. This is the programmatic form of the data
    Theorem 1 consumes ("an ne-LCL problem Π").

    Requirements on [problem]: its constraints must be invariant under
    permuting a node's ports (true of any ne-LCL by definition — the paper
    notes C_N, C_E cannot depend on port numbers); solvers must accept
    disconnected graphs, self-loops, and parallel edges, because contracted
    virtual graphs contain them (paper §2 and Lemma 4).

    Requirement on the label types: they hold no floats and no closures.
    The padded checkers compare the label values a solver shares (one
    Σ_list per gadget, Π-inputs copied into it) as [a == b || a = b]; for
    such values physical equality implies structural equality, so the
    fast path cannot change a verdict. (A float [nan] is [==] to itself
    but not [=]; [=] raises on closures.) Every problem of the hierarchy
    meets this: its labels are unit, booleans, ints, variants and records
    of those. *)

type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) t = {
  name : string;
  problem : ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Repro_lcl.Ne_lcl.t;
  (* default labels used to fill the "arbitrary" entries the paper's
     constructions leave free *)
  dvi : 'vi;
  dei : 'ei;
  dbi : 'bi;
  dvo : 'vo;
  deo : 'eo;
  dbo : 'bo;
  solve_det :
    Repro_local.Instance.t ->
    ('vi, 'ei, 'bi) Repro_lcl.Labeling.t ->
    ('vo, 'eo, 'bo) Repro_lcl.Labeling.t * Repro_local.Meter.t;
  solve_rand :
    Repro_local.Instance.t ->
    ('vi, 'ei, 'bi) Repro_lcl.Labeling.t ->
    ('vo, 'eo, 'bo) Repro_lcl.Labeling.t * Repro_local.Meter.t;
  hard_instance :
    Random.State.t ->
    target:int ->
    Repro_graph.Multigraph.t * ('vi, 'ei, 'bi) Repro_lcl.Labeling.t;
  hard_max_degree : int;
      (** max degree of the graphs [hard_instance] generates; the padding
          level above uses this as its gadget Δ *)
}

val is_valid :
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) t ->
  Repro_graph.Multigraph.t ->
  input:('vi, 'ei, 'bi) Repro_lcl.Labeling.t ->
  output:('vo, 'eo, 'bo) Repro_lcl.Labeling.t ->
  bool

(** Existential wrapper so that the iterated hierarchy Π¹, Π², … — whose
    label types grow with the level — can live in one list. *)
type packed =
  | Packed : ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) t -> packed

val packed_name : packed -> string

type run_stats = {
  n : int;  (** instance size *)
  det_rounds : int;
  rand_rounds : int;
  det_valid : bool;
  rand_valid : bool;
}

val run_hard : packed -> seed:int -> target:int -> run_stats
(** Generate a hard instance of roughly [target] nodes, solve it with both
    solvers, check both outputs, and report measured round complexities —
    the workhorse of the Figure 1 / Theorem 11 experiments. *)
