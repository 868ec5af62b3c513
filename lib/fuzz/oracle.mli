(** The differential oracles: each takes a generated case and
    cross-checks several independent implementations, failing on any
    disagreement. The oracle matrix (DESIGN.md §11):

    - solver output × {!Repro_lcl.Ne_lcl} sequential check ×
      {!Repro_lcl.Distributed_check} engine run, per landscape problem;
    - sequential (pool size 1) × parallel (2, 4 domains) engine runs;
    - gadget {!Repro_gadget.Check} × {!Repro_gadget.Verifier} +
      {!Repro_gadget.Psi} (a corrupted gadget must be rejected by both,
      with the error proof localizing the planted fault) ×
      {!Repro_gadget.Ne_psi};
    - padded Π' instances solved and validated as
      {!Repro_padding.Spec.run_hard} does, plus one corrupted output
      label the checker must reject;
    - locality provenance certificates on fuzzed runs
      ({!Repro_local.Audit}, {!Repro_lcl.Distributed_check.audited_run}).

    All oracles are deterministic functions of the case (instances carry
    explicit seeds), which is what makes shrinking and replay sound. *)

val planted_bug : string option ref
(** Test-only fault injection: when set to a known bug name, one clause
    of one {e copy} of a checker is dropped, so the differential harness
    must catch the disagreement (the acceptance gate for the whole
    subsystem — see [test/test_fuzz.ml] and DESIGN.md §11). Initialized
    from the [REPRO_FUZZ_BREAK] environment variable. Never set outside
    tests. *)

val known_bugs : string list
(** Currently: ["so-edge-clause"] — the sequential copy of the sinkless
    orientation checker accepts any edge labeling. *)

(** {1 Oracles} — [Error] carries the disagreement description. *)

type verdict = (unit, string) result

val so_solvers : Gen_graph.recipe * int -> verdict
(** Both SO solvers on an arbitrary multigraph: output valid by the
    sequential checker, zero sinks, and the distributed checker accepts. *)

val colorful : Gen_graph.recipe * int -> verdict
(** Coloring, MIS and matching on a simple graph: each output valid by
    its sequential checker and accepted by the distributed checker. *)

val two_coloring : Gen_graph.recipe * int -> verdict
(** 2-coloring on a bipartite recipe: valid + distributed agreement. *)

val decompose : Gen_graph.recipe * int -> verdict
(** Linial–Saks and greedy network decompositions both valid. *)

val dcheck : Gen_graph.recipe * int * int option -> verdict
(** The checker-vs-checker differential: solve SO, optionally corrupt
    one half-edge output (the [int option] picks the half), then demand
    the sequential {!Repro_lcl.Ne_lcl} verdict and the engine-run
    {!Repro_lcl.Distributed_check} verdict agree — and that the verdict
    is "reject" exactly when a corruption was actually applied. This is
    the oracle that catches the [so-edge-clause] planted bug. *)

val engines : Gen_graph.recipe * int -> verdict
(** Pool-size differential: SO (det) outputs, meters and a flood-gather
    must be identical at 1, 2 and 4 domains. *)

val linalg_vs_engine : Gen_graph.recipe * int -> verdict
(** Backend differential on a simple graph: every vectorized solver in
    {!Repro_linalg} against its message-passing twin — coloring, MIS
    (coloring-sweep and Luby), flood-gather and the one-round
    distributed check. Labelings, meters, by-round flood output and
    checker verdicts must be byte-identical; the flood knowledge must
    also match the same radius-3 ball gather executed through
    {!Repro_local.Message_passing.run} and [run_boxed]. Swept at 1, 2
    and 4 domains. *)

val frontier_vs_flat : Gen_graph.recipe * int -> verdict
(** Engine differential for the frontier engine:
    {!Repro_local.Frontier.run} vs {!Repro_local.Message_passing.run}
    vs [run_boxed] on two algorithms (boxed int-list flood and float
    sum) — outputs, per-node round counts and [max_rounds] must be
    byte-identical at every density threshold (the default switch,
    forced always-dense [0], forced always-sparse [n + 1]) and at
    1, 2 and 4 domains. *)

val flat_vs_boxed : Gen_graph.recipe * int -> verdict
(** Engine differential: {!Repro_local.Message_passing.run} (flat
    epoch-tagged arena mailboxes) vs [run_boxed] (the pre-arena engine
    kept as an oracle) — identical outputs, per-node round counts and
    [max_rounds], on both heap (int list) and float messages. *)

val gadget : Gen_gadget.case -> verdict
(** Check × Verifier × Psi × Ne_psi as described above; the prover's
    solution with one node's status flipped ({!flip_psi_status}, site
    from the corruption seed) must be rejected by Ne_psi. *)

val flip_psi_status : Repro_gadget.Ne_psi.solution -> site:int -> Repro_gadget.Ne_psi.solution
(** A copy with node [site mod n]'s Ψ_G status flipped (GadOk ↔ witness)
    in the node slot only, so the mirror rule always rejects it. *)

val padding : int * int * int -> verdict
(** [(level, target, seed)], level 2 or 3: Π^level on the hard instance
    {!Repro_padding.Spec.run_hard} builds — both solvers' outputs must
    validate, and the deterministic output with one label corrupted
    ({!corrupt_padded}, kind [seed mod 4], site [seed / 4]) must be
    rejected. *)

(** {1 Padded-output corruption} *)

type padded_corruption =
  | Flip_s  (** one node's copy of Σ_list with one [s] bit flipped *)
  | Toggle_perr2
      (** one node's port error toggled to/from [PortErr2] (constraint 3) *)
  | Swap_eps  (** one half's ε ↔ Ψ_G half output *)
  | Flip_status  (** one node's Ψ_G status flipped in the node slot *)

val padded_corruptions : padded_corruption list

val pp_padded_corruption : Format.formatter -> padded_corruption -> unit

val corrupt_padded :
  Repro_graph.Multigraph.t ->
  padded_corruption ->
  site:int ->
  ( ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Repro_padding.Padded_types.pv_out,
    unit,
    Repro_padding.Padded_types.pb_out )
  Repro_lcl.Labeling.t ->
  ( ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Repro_padding.Padded_types.pv_out,
    unit,
    Repro_padding.Padded_types.pb_out )
  Repro_lcl.Labeling.t
(** A copy of a padded output with one label corrupted at [site] (taken
    modulo the node or half count). *)

val padded_run :
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Repro_padding.Spec.t ->
  target:int ->
  seed:int ->
  Repro_graph.Multigraph.t
  * ('vi, 'ei, 'bi) Repro_lcl.Labeling.t
  * ('vo, 'eo, 'bo) Repro_lcl.Labeling.t
  * ('vo, 'eo, 'bo) Repro_lcl.Labeling.t
(** The instance and the deterministic and randomized outputs of
    {!Repro_padding.Spec.run_hard} with the same [target] and [seed]. *)

val provenance : Gen_graph.regular * int -> verdict
(** Certificates: replay the SO-det meter as an audited flood, and run
    the distributed checker natively under audit; both must certify. *)
