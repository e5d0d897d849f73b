(** Revised simplex over the sparse instance form, in exact rationals.

    Two entry points:

    - {!solve_primal}: two-phase bounded-variable primal simplex from the
      all-slack/artificial basis. With no upper bounds it replays the
      dense tableau's trajectory pivot for pivot — same Bland entering
      rule (smallest column with favourable reduced cost), same min-ratio
      leaving rule with ties broken by smallest basic column, same
      drive-artificials-out step — so optimal assignments (not just
      values) are bit-identical to the historical dense solver. Given a
      known feasible vertex as [start], it crashes that point into the
      basis instead and runs phase 2 alone from there.

    - {!solve_dual}: bounded-variable dual simplex warm-started from a
      caller-supplied basis snapshot, for branch-and-bound children whose
      only change from the parent is tightened variable bounds: the
      parent's optimal basis stays dual feasible, so no phase 1 is
      needed. Variable bounds never become explicit rows.

    All pivot selection is deterministic, so both entry points are pure
    functions of their arguments — the property the speculative parallel
    branch-and-bound relies on. *)

open Ipet_num

type vstatus = Basic | Lower | Upper

type snapshot = {
  sbasis : int array;       (** basic column of each row *)
  sstatus : vstatus array;  (** status of every column *)
}

type solution = {
  value : Rat.t;            (** maximized objective, excluding any constant *)
  xstruct : Rat.t array;    (** value of each structural column *)
  snapshot : snapshot;      (** final basis, for warm-starting children *)
}

type verdict = Optimal of solution | Infeasible | Unbounded

type run = {
  verdict : verdict;
  pivots : int;
      (** basis changes: the crash's entries and phases 1 and 2 combined *)
  refactors : int;          (** basis refactorizations performed *)
  from_start : bool;
      (** phase 2 began at the crash basis of {!solve_primal}'s [start];
          [false] without a start or when the crash fell back *)
}

exception Stuck
(** The dual simplex hit its iteration cap, the warm basis was singular,
    or the warm snapshot was inconsistent with the problem's bounds (a
    leaving basic flagged as above an upper bound it does not have); the
    caller should fall back to a cold solve. *)

val solve_primal :
  ?upper:Rat.t option array ->
  ?refactor_every:int ->
  ?start:Rat.t array ->
  Sparse.t -> cost:Rat.t array -> run
(** Maximize [cost] (length [nstruct], structural columns only; slack
    costs are zero) over the instance. [upper], when given, has length
    [nstruct] and supplies finite upper bounds for structural variables
    (handled in the ratio test, never as rows); lower bounds are 0.

    [start] (length [nstruct]) is a point to begin from, typically a
    known optimum. Its support — the structural columns with a positive
    value and the slacks of the rows it leaves slack — is crashed into
    the identity basis, one FTRAN and eta append per column and no
    pricing: each column enters on a row whose basic column is outside
    the support, a basic artificial first. When every support column
    enters and the refactored basis is primal feasible with its basic
    artificials at zero (true of any feasible vertex), phase 1 is
    skipped: artificials are driven out and Bland's phase 2 runs from
    that basis. Otherwise — a point that is not a vertex, or not
    feasible — the solve restarts from the identity basis exactly as
    without [start]. The verdict and optimal value never depend on
    [start]; the optimal basis and vertex may. *)

val duals :
  Sparse.t -> cost:Rat.t array -> snapshot -> Rat.t array
(** Row prices [y = B⁻ᵀ c_B] of the basis in the snapshot, in row order
    of the instance — the dual multipliers of a finished {!solve_primal}
    run, recovered with one refactorization and one BTRAN. [cost] is the
    structural objective, as for {!solve_primal}.
    @raise Basis.Singular if the snapshot's basis is not a basis. *)

val solve_dual :
  ?refactor_every:int ->
  ?max_iters:int ->
  Sparse.t -> cost:Rat.t array ->
  lower:Rat.t array -> upper:Rat.t option array ->
  warm:snapshot -> run
(** Maximize [cost] subject to [lower.(j) <= x_j <= upper.(j)] for
    structural columns, starting from [warm] (a dual-feasible basis for
    this cost, typically the parent node's optimal basis). Returns
    [Infeasible] when the bounds cut off the feasible region.
    @raise Stuck when the warm start cannot be completed; correctness
    requires the caller to re-solve cold. *)
