(** Certificate production.

    [certify problem ~witness ~bound] solves the LP relaxation of the
    {e original, pre-presolve} problem with the revised primal simplex,
    started at the witness, and recovers the dual multipliers from its
    final basis (one BTRAN over exact rationals), then packages them with
    the witness and the problem digest.

    The production solve's duals cannot be reused: it runs on the
    presolved problem, and presolve rounds bounds to integers for ILPs —
    a rounded bound is a {e strictly stronger} constraint than the
    original row, so duals of the presolved LP do not in general certify
    the original one. Solving the untouched problem keeps the proof about
    exactly the constraint set the digest names (see DESIGN.md §5). That
    solve need not be cold, though: when the LP relaxation is integral
    (the paper's observation for all 13 benchmarks) the witness is
    typically an optimal vertex of it, so
    {!Ipet_lp.Revised.solve_primal} crashes the witness into a basis,
    skips phase 1, and phase 2 only has to make that vertex's basis dual
    feasible. A witness that is not a vertex of
    the relaxation (an integral point inside an optimal face) falls back
    to the cold two-phase solve it would have cost anyway.

    The resulting certificate's [dual_bound] is the true LP-relaxation
    optimum, whatever the start: the gap closes exactly when the
    relaxation's optimum equals the integral bound. *)

open Ipet_num
open Ipet_lp

val certify :
  ?refactor_every:int ->
  Lp_problem.t ->
  witness:(string * Rat.t) list ->
  bound:Rat.t ->
  (Certificate.t, string) result
(** [witness] is a solver assignment for [problem] (zeros allowed; it is
    canonicalized), [bound] its objective value; the LP solve starts
    from it, which affects only the work done, never the certificate's
    [dual_bound]. The solve's pivots are folded into
    {!Ipet_lp.Simplex.pivots}. Fails when the LP
    relaxation is infeasible or unbounded — neither can happen for a
    problem whose ILP was solved to optimality. *)
