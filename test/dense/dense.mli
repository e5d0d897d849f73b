(** The historical dense-tableau two-phase primal simplex, kept verbatim
    as a benchmark baseline and differential oracle for
    {!Ipet_lp.Revised}. It lives outside the shipped [ipet_lp] library:
    the production entry point is {!Ipet_lp.Simplex.solve}, which runs
    the revised sparse solver; this module exists so `bench lp` can
    measure dense-vs-revised wall times on identical instances and so
    tests can assert the two produce identical vertices, not just
    values. *)

open Ipet_num
open Ipet_lp

type result =
  | Optimal of { value : Rat.t; assignment : (string * Rat.t) list }
  | Infeasible
  | Unbounded

val solve : ?vars:string list -> ?pivots:int ref -> Lp_problem.t -> result
(** Identical contract to the historical [Simplex.solve]: [vars] must be
    {!Lp_problem.variables} of the problem (or a sorted superset);
    [pivots] is incremented by the tableau pivots performed. *)
