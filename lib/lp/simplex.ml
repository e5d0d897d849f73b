(* Exact-rational LP solve, now routed through the sparse revised simplex
   ({!Revised} over {!Sparse} instances with a {!Basis} eta-file
   factorization). The pivot trajectory — Bland entering rule, min-ratio
   leaving rule with ties to the smallest basic column, phase-1 then
   drive-artificials-out then phase-2 — replicates the historical dense
   tableau ([Ipet_lp_dense.Dense], kept under test/) exactly, so optimal
   assignments, not just values, are unchanged. *)

open Ipet_num

type result =
  | Optimal of { value : Rat.t; assignment : (string * Rat.t) list }
  | Infeasible
  | Unbounded

let assignment_env assignment =
  let tbl = Hashtbl.create (2 * List.length assignment + 1) in
  List.iter (fun (v, x) -> Hashtbl.replace tbl v x) assignment;
  fun name ->
    match Hashtbl.find_opt tbl name with Some v -> v | None -> Rat.zero

(* process-cumulative tallies across all domains; per-solve counts are
   folded in once at the end of each solve, so concurrent solves never
   interleave deltas *)
let total_pivots = Atomic.make 0
let total_refactors = Atomic.make 0

let pivots () = Atomic.get total_pivots
let refactorizations () = Atomic.get total_refactors

let record ?pivots:pivot_count ?refactors:refactor_count (run : Revised.run) =
  ignore (Atomic.fetch_and_add total_pivots run.Revised.pivots);
  ignore (Atomic.fetch_and_add total_refactors run.Revised.refactors);
  (match pivot_count with
   | Some r -> r := !r + run.Revised.pivots
   | None -> ());
  (match refactor_count with
   | Some r -> r := !r + run.Revised.refactors
   | None -> ())

let direction_cost inst problem =
  let obj =
    match problem.Lp_problem.direction with
    | Lp_problem.Maximize -> problem.Lp_problem.objective
    | Lp_problem.Minimize -> Linexpr.neg problem.Lp_problem.objective
  in
  let nstruct = inst.Sparse.nstruct in
  let cost = Array.make nstruct Rat.zero in
  Array.iteri
    (fun i v -> cost.(i) <- Linexpr.coeff obj v)
    inst.Sparse.vars;
  (cost, obj)

let assignment_of_xstruct inst xstruct =
  let out = ref [] in
  for i = Array.length xstruct - 1 downto 0 do
    if not (Rat.is_zero xstruct.(i)) then
      out := (inst.Sparse.vars.(i), xstruct.(i)) :: !out
  done;
  !out

let solve ?vars ?pivots:pivot_count ?refactors:refactor_count problem =
  let vars =
    match vars with Some vs -> vs | None -> Lp_problem.variables problem
  in
  let inst = Sparse.build ~vars problem in
  let cost, obj = direction_cost inst problem in
  let run = Revised.solve_primal inst ~cost in
  record ?pivots:pivot_count ?refactors:refactor_count run;
  match run.Revised.verdict with
  | Revised.Infeasible -> Infeasible
  | Revised.Unbounded -> Unbounded
  | Revised.Optimal sol ->
    let z = Rat.add sol.Revised.value (Linexpr.constant obj) in
    let value =
      match problem.Lp_problem.direction with
      | Lp_problem.Maximize -> z
      | Lp_problem.Minimize -> Rat.neg z
    in
    Optimal { value; assignment = assignment_of_xstruct inst sol.Revised.xstruct }
