open Ipet_num
open Ipet_lp

(* Sparse.build normalizes every row to a non-negative right-hand side by
   negating the row and flipping its relation; a negated row's recovered
   multiplier must be negated back before it can speak about the original
   constraint. This predicate mirrors the normalization condition exactly
   (rhs = -constant < 0). *)
let row_flipped (c : Lp_problem.constr) =
  Rat.sign (Rat.neg (Linexpr.constant c.Lp_problem.expr)) < 0

let certify ?refactor_every (problem : Lp_problem.t) ~witness ~bound =
  let vars = Lp_problem.variables problem in
  let maximize = problem.Lp_problem.direction = Lp_problem.Maximize in
  let inst = Sparse.build ~vars problem in
  (* the simplex maximizes; a Minimize objective is negated on the way in
     and its duals negated on the way out *)
  let cost =
    Array.map
      (fun v ->
        let c = Linexpr.coeff problem.Lp_problem.objective v in
        if maximize then c else Rat.neg c)
      inst.Sparse.vars
  in
  (* start the simplex at the witness: when the relaxation is integral an
     integral optimum of the ILP is typically an optimal vertex of this LP;
     one that is not (an interior point of an optimal face) costs the cold
     solve *)
  let at = Simplex.assignment_env witness in
  let run =
    Revised.solve_primal ?refactor_every ~start:(Array.map at inst.Sparse.vars)
      inst ~cost
  in
  Simplex.record run;
  match run.Revised.verdict with
  | Revised.Infeasible -> Error "LP relaxation infeasible"
  | Revised.Unbounded -> Error "LP relaxation unbounded"
  | Revised.Optimal sol ->
    (match Revised.duals inst ~cost sol.Revised.snapshot with
     | exception Basis.Singular -> Error "final basis singular"
     | y ->
       let duals =
         Array.of_list
           (List.mapi
              (fun i c ->
                let yi = if row_flipped c then Rat.neg y.(i) else y.(i) in
                if maximize then yi else Rat.neg yi)
              problem.Lp_problem.constraints)
       in
       let dual_bound =
         List.fold_left
           (fun acc (i, (c : Lp_problem.constr)) ->
             Rat.add acc
               (Rat.mul duals.(i)
                  (Rat.neg (Linexpr.constant c.Lp_problem.expr))))
           (Linexpr.constant problem.Lp_problem.objective)
           (List.mapi (fun i c -> (i, c)) problem.Lp_problem.constraints)
       in
       Ok
         { Certificate.direction = problem.Lp_problem.direction;
           bound;
           dual_bound;
           duals;
           witness = Certificate.witness_of_assignment witness;
           digest = Certificate.digest_problem problem })
