module P = Ipet_isa.Prog
module Layout = Ipet_isa.Layout
module Cost = Ipet_machine.Cost
module Icache = Ipet_machine.Icache
module Machine = Ipet_machine.Machine
module L = Ipet_lp.Linexpr
module Lp = Ipet_lp.Lp_problem
module Ilp = Ipet_lp.Ilp
module Rat = Ipet_num.Rat
module Obs = Ipet_obs.Obs
module Pool = Ipet_par.Pool

exception Analysis_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Analysis_error s)) fmt

type spec = {
  prog : P.t;
  root : string;
  mach : Machine.t;
  cache : Icache.config;
  dcache : Icache.config option;
  loop_bounds : Annotation.t list;
  functional : Functional.t list;
  first_miss_refinement : bool;
  presolve : bool;
}

let spec ?(mach = Machine.e32) ?cache ?dcache ?(loop_bounds = [])
    ?(functional = []) ?(first_miss_refinement = false) ?(presolve = true)
    ~root prog =
  let cache = match cache with Some c -> c | None -> Machine.fetch mach in
  { prog; root; mach; cache; dcache; loop_bounds; functional;
    first_miss_refinement; presolve }

type solver_stats = {
  sets_total : int;
  sets_pruned : int;
  sets_solved : int;
  sets_infeasible : int;
  lp_calls : int;
  bnb_nodes : int;
  simplex_pivots : int;
  refactorizations : int;
  warm_hits : int;
  warm_misses : int;
  all_first_lp_integral : bool;
  presolve_vars_before : int;
  presolve_vars_after : int;
  presolve_constrs_before : int;
  presolve_constrs_after : int;
  presolve_rounds : int;
}

type extreme = {
  cycles : int;
  counts : ((string * int) * int) list;
  binding : string list;
}

type certificate = {
  cert : Ipet_cert.Certificate.t;
  verdict : Ipet_cert.Checker.verdict;
  emit_seconds : float;
  check_seconds : float;
}

type result = {
  wcet : extreme;
  bcet : extreme;
  wcet_stats : solver_stats;
  bcet_stats : solver_stats;
  wcet_cert : certificate option;
  bcet_cert : certificate option;
}

let instances spec = Structural.instances spec.prog ~root:spec.root

let structural_constraints spec =
  Structural.constraints spec.prog (instances spec)

let block_costs spec ~func =
  let layout = Layout.make spec.prog in
  Cost.func_bounds ~mach:spec.mach ?dcache:spec.dcache ~prog:spec.prog
    spec.cache layout (P.find_func spec.prog func)

(* The Section IV refinement: inside a loop whose code provably stays
   resident (region fits the cache, hence no self-conflicts, and the loop
   makes no calls), a block's lines can miss at most once per loop entry.
   The worst-case objective then charges the block's warm cost per
   execution plus its full line-fill cost per entry of the outermost such
   loop, expressed on the loop's entry-edge variables. *)
let refinement_plan spec layout (func : P.func) =
  let cfg = Ipet_cfg.Cfg.of_func func in
  let dom = Ipet_cfg.Dominators.compute cfg in
  let loops = Ipet_cfg.Loops.detect cfg dom in
  let eligible (l : Ipet_cfg.Loops.loop) =
    let no_calls = ref true in
    let lo_addr = ref max_int and hi_addr = ref 0 in
    Array.iteri
      (fun b inside ->
        if inside then begin
          if P.calls_of_block func.P.blocks.(b) <> [] then no_calls := false;
          let addr = Layout.block_addr layout ~func:func.P.name ~block:b in
          let size = Layout.block_size_bytes layout ~func:func.P.name ~block:b in
          if addr < !lo_addr then lo_addr := addr;
          if addr + size > !hi_addr then hi_addr := addr + size
        end)
      l.Ipet_cfg.Loops.body;
    let (module M : Machine.MACHINE) = spec.mach in
    !no_calls && M.resident_ok ~fetch:spec.cache ~lo:!lo_addr ~hi:!hi_addr
  in
  let eligible_loops = List.filter eligible loops in
  (* for each block, the outermost (smallest depth) eligible loop holding it *)
  let plan = Array.make (Array.length func.P.blocks) None in
  List.iter
    (fun (l : Ipet_cfg.Loops.loop) ->
      Array.iteri
        (fun b inside ->
          if inside then
            match plan.(b) with
            | Some (outer : Ipet_cfg.Loops.loop)
              when outer.Ipet_cfg.Loops.depth <= l.Ipet_cfg.Loops.depth -> ()
            | Some _ | None -> plan.(b) <- Some l)
        l.Ipet_cfg.Loops.body)
    eligible_loops;
  (cfg, plan)

(* Objective (1): [Σ cost·x] over every block of every instance, zero-cost
   blocks omitted. [cost] gives each block's coefficient, so a caller can
   fold more than the block's own cycles into it. *)
let objective insts ~cost =
  List.fold_left
    (fun acc (inst : Structural.instance) ->
      Array.fold_left
        (fun acc (b : P.block) ->
          let c = cost inst b in
          if c = 0 then acc
          else
            L.add acc
              (L.var ~coeff:(Rat.of_int c)
                 (Flowvar.name
                    (Flowvar.Block
                       { ctx = inst.Structural.ctx;
                         func = inst.Structural.func.P.name;
                         block = b.P.id }))))
        acc inst.Structural.func.P.blocks)
    L.zero insts

(* [f] of each function, computed once per function *)
let per_func f =
  let table = Hashtbl.create 16 in
  fun (func : P.func) ->
    match Hashtbl.find_opt table func.P.name with
    | Some v -> v
    | None ->
      let v = f func in
      Hashtbl.replace table func.P.name v;
      v

let func_costs spec layout =
  per_func
    (Cost.func_bounds ~mach:spec.mach ?dcache:spec.dcache ~prog:spec.prog
       spec.cache layout)

(* the objective charging each block [select] of its cost bounds *)
let cost_objective spec insts ~select =
  let costs = func_costs spec (Layout.make spec.prog) in
  objective insts ~cost:(fun inst b ->
    select (costs inst.Structural.func).(b.P.id))

(* worst-case objective with the first-miss refinement enabled *)
let refined_wcet_objective spec insts =
  let layout = Layout.make spec.prog in
  let costs_of = func_costs spec layout in
  let plan_of = per_func (refinement_plan spec layout) in
  List.fold_left
    (fun acc (inst : Structural.instance) ->
      let fname = inst.Structural.func.P.name in
      let ctx = inst.Structural.ctx in
      let costs = costs_of inst.Structural.func in
      let cfg, plan = plan_of inst.Structural.func in
      Array.fold_left
        (fun acc (b : P.block) ->
          let x =
            Flowvar.var (Flowvar.Block { ctx; func = fname; block = b.P.id })
          in
          match plan.(b.P.id) with
          | None ->
            L.add acc (L.scale (Rat.of_int costs.(b.P.id).Cost.worst) x)
          | Some l ->
            (* warm cost per execution, plus a full line fill per entry of
               the resident loop *)
            let warm =
              L.scale (Rat.of_int costs.(b.P.id).Cost.worst_warm) x
            in
            let fill =
              costs.(b.P.id).Cost.worst - costs.(b.P.id).Cost.worst_warm
            in
            let entries =
              List.fold_left
                (fun e (src, dst) ->
                  L.add e
                    (Flowvar.var (Flowvar.Edge { ctx; func = fname; src; dst })))
                L.zero
                (Ipet_cfg.Loops.entry_edges cfg l)
            in
            L.add acc (L.add warm (L.scale (Rat.of_int fill) entries)))
        acc inst.Structural.func.P.blocks)
    L.zero insts

let wcet_objective spec =
  cost_objective spec (instances spec) ~select:(fun b -> b.Cost.worst)

(* aggregate a solver assignment into per-(func, block) counts *)
let counts_of_assignment insts env =
  let table = Hashtbl.create 32 in
  List.iter
    (fun (inst : Structural.instance) ->
      let fname = inst.Structural.func.P.name in
      Array.iter
        (fun (b : P.block) ->
          let name =
            Flowvar.name
              (Flowvar.Block
                 { ctx = inst.Structural.ctx; func = fname; block = b.P.id })
          in
          let v = env name in
          if not (Rat.is_zero v) then begin
            let key = (fname, b.P.id) in
            let cur = Option.value ~default:0 (Hashtbl.find_opt table key) in
            Hashtbl.replace table key (cur + Rat.to_int v)
          end)
        inst.Structural.func.P.blocks)
    insts;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] |> List.sort compare

(* constraints with zero slack at the optimum, excluding plain flow
   equations: these are the loop bounds and path facts that actually
   determine the reported extreme *)
let binding_constraints constraints env =
  List.filter_map
    (fun (c : Lp.constr) ->
      match c.Lp.rel with
      | Lp.Eq -> None
      | Lp.Le | Lp.Ge ->
        if c.Lp.origin <> "" && Rat.is_zero (Ipet_lp.Linexpr.eval env c.Lp.expr)
        then Some c.Lp.origin
        else None)
    constraints
  |> List.sort_uniq compare

(* A canonical optimal witness: re-solve the winning ILP restricted to its
   optimal face (objective pinned to the optimal value) with a fixed
   pipeline. Optima of these flow systems are often degenerate — symmetric
   branches of equal cost admit several optimal vertices — and which one a
   simplex run lands on depends on incidental pivoting order. The face
   re-solve makes the reported witness a function of the problem and its
   optimal value only, so block counts are identical however the optimum
   was found (in particular, with and without presolve). *)
let canonical_witness ~pool problem value fallback =
  Obs.span "ilp.witness" (fun () ->
    let face =
      Lp.make problem.Lp.direction problem.Lp.objective
        (problem.Lp.constraints
         @ [ Lp.eq ~origin:"optimal-face" problem.Lp.objective
               (L.const value) ])
    in
    match Ilp.solve ~presolve:true ~pool face with
    | Ilp.Optimal { assignment; _ } -> assignment
    | Ilp.Infeasible _ | Ilp.Unbounded _ -> fallback)

(* Certify the winning bound: one un-presolved LP solve, started at the
   witness, recovers exact dual multipliers for the original constraint
   set (Certify), then the trusted checker validates the whole package.
   Production failure is an analysis error — the ILP was just solved to
   optimality, so its LP relaxation cannot be infeasible or unbounded —
   while a rejected certificate is carried in the result for the caller
   to surface. Only the emit/check spans and times are recorded here: the
   verdict's metrics belong to whoever surfaces it (Report's [cert.*]
   gauges, the daemon's [serve.cert.*] counters). *)
let certify_extreme ~dir_label problem value assignment =
  let args = [ ("solver", dir_label) ] in
  let produced, emit_seconds =
    Obs.span "cert.emit" ~args (fun () ->
        Obs.timed (fun () ->
            Ipet_cert.Certify.certify problem ~witness:assignment ~bound:value))
  in
  match produced with
  | Error e -> fail "certificate production failed (%s): %s" dir_label e
  | Ok cert ->
    let verdict, check_seconds =
      Obs.span "cert.check" ~args (fun () ->
          Obs.timed (fun () -> Ipet_cert.Checker.check problem cert))
    in
    Obs.observe ~labels:args "cert.emit_seconds" emit_seconds;
    Obs.observe ~labels:args "cert.check_seconds" check_seconds;
    { cert; verdict; emit_seconds; check_seconds }

let solve_extreme ?(canonical = true) ~pool ~certify spec insts problems =
  let direction = (List.hd problems).Lp.direction in
  let better a b =
    match direction with
    | Lp.Maximize -> Rat.compare a b > 0
    | Lp.Minimize -> Rat.compare a b < 0
  in
  let dir_label =
    match direction with Lp.Maximize -> "wcet" | Lp.Minimize -> "bcet"
  in
  let best = ref None in
  let lp_calls = ref 0 in
  let nodes = ref 0 in
  let pivots = ref 0 in
  let refactors = ref 0 in
  let whits = ref 0 in
  let wmisses = ref 0 in
  let infeasible = ref 0 in
  let all_first = ref true in
  let solved = ref 0 in
  let pv_before = ref 0 and pv_after = ref 0 in
  let pc_before = ref 0 and pc_after = ref 0 in
  let p_rounds = ref 0 in
  let record problem (stats : Ilp.stats) =
    incr solved;
    lp_calls := !lp_calls + stats.Ilp.lp_calls;
    nodes := !nodes + stats.Ilp.nodes;
    pivots := !pivots + stats.Ilp.pivots;
    refactors := !refactors + stats.Ilp.refactorizations;
    whits := !whits + stats.Ilp.warm_hits;
    wmisses := !wmisses + stats.Ilp.warm_misses;
    match stats.Ilp.presolve with
    | Some p ->
      pv_before := !pv_before + p.Ipet_lp.Presolve.vars_before;
      pv_after := !pv_after + p.Ipet_lp.Presolve.vars_after;
      pc_before := !pc_before + p.Ipet_lp.Presolve.constrs_before;
      pc_after := !pc_after + p.Ipet_lp.Presolve.constrs_after;
      p_rounds := !p_rounds + p.Ipet_lp.Presolve.rounds
    | None ->
      let nv = Lp.num_variables problem and nc = Lp.num_constraints problem in
      pv_before := !pv_before + nv;
      pv_after := !pv_after + nv;
      pc_before := !pc_before + nc;
      pc_after := !pc_after + nc
  in
  (* Sets fan out over the pool — disjunctive DNF sets are independent
     problems — and the fold below walks the results in set order, so the
     incumbent choice, the statistics and the surfaced error are those of
     a sequential run whatever the job count. *)
  let solve_set problem = Ilp.solve ~presolve:spec.presolve ~pool problem in
  let run_set (i, problem) =
    if not (Obs.enabled ()) then (problem, solve_set problem)
    else
      Obs.span "ilp.solve"
        ~args:[ ("solver", dir_label); ("set", string_of_int i) ]
        (fun () ->
          let r, dt = Obs.timed (fun () -> solve_set problem) in
          Obs.observe
            ~labels:
              [ ("solver", dir_label);
                ("domain", string_of_int (Ipet_par.Par_compat.domain_id ())) ]
            "lp.solve_seconds" dt;
          (problem, r))
  in
  let results =
    Pool.map_list pool run_set (List.mapi (fun i p -> (i, p)) problems)
  in
  List.iter
    (fun (problem, result) ->
      match result with
      | Ilp.Optimal { value; assignment; stats } ->
        record problem stats;
        if not stats.Ilp.first_lp_integral then all_first := false;
        (match !best with
         | Some (v, _, _) when not (better value v) -> ()
         | Some _ | None -> best := Some (value, assignment, problem))
      | Ilp.Infeasible stats ->
        record problem stats;
        incr infeasible
      | Ilp.Unbounded _ ->
        fail
          "ILP unbounded while computing %s: a loop bound or functionality \
           constraint is missing"
          (String.uppercase_ascii dir_label))
    results;
  match !best with
  | None -> fail "every functionality constraint set is infeasible"
  | Some (value, assignment, problem) ->
    let assignment =
      if canonical then canonical_witness ~pool problem value assignment
      else assignment
    in
    let certificate =
      if certify then Some (certify_extreme ~dir_label problem value assignment)
      else None
    in
    let stats =
      { sets_total = List.length problems;
        sets_pruned = 0;
        sets_solved = !solved;
        sets_infeasible = !infeasible;
        lp_calls = !lp_calls;
        bnb_nodes = !nodes;
        simplex_pivots = !pivots;
        refactorizations = !refactors;
        warm_hits = !whits;
        warm_misses = !wmisses;
        all_first_lp_integral = !all_first;
        presolve_vars_before = !pv_before;
        presolve_vars_after = !pv_after;
        presolve_constrs_before = !pc_before;
        presolve_constrs_after = !pc_after;
        presolve_rounds = !p_rounds }
    in
    let env = Ipet_lp.Simplex.assignment_env assignment in
    ( { cycles = Rat.to_int value;
        counts = counts_of_assignment insts env;
        binding = binding_constraints problem.Lp.constraints env },
      stats,
      certificate )

let loop_constraints spec insts =
  match Annotation.constraints spec.prog insts spec.loop_bounds with
  | cs, [] -> cs
  | _, us ->
    let render (u : Annotation.unbounded) =
      if u.Annotation.header_line > 0 then
        Printf.sprintf "%s (header at line %d)" u.Annotation.ufunc
          u.Annotation.header_line
      else
        Printf.sprintf "%s (header block %d)" u.Annotation.ufunc
          u.Annotation.header_block
    in
    fail "missing loop bounds for: %s" (String.concat ", " (List.map render us))

let prepare spec =
  Obs.span "analysis.prepare" ~args:[ ("root", spec.root) ] (fun () ->
  let insts = instances spec in
  let structural = Structural.constraints spec.prog insts in
  let loop_cs = loop_constraints spec insts in
  let sets = Functional.dnf spec.functional in
  let total = List.length sets in
  let sets, pruned = Functional.prune_null_sets sets in
  if sets = [] then fail "all %d functionality constraint sets are null" total;
  (insts, structural @ loop_cs, sets, total, pruned))

(* one ILP per surviving constraint set *)
let set_problems spec insts base sets ~direction =
  let obj =
    match direction with
    | Lp.Maximize when spec.first_miss_refinement ->
      refined_wcet_objective spec insts
    | Lp.Maximize -> cost_objective spec insts ~select:(fun b -> b.Cost.worst)
    | Lp.Minimize -> cost_objective spec insts ~select:(fun b -> b.Cost.best)
  in
  List.map
    (fun set ->
      let cs =
        List.map
          (fun atom -> Functional.atom_to_constr spec.prog insts ~root:spec.root atom)
          set
      in
      Lp.make direction obj (cs @ base))
    sets

let problems spec ~direction =
  let insts, base, sets, _, _ = prepare spec in
  set_problems spec insts base sets ~direction

let wcet_problems spec = problems spec ~direction:Lp.Maximize
let bcet_problems spec = problems spec ~direction:Lp.Minimize

let analyze ?pool ?(certify = false) spec =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let insts, base, sets, total, pruned = prepare spec in
  let side direction span =
    Obs.span span ~args:[ ("root", spec.root) ] (fun () ->
      let ext, stats, cert =
        solve_extreme ~pool ~certify spec insts
          (set_problems spec insts base sets ~direction)
      in
      (ext, { stats with sets_total = total; sets_pruned = pruned }, cert))
  in
  let wcet, wcet_stats, wcet_cert = side Lp.Maximize "analysis.wcet" in
  let bcet, bcet_stats, bcet_cert = side Lp.Minimize "analysis.bcet" in
  { wcet; bcet; wcet_stats; bcet_stats; wcet_cert; bcet_cert }

let estimated_bound ?pool spec =
  let r = analyze ?pool spec in
  (r.bcet.cycles, r.wcet.cycles)

type sensitivity_row = {
  annotation : Annotation.t;
  base_wcet : int;
  tightened_wcet : int;  (** WCET with this loop's [hi] reduced by one *)
}

(* how much each loop bound is worth: re-solve the WCET with hi-1 for one
   annotation at a time (the exact discrete analogue of a shadow price) *)
let wcet_sensitivity ?pool spec =
  let base = (analyze ?pool spec).wcet.cycles in
  List.filteri (fun _ _ -> true) spec.loop_bounds
  |> List.map (fun (ann : Annotation.t) ->
    let tightened_wcet =
      if ann.Annotation.hi <= ann.Annotation.lo then base
      else begin
        let loop_bounds =
          List.map
            (fun (a : Annotation.t) ->
              if a == ann then { a with Annotation.hi = a.Annotation.hi - 1 }
              else a)
            spec.loop_bounds
        in
        match analyze ?pool { spec with loop_bounds } with
        | r -> r.wcet.cycles
        | exception Analysis_error _ -> base
      end
    in
    { annotation = ann; base_wcet = base; tightened_wcet })
