(* fuzz-sized: a seeded draw of Gen.case_sized programs, each checked by
   the soundness oracle the way `cinderella fuzz` checks a case (analysis
   with certificates, the presolve-off differential solve, a simulated run,
   the optimized-vs-plain compile), at the fuzzing default budget and at a
   larger one, with equal numbers of cases per budget.

   A case's check time follows the size of its WCET ILP closely, so the
   draw is stratified on that size with the shares a plain draw has: the
   bands at each budget are the quintiles of the ILP sizes of an
   unstratified draw of [natural_draws] programs, and a block holds one
   case per quintile per budget, each the first seeded program whose ILP
   size is within [tolerance] of the middle of its quintile (the 10th,
   30th, ..., 90th percentile). A block is therefore a proportional
   sample of what a campaign at those budgets draws, and its size profile
   is pinned: the programs change with the seed, their sizes hardly do.
   Any program of the quintile would let the wide top quintiles (up to
   324 and 382 variables) move a run's case time with the seed. *)

open Common
module A = Ipet.Analysis
module Gen = Ipet_fuzz.Gen
module Oracle = Ipet_fuzz.Oracle
module Frontend = Ipet_lang.Frontend
module Interp = Ipet_sim.Interp

let budgets = [| 12; 40 |]
let bands = 5
let natural_draws = 300
let tolerance = 0.03
let block = Array.length budgets * bands

type case = { index : int; budget : int; mach : Machine.t; case_seed : int }

let spec_of ~mach (g : Gen.case) src =
  let ast, _ = Frontend.parse_and_check src in
  let prog = (Frontend.compile_string_exn src).Ipet_lang.Compile.prog in
  A.spec ~mach ~cache:g.Gen.cache ~loop_bounds:(Ipet.Autobound.infer ast) ~root:"main" prog

let generate ~budget case_seed =
  let g = Gen.case_sized ~stmt_budget:budget case_seed in
  (g, Ipet_fuzz.Render.program g.Gen.prog)

(* WCET ILP variables before presolve. Measured on e32: both machines build
   ILPs of the same size for these programs. *)
let ilp_size ~budget case_seed =
  let g, src = generate ~budget case_seed in
  match A.wcet_problems (spec_of ~mach:Machine.e32 g src) with
  | problems -> Some (List.fold_left (fun a p -> a + Ipet_lp.Lp_problem.num_variables p) 0 problems)
  | exception _ -> None

(* Per budget, the middle of each quintile of the sizes of programs
   0 .. natural_draws-1: the same for every seed. *)
let targets =
  lazy
    (Array.map
       (fun budget ->
         let sizes =
           Array.of_list
             (List.sort compare (List.filter_map (ilp_size ~budget) (List.init natural_draws Fun.id)))
         in
         let n = Array.length sizes in
         Array.init bands (fun d -> sizes.(((2 * d) + 1) * n / (2 * bands))))
       budgets)

let near target v = abs (v - target) <= max 1 (int_of_float (tolerance *. float_of_int target))

(* Slot [k] of block [b]: budget [k / bands], quintile [k mod bands], and
   the machines alternating from slot to slot and from block to block.
   Choosing the program is the benchmark's work, not the program's, and
   is not timed. *)
let case ~seed ~block:b k =
  let bi = k / bands and band = k mod bands in
  let budget = budgets.(bi) and target = (Lazy.force targets).(bi).(band) in
  let mach = List.nth machines ((k + b) mod 2) in
  let rec search j =
    if j > 20000 then
      failwith (Printf.sprintf "fuzz-sized: no program of size %d at budget %d" target budget);
    let case_seed = Hashtbl.hash (seed, b, k, j) in
    match ilp_size ~budget case_seed with
    | Some v when near target v -> { index = (b * block) + k; budget; mach; case_seed }
    | _ -> search (j + 1)
  in
  search 0

let block_cases ~seed b = List.init block (case ~seed ~block:b)

(* one case: generation, then the oracle; returns the verdict and the two
   wall times *)
let run_case ?(traced = false) c =
  let wrap name f =
    if traced then span_time ~args:[ ("mach", mach_id c.mach) ] name f else time f
  in
  let (g, src), t_gen = wrap "fuzz.gen" (fun () -> generate ~budget:c.budget c.case_seed) in
  let verdict, t_oracle =
    wrap "fuzz.oracle" (fun () -> Oracle.check ~mach:c.mach ~cache:g.Gen.cache src)
  in
  (g, src, verdict, t_gen, t_oracle)

let judge tally c = function
  | Oracle.Pass _ -> check tally true ""
  | Oracle.Fail f ->
    check tally false "case %d (seed %d, budget %d, %s): %s: %s" c.index c.case_seed
      c.budget (mach_id c.mach) (Oracle.kind_name f.Oracle.kind) f.Oracle.detail

(* Warm-up on the same two default-budget cases per machine whatever the
   seed: the set-up a campaign pays before its first case. *)
let warmup = lazy (List.init 4 (case ~seed:0 ~block:0))
let setup () =
  let cases = Lazy.force warmup in
  snd (time (fun () -> List.iter (fun c -> ignore (run_case c)) cases))

(* --- per-layer probes ------------------------------------------------------ *)

(* Time the public entry points the oracle goes through, on the same case.
   [oracle_s] is the traced oracle call and [recorded] what the program
   recorded during it; the oracle's self time is what the layers leave. *)
let probe acc ~first c (g : Gen.case) src ~oracle_s ~recorded verdict =
  let mach = mach_id c.mach in
  let _, t_compile =
    span_time "lang.compile" (fun () ->
        ignore (Frontend.compile_string_exn src);
        ignore (Frontend.compile_string_exn ~optimize:true src))
  in
  let spec = spec_of ~mach:c.mach g src in
  let problems, t_prep =
    span_time "core.prepare" (fun () -> A.wcet_problems spec @ A.bcet_problems spec)
  in
  (* the oracle solves every ILP with presolve and again without *)
  let t_pre, t_solve =
    List.fold_left
      (fun (pre, solve) problem ->
        let _, t_pre = span_time "lp.presolve" (fun () -> Ipet_lp.Presolve.run problem) in
        let _, t_ilp = span_time "lp.ilp" (fun () -> Ipet_lp.Ilp.solve problem) in
        let _, t_np =
          span_time "lp.ilp" (fun () -> Ipet_lp.Ilp.solve ~presolve:false problem)
        in
        (pre +. t_pre, solve +. (t_ilp -. t_pre) +. t_np))
      (0.0, 0.0) problems
  in
  (* and simulates the plain and the optimized build once each *)
  let t_create, t_run =
    List.fold_left
      (fun (cr, ru) optimize ->
        let compiled = Frontend.compile_string_exn ~optimize src in
        let m, t_c =
          span_time "sim.create" (fun () ->
              Interp.create ~mach:c.mach ~cache:g.Gen.cache compiled.Ipet_lang.Compile.prog
                ~init:compiled.Ipet_lang.Compile.init_data)
        in
        let _, t_r = span_time "sim.run" (fun () -> Interp.call m "main" []) in
        (cr +. t_c, ru +. t_r))
      (0.0, 0.0) [ false; true ]
  in
  let layers =
    [ ("lang.compile_s", t_compile); ("core.prepare_s", t_prep); ("lp.presolve_s", t_pre);
      ("lp.solve_s", t_solve); ("sim.create_s", t_create); ("sim.run_s", t_run) ]
    @ recorded
  in
  List.iter (fun (l, s) -> add_secs acc ~mach l s) layers;
  add_secs acc ~mach "fuzz.oracle_s" (oracle_s -. sum (List.map snd layers));
  if first then begin
    (* counts, from one more (untimed) certified analysis of the case *)
    let r = A.analyze ~certify:true spec in
    add_count acc ~mach "fuzz.cases" 1;
    add_lp_counts acc ~mach r;
    List.iter
      (Option.iter (fun c -> add_count acc ~mach "cert.pivots" (cert_pivots problems c)))
      [ r.A.wcet_cert; r.A.bcet_cert ];
    match verdict with
    | Oracle.Pass st -> add_count acc ~mach "sim.instructions" st.Oracle.instructions
    | Oracle.Fail _ -> ()
  end

(* --- entry point ------------------------------------------------------------- *)

(* Check whole blocks until the checked cases' own time is the nearest
   block boundary to [seconds]; each block's programs are chosen before it
   starts, so the time goes entirely to measured cases. Returns each
   block's case times. *)
let measure ~seconds f =
  let rec loop b acc measured =
    let cases = f b in
    let acc = cases :: acc and measured = measured +. sum cases in
    if measured +. (measured /. float_of_int (2 * (b + 1))) < seconds then loop (b + 1) acc measured
    else List.rev acc
  in
  loop 0 [] 0.0

let run ~seed ~seconds ~trace ~smoke ~trace_file tally =
  ignore (Lazy.force targets);
  let setups = List.init 5 (fun _ -> setup ()) in
  (* a smoke run takes the first two cases, one per machine *)
  let cases_of b = if smoke then [ case ~seed ~block:0 0; case ~seed ~block:0 1 ] else block_cases ~seed b in
  let seconds = if smoke then 0.0 else seconds in
  let check c =
    let _, _, verdict, t_gen, t_oracle = run_case c in
    judge tally c verdict;
    t_gen +. t_oracle
  in
  if not trace then begin
    let blocks = measure ~seconds (fun b -> List.map check (cases_of b)) in
    let lat = List.concat blocks in
    (* The per-case figure is the median over blocks of the mean case time
       in a block. A block holds one case per size band, so the median does
       not hinge on the few cases of whichever band sits in the middle. *)
    let block_mean l = sum l /. float_of_int (List.length l) in
    [ m "setup_s" "s" (median setups);
      m "peak_rss_mb" "MB" (peak_rss_mb None);
      m "op_p50_ms" "ms" (1000.0 *. median (List.map block_mean blocks));
      m "ops_per_s" "1/s" (float_of_int (List.length lat) /. sum lat) ]
  end
  else begin
    (* the traced unit: the first block, untraced then traced, repeated *)
    let acc = acc () in
    let unit_cases = cases_of 0 in
    let t_end = now () +. seconds in
    let rec loop first (untraced, traced, rates) =
      let u = sum (List.map check unit_cases) in
      trace_begin ();
      let t =
        sum
          (List.map
             (fun c ->
               let (g, src, verdict, t_gen, t_oracle), recorded =
                 program_layers (fun () -> run_case ~traced:true c)
               in
               judge tally c verdict;
               add_secs acc ~mach:(mach_id c.mach) "fuzz.gen_s" t_gen;
               probe acc ~first c g src ~oracle_s:t_oracle ~recorded verdict;
               t_gen +. t_oracle)
             unit_cases)
      in
      trace_end ~file:trace_file;
      let acc' = (u :: untraced, t :: traced, (float_of_int (List.length unit_cases) /. u) :: rates) in
      if now () < t_end then loop false acc' else acc'
    in
    let untraced, traced, rates = loop true ([], [], []) in
    layer_report ~workload:"fuzz-sized" ~units:(List.length traced) ~traced ~untraced ~acc
      ~no_number:[]
    @ [ m "fuzz.cases_per_s" "1/s" (median rates) ]
  end
