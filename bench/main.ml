(* Regenerates every table and figure of the paper's evaluation:

     fig1..fig6   the illustrative figures (bound enclosure, structural
                  constraints of Figs. 2-4, the annotated listing of Fig. 5,
                  the caller/callee constraint of Fig. 6)
     table1       benchmark set with lines and constraint-set counts
     table2       estimated vs calculated bound, path-analysis pessimism
     table3       estimated vs measured bound, total pessimism
     stats        the Section VI solver observations (LP calls, first-LP
                  integrality)
     bechamel     micro-benchmarks (one Bechamel test per table)

   Run with no argument to produce everything in order. *)

module P = Ipet_isa.Prog
module V = Ipet_isa.Value
module Frontend = Ipet_lang.Frontend
module Compile = Ipet_lang.Compile
module Interp = Ipet_sim.Interp
module Analysis = Ipet.Analysis
module Structural = Ipet.Structural
module Report = Ipet.Report
module E = Ipet_suite.Experiments
module Bspec = Ipet_suite.Bspec
module Obs = Ipet_obs.Obs
module Pool = Ipet_par.Pool
module Rat = Ipet_num.Rat
module Lp = Ipet_lp.Lp_problem
module Linexpr = Ipet_lp.Linexpr
module Sparse = Ipet_lp.Sparse
module Revised = Ipet_lp.Revised

let domains_available () = Ipet_par.Par_compat.recommended_domain_count ()

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* --- figures ------------------------------------------------------------ *)

let fig1 () =
  header "Figure 1: estimated bound encloses the actual bound (check_data)";
  let r = E.run (Ipet_suite.Suite.find "check_data") in
  let bar name { E.lo; hi } =
    Printf.printf "  %-12s [%6d, %6d]\n" name lo hi
  in
  bar "estimated" r.E.estimated;
  bar "calculated" r.E.calculated;
  bar "measured" r.E.measured;
  Printf.printf
    "  estimated.lo <= calculated.lo <= measured.lo <= measured.hi <= \
     calculated.hi <= estimated.hi : %b\n"
    (r.E.estimated.E.lo <= r.E.calculated.E.lo
     && r.E.calculated.E.lo <= r.E.measured.E.lo
     && r.E.measured.E.lo <= r.E.measured.E.hi
     && r.E.measured.E.hi <= r.E.calculated.E.hi
     && r.E.calculated.E.hi <= r.E.estimated.E.hi)

let show_structure title src root =
  header title;
  let compiled = Frontend.compile_string_exn src in
  let prog = compiled.Compile.prog in
  print_string (Report.annotated_source ~source:src prog ~func:root);
  let insts = Structural.instances prog ~root in
  let constraints = Structural.constraints prog insts in
  print_string (Report.constraints_listing constraints)

let fig2 () =
  show_structure
    "Figure 2: if-then-else structural constraints (paper eqs. 2-5)"
    "int f(int p) {\n\
    \  int q;\n\
    \  if (p)\n\
    \    q = 1;\n\
    \  else\n\
    \    q = 2;\n\
    \  return q;\n\
     }\n"
    "f"

let fig3 () =
  show_structure
    "Figure 3: while-loop structural constraints (paper eqs. 6-9)"
    "int f(int p) {\n\
    \  int q;\n\
    \  q = p;\n\
    \  while (q < 10)\n\
    \    q = q + 1;\n\
    \  return q;\n\
     }\n"
    "f"

let fig4 () =
  show_structure
    "Figure 4: function-call f-edge constraints (paper eqs. 10-13)"
    "int acc;\n\
     void store(int i) {\n\
    \  acc = acc + i;\n\
     }\n\
     void main_task() {\n\
    \  int i;\n\
    \  int n;\n\
    \  i = 10;\n\
    \  store(i);\n\
    \  n = 2 * i;\n\
    \  store(n);\n\
     }\n"
    "main_task"

let fig5 () =
  header "Figure 5: annotated check_data listing (cinderella output)";
  let bench = Ipet_suite.Suite.find "check_data" in
  let compiled = Bspec.compile bench in
  print_string
    (Report.annotated_source ~source:bench.Bspec.source compiled.Compile.prog
       ~func:"check_data")

let fig6_src = {|int data[10];
int cleared;
int check_data() {
  int i; int morecheck; int wrongone;
  morecheck = 1;
  i = 0;
  wrongone = 0 - 1;
  while (morecheck) {
    if (data[i] < 0) {
      wrongone = i;
      morecheck = 0;
    } else {
      i = i + 1;
      if (i >= 10)
        morecheck = 0;
    }
  }
  if (wrongone >= 0)
    return 0;
  else
    return 1;
}
void clear_data() {
  int i;
  for (i = 0; i < 10; i = i + 1)
    data[i] = 0;
  cleared = 1;
}
void task() {
  int status;
  status = check_data();
  if (!status)
    clear_data();
}
|}

let fig6 () =
  header "Figure 6: caller/callee functionality constraint (x12 = x8.f1)";
  let src = fig6_src in
  let compiled = Frontend.compile_string_exn src in
  let prog = compiled.Compile.prog in
  let loop_bounds =
    [ Ipet.Annotation.loop ~func:"check_data"
        ~line:(Bspec.line_containing ~source:src "while (morecheck)") ~lo:1 ~hi:10;
      Ipet.Annotation.loop ~func:"clear_data"
        ~line:(Bspec.line_containing ~source:src "for (i = 0; i < 10") ~lo:10 ~hi:10 ]
  in
  let task_f = P.find_func prog "task" in
  let call_site =
    let found = ref None in
    Array.iter
      (fun (b : P.block) ->
        List.iteri
          (fun occ callee ->
            if callee = "check_data" then
              found := Some (Ipet.Callsite.make ~occurrence:occ b.P.id))
          (P.calls_of_block b))
      task_f.P.blocks;
    Option.get !found
  in
  let open Ipet.Functional in
  let x_return0 =
    x_at_in ~path:[ call_site ] ~func:"check_data"
      ~line:(Bspec.line_containing ~source:src "return 0;")
  in
  let scoped = x ~func:"clear_data" 0 =. x_return0 in
  Format.printf "constraint (18): %a@." Ipet.Functional.pp scoped;
  (* the paper's constraints (16) and (17) inside check_data, so that the
     caller/callee link is the only difference between the two solves *)
  let found =
    x_at ~func:"check_data"
      ~line:(Bspec.line_containing ~source:src "wrongone = i;")
  in
  let stop =
    x_at ~func:"check_data"
      ~line:(Bspec.line_containing ~source:src "        morecheck = 0;")
  in
  let intra =
    [ (found =. const 0 &&. (stop =. const 1))
      ||. (found =. const 1 &&. (stop =. const 0));
      found =. x_return0 ]
  in
  let solve functional =
    Analysis.analyze (Analysis.spec prog ~root:"task" ~loop_bounds ~functional)
  in
  let plain = solve intra in
  let linked = solve (scoped :: intra) in
  Printf.printf "estimated bound without it: [%d, %d]\n"
    plain.Analysis.bcet.Analysis.cycles plain.Analysis.wcet.Analysis.cycles;
  Printf.printf "estimated bound with it:    [%d, %d]\n"
    linked.Analysis.bcet.Analysis.cycles linked.Analysis.wcet.Analysis.cycles

(* --- tables ------------------------------------------------------------- *)

let rows = ref None
let table_mach = ref Ipet_machine.Machine.e32

let all_rows () =
  match !rows with
  | Some r -> r
  | None ->
    let r = E.run_all ~mach:!table_mach () in
    rows := Some r;
    r

let table1 () =
  header "Table I: set of benchmark examples";
  Printf.printf "  %-17s %-42s %6s %10s\n" "Function" "Description" "Lines" "Sets";
  List.iter2
    (fun (row : E.row) (bench : Bspec.t) ->
      let sets =
        if row.E.sets_pruned > 0 then
          Printf.sprintf "%d (of %d)" (row.E.sets_total - row.E.sets_pruned)
            row.E.sets_total
        else string_of_int row.E.sets_total
      in
      Printf.printf "  %-17s %-42s %6d %10s\n" row.E.bench bench.Bspec.description
        row.E.lines sets)
    (all_rows ()) Ipet_suite.Suite.all

let pp_interval { E.lo; hi } = Printf.sprintf "[%d, %d]" lo hi

let table2 () =
  header "Table II: pessimism in path analysis (estimated vs calculated)";
  print_string (E.render_table2 (all_rows ()))

let table3 () =
  header "Table III: estimated vs measured bound (cycle-accurate simulation)";
  print_string (E.render_table3 (all_rows ()))

let stats () =
  header "Section VI: ILP solver statistics";
  Printf.printf "  %-17s %9s %13s\n" "Function" "LP calls" "1st integral";
  List.iter
    (fun (row : E.row) ->
      Printf.printf "  %-17s %9d %13b\n" row.E.bench row.E.lp_calls
        row.E.all_first_lp_integral)
    (all_rows ());
  let all_integral =
    List.for_all (fun (r : E.row) -> r.E.all_first_lp_integral) (all_rows ())
  in
  Printf.printf
    "\n  Paper, Section VI: \"the branch-and-bound ILP solver finds that the\n\
    \  solution of the very first linear program call it makes is integer\n\
    \  valued\"; reproduced here: %b\n" all_integral

(* --- ablations ----------------------------------------------------------- *)

let ablation_cache () =
  header "Ablation: i-cache capacity vs Table III upper pessimism";
  let names = [ "check_data"; "piksrt"; "jpeg_fdct_islow"; "matgen" ] in
  Printf.printf "  %-17s" "cache bytes";
  List.iter (fun n -> Printf.printf " %16s" n) names;
  print_newline ();
  List.iter
    (fun size ->
      let cache =
        { Ipet_machine.Icache.i960kb with Ipet_machine.Icache.size_bytes = size }
      in
      Printf.printf "  %-17d" size;
      List.iter
        (fun name ->
          let row = E.run ~cache (Ipet_suite.Suite.find name) in
          let _, phi = E.pessimism ~estimated:row.E.estimated ~reference:row.E.measured in
          Printf.printf " %16.2f" phi)
        names;
      print_newline ())
    [ 32; 64; 128; 512; 2048 ];
  print_endline
    "
  A larger cache speeds the measured run but the all-miss WCET model
    \  never benefits, so the upper pessimism grows with capacity - the
    \  motivation for the cache modelling future work of Section VII."

let ablation_refine () =
  header "Ablation: Section IV first-miss refinement across the suite";
  Printf.printf "  %-17s %12s %12s %12s
" "Function" "baseline" "refined"
    "measured";
  List.iter
    (fun (bench : Bspec.t) ->
      let compiled = Bspec.compile bench in
      let prog = compiled.Compile.prog in
      let wcet refined =
        let spec =
          Analysis.spec prog ~root:bench.Bspec.root
            ~loop_bounds:bench.Bspec.loop_bounds ~functional:bench.Bspec.functional
            ~first_miss_refinement:refined
        in
        (Analysis.analyze spec).Analysis.wcet.Analysis.cycles
      in
      let measured =
        List.fold_left
          (fun acc (d : Bspec.dataset) ->
            let m = Interp.create prog ~init:compiled.Compile.init_data in
            d.Bspec.setup m;
            Interp.flush_cache m;
            ignore (Interp.call m bench.Bspec.root d.Bspec.args);
            max acc (Interp.cycles m))
          0 bench.Bspec.worst_data
      in
      Printf.printf "  %-17s %12d %12d %12d
" bench.Bspec.name (wcet false)
        (wcet true) measured)
    Ipet_suite.Suite.all;
  print_endline
    "
  The refinement is sound (refined >= measured) and tightens every
    \  benchmark whose hot loops are cache-resident and call-free."

let table_extra () =
  header "Extended suite (Malardalen-style): estimated vs measured";
  Printf.printf "  %-12s %-24s %-24s %s\n" "Function" "Estimated Bound"
    "Measured Bound" "Pessimism";
  List.iter
    (fun (bench : Bspec.t) ->
      let row = E.run bench in
      let plo, phi =
        E.pessimism ~estimated:row.E.estimated ~reference:row.E.measured
      in
      Printf.printf "  %-12s %-24s %-24s [%.2f, %.2f]\n" row.E.bench
        (pp_interval row.E.estimated) (pp_interval row.E.measured) plo phi)
    Ipet_suite.Suite.extended

let ablation_dcache () =
  header "Ablation: adding a data cache to the micro-architecture model";
  let dcache =
    { Ipet_machine.Icache.size_bytes = 256; line_bytes = 16; miss_penalty = 6 }
  in
  Printf.printf "  %-17s %-24s %-24s\n" "Function" "flat memory" "with 256B dcache";
  List.iter
    (fun name ->
      let bench = Ipet_suite.Suite.find name in
      let flat = E.run bench in
      let cached = E.run ~dcache bench in
      Printf.printf "  %-17s %-24s %-24s\n" name
        (pp_interval flat.E.estimated) (pp_interval cached.E.estimated))
    [ "check_data"; "piksrt"; "matgen"; "recon" ];
  print_endline
    "\n  The flat model charges every load a fixed latency; the cached model\n\
    \  widens the interval (best case hits, worst case misses) - the data\n\
    \  side of the cache-modelling future work of Section VII."

let ablation_compile () =
  header "Ablation: optimizer and register pressure vs WCET";
  Printf.printf "  %-17s %-10s %12s %12s %9s
" "Function" "variant" "WCET"
    "measured" "instrs";
  let variants =
    [ ("-O0", false, None); ("-O1", true, None); ("-O1 r16", true, Some 16);
      ("-O1 r8", true, Some 8) ]
  in
  List.iter
    (fun name ->
      let bench = Ipet_suite.Suite.find name in
      List.iter
        (fun (label, optimize, registers) ->
          let compiled =
            Frontend.compile_string_exn ~optimize ?registers bench.Bspec.source
          in
          let prog = compiled.Compile.prog in
          let spec =
            Analysis.spec prog ~root:bench.Bspec.root
              ~loop_bounds:bench.Bspec.loop_bounds
              ~functional:bench.Bspec.functional
          in
          let wcet = (Analysis.analyze spec).Analysis.wcet.Analysis.cycles in
          let measured, instrs =
            List.fold_left
              (fun (acc, ins) (d : Bspec.dataset) ->
                let m = Interp.create prog ~init:compiled.Compile.init_data in
                d.Bspec.setup m;
                Interp.flush_cache m;
                ignore (Interp.call m bench.Bspec.root d.Bspec.args);
                (max acc (Interp.cycles m), max ins (Interp.instructions m)))
              (0, 0) bench.Bspec.worst_data
          in
          Printf.printf "  %-17s %-10s %12d %12d %9d
" name label wcet measured
            instrs)
        variants)
    [ "matgen"; "recon"; "jpeg_fdct_islow" ];
  print_endline
    "
  The analysis consumes whatever code the compiler produced: the
    \  optimizer shrinks both the WCET and the measured time, while an
    \  8-register file adds spill traffic that both numbers track."

(* --- machine-readable perf snapshot ------------------------------------- *)

(* Writes BENCH_ipet.json: per-benchmark wall time of the full analysis with
   and without presolve, LP calls, and the presolve variable/constraint
   reductions (WCET and BCET stats summed) — a perf trajectory future
   changes can be compared against. Per-benchmark analyses use the default
   pool (--jobs), and a suite-level probe records the parallel speedup:
   wall time of analyzing the whole suite sharded across the pool vs
   sequentially. *)
let json () =
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  Obs.enable ();
  let entries =
    List.map
      (fun (bench : Bspec.t) ->
        let spec = Bspec.spec bench in
        let run presolve =
          Obs.reset ();
          time (fun () ->
            Analysis.analyze { spec with Analysis.presolve })
        in
        let with_pre, t_pre = run true in
        (* phase wall times of the presolve run, from the span engine *)
        let phase name =
          match List.assoc_opt name (Obs.span_totals ()) with
          | Some (_count, us) -> float_of_int us /. 1e6
          | None -> 0.0
        in
        let t_prepare = phase "analysis.prepare" in
        let t_wcet = phase "analysis.wcet" in
        let t_bcet = phase "analysis.bcet" in
        let _, t_plain = run false in
        let sum f =
          f with_pre.Analysis.wcet_stats + f with_pre.Analysis.bcet_stats
        in
        let vars_before = sum (fun s -> s.Analysis.presolve_vars_before) in
        let vars_after = sum (fun s -> s.Analysis.presolve_vars_after) in
        let reduction =
          if vars_before = 0 then 0.0
          else float_of_int (vars_before - vars_after) /. float_of_int vars_before
        in
        ( bench.Bspec.name,
          Printf.sprintf
            "    { \"name\": %S, \"wall_s_presolve\": %.4f, \
             \"wall_s_no_presolve\": %.4f, \"phase_prepare_s\": %.4f, \
             \"phase_wcet_s\": %.4f, \"phase_bcet_s\": %.4f, \
             \"lp_calls\": %d, \
             \"vars_before\": %d, \"vars_after\": %d, \
             \"constrs_before\": %d, \"constrs_after\": %d, \
             \"var_reduction\": %.3f }"
            bench.Bspec.name t_pre t_plain t_prepare t_wcet t_bcet
            (sum (fun s -> s.Analysis.lp_calls))
            vars_before vars_after
            (sum (fun s -> s.Analysis.presolve_constrs_before))
            (sum (fun s -> s.Analysis.presolve_constrs_after))
            reduction,
          reduction, t_pre, t_plain ))
      Ipet_suite.Suite.all
  in
  Obs.disable ();
  Obs.reset ();
  (* suite-level parallel speedup probe: analyze every benchmark, sharded
     across the pool, vs strictly sequentially *)
  let suite_analyze pool =
    ignore
      (Pool.map_list pool
         (fun b -> ignore (Analysis.analyze ~pool (Bspec.spec b)))
         Ipet_suite.Suite.all)
  in
  let jobs = Pool.jobs (Pool.default ()) in
  let (), wall_seq =
    let seq = Pool.create ~jobs:1 in
    time (fun () -> suite_analyze seq)
  in
  let (), wall_par =
    if jobs <= 1 then ((), wall_seq)
    else time (fun () -> suite_analyze (Pool.default ()))
  in
  let reductions =
    List.sort compare (List.map (fun (_, _, r, _, _) -> r) entries)
  in
  let median = List.nth reductions (List.length reductions / 2) in
  let total f = List.fold_left (fun acc e -> acc +. f e) 0.0 entries in
  let out =
    Printf.sprintf
      "{\n  \"suite\": \"ipet\",\n  \"benchmarks\": [\n%s\n  ],\n  \
       \"median_var_reduction\": %.3f,\n  \"total_wall_s_presolve\": %.4f,\n  \
       \"total_wall_s_no_presolve\": %.4f,\n  \"jobs\": %d,\n  \
       \"domains_available\": %d,\n  \
       \"suite_wall_s_jobs1\": %.4f,\n  \"suite_wall_s_jobsN\": %.4f,\n  \
       \"suite_speedup\": %.2f\n}\n"
      (String.concat ",\n" (List.map (fun (_, j, _, _, _) -> j) entries))
      median
      (total (fun (_, _, _, t, _) -> t))
      (total (fun (_, _, _, _, t) -> t))
      jobs (domains_available ()) wall_seq wall_par
      (if wall_par > 0.0 then wall_seq /. wall_par else 1.0)
  in
  let oc = open_out "BENCH_ipet.json" in
  output_string oc out;
  close_out oc;
  Printf.printf "wrote BENCH_ipet.json (%d benchmarks, median variable \
                 reduction %.0f%%)\n"
    (List.length entries) (100.0 *. median)

(* Writes BENCH_sim.json: the cycle-level simulator throughput probe —
   repeated worst-case runs of the three largest benchmarks, reporting wall
   time, simulated instruction count and Minstr/s per benchmark.  The
   numbers trace the simulator's perf trajectory the same way
   BENCH_ipet.json traces the ILP side's. *)
let sim_bench () =
  let repeats = 50 in
  let probe name =
    let bench = Ipet_suite.Suite.find name in
    let compiled = Bspec.compile bench in
    let m = Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data in
    let d = List.hd bench.Bspec.worst_data in
    (* one warmup run keeps decode/GC noise out of the measurement *)
    d.Bspec.setup m;
    Interp.flush_cache m;
    ignore (Interp.call m bench.Bspec.root d.Bspec.args);
    let t0 = Unix.gettimeofday () in
    let instrs = ref 0 in
    for _ = 1 to repeats do
      Interp.reset_stats m;
      Interp.reset_memory m ~init:compiled.Compile.init_data;
      d.Bspec.setup m;
      Interp.flush_cache m;
      ignore (Interp.call m bench.Bspec.root d.Bspec.args);
      instrs := !instrs + Interp.instructions m
    done;
    let wall = Unix.gettimeofday () -. t0 in
    (name, !instrs, wall, float_of_int !instrs /. wall /. 1e6)
  in
  let probes = List.map probe [ "fullsearch"; "whetstone"; "des" ] in
  let total_instrs = List.fold_left (fun a (_, i, _, _) -> a + i) 0 probes in
  let total_wall = List.fold_left (fun a (_, _, w, _) -> a +. w) 0.0 probes in
  let out =
    Printf.sprintf
      "{\n  \"suite\": \"ipet-sim\",\n  \"repeats\": %d,\n  \
       \"benchmarks\": [\n%s\n  ],\n  \"total_instructions\": %d,\n  \
       \"total_wall_s\": %.4f,\n  \"minstr_per_s\": %.2f\n}\n"
      repeats
      (String.concat ",\n"
         (List.map
            (fun (name, instrs, wall, rate) ->
              Printf.sprintf
                "    { \"name\": %S, \"instructions\": %d, \
                 \"wall_s\": %.4f, \"minstr_per_s\": %.2f }"
                name instrs wall rate)
            probes))
      total_instrs total_wall
      (float_of_int total_instrs /. total_wall /. 1e6)
  in
  let oc = open_out "BENCH_sim.json" in
  output_string oc out;
  close_out oc;
  Printf.printf
    "wrote BENCH_sim.json (%d instructions in %.2fs, %.2f Minstr/s)\n"
    total_instrs total_wall
    (float_of_int total_instrs /. total_wall /. 1e6)

(* Regression guard for the simulator's instrumentation-disabled hot path:
   re-measure throughput with a few repeats and compare against the
   committed BENCH_sim.json baseline. CI machines differ wildly from the
   one that wrote the baseline, so the default floor is a generous ratio
   (override with SIM_CHECK_RATIO); the point is to catch the simulator
   accidentally paying for profiling it was not asked for. *)
let sim_check () =
  let read_file path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let content = really_input_string ic len in
    close_in ic;
    content
  in
  let baseline =
    let content =
      try read_file "BENCH_sim.json"
      with Sys_error _ ->
        prerr_endline "sim-check: BENCH_sim.json not found (run 'sim' first)";
        exit 1
    in
    (* the total rate is the last "minstr_per_s" in the document *)
    let key = "\"minstr_per_s\":" in
    let rec last_occurrence from acc =
      match
        if from > String.length content - String.length key then None
        else if String.sub content from (String.length key) = key then
          Some from
        else None
      with
      | Some at -> last_occurrence (at + 1) (Some at)
      | None ->
        if from >= String.length content - String.length key then acc
        else last_occurrence (from + 1) acc
    in
    match last_occurrence 0 None with
    | None ->
      prerr_endline "sim-check: no minstr_per_s in BENCH_sim.json";
      exit 1
    | Some at ->
      let start = at + String.length key in
      let stop = ref start in
      while
        !stop < String.length content
        && (match content.[!stop] with
            | '0' .. '9' | '.' | ' ' | '-' -> true
            | _ -> false)
      do incr stop done;
      float_of_string (String.trim (String.sub content start (!stop - start)))
  in
  let ratio_floor =
    match Sys.getenv_opt "SIM_CHECK_RATIO" with
    | Some s -> float_of_string s
    | None -> 0.5
  in
  let repeats = 10 in
  let measure name =
    let bench = Ipet_suite.Suite.find name in
    let compiled = Bspec.compile bench in
    let m = Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data in
    let d = List.hd bench.Bspec.worst_data in
    d.Bspec.setup m;
    Interp.flush_cache m;
    ignore (Interp.call m bench.Bspec.root d.Bspec.args);
    let t0 = Unix.gettimeofday () in
    let instrs = ref 0 in
    for _ = 1 to repeats do
      Interp.reset_stats m;
      Interp.reset_memory m ~init:compiled.Compile.init_data;
      d.Bspec.setup m;
      Interp.flush_cache m;
      ignore (Interp.call m bench.Bspec.root d.Bspec.args);
      instrs := !instrs + Interp.instructions m
    done;
    (!instrs, Unix.gettimeofday () -. t0)
  in
  let instrs, wall =
    List.fold_left
      (fun (ai, aw) name ->
        let i, w = measure name in
        (ai + i, aw +. w))
      (0, 0.0)
      [ "fullsearch"; "whetstone"; "des" ]
  in
  let rate = float_of_int instrs /. wall /. 1e6 in
  Printf.printf
    "sim-check: %.2f Minstr/s measured, %.2f baseline (floor ratio %.2f)\n"
    rate baseline ratio_floor;
  if rate < ratio_floor *. baseline then begin
    if domains_available () <= 1 then
      (* baselines are written on multi-core machines; a single-core CI
         container measuring below the floor tells us nothing about the
         simulator, so report the numbers but do not fail *)
      print_endline "sim-check: below floor, skipped (single core available)"
    else begin
      Printf.printf
        "sim-check: FAIL — throughput fell below %.0f%% of the baseline\n"
        (100.0 *. ratio_floor);
      exit 1
    end
  end
  else print_endline "sim-check: ok"

(* Writes each paper benchmark as a standalone NAME.mc + NAME.ann pair so
   the cinderella CLI can be driven over the whole suite from the shell
   (loop bounds only: the functional-constraint DSL values have no textual
   serialization, and boundedness needs only the loop bounds). *)
let render_ann (bench : Bspec.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "root %s\n" bench.Bspec.root);
  List.iter
    (fun (a : Ipet.Annotation.t) ->
      match a.Ipet.Annotation.header with
      | `Line l ->
        Buffer.add_string buf
          (Printf.sprintf "loop %s %d %d %d\n" a.Ipet.Annotation.func l
             a.Ipet.Annotation.lo a.Ipet.Annotation.hi)
      | `Block b ->
        Buffer.add_string buf
          (Printf.sprintf
             "# block-addressed bound skipped: %s B%d [%d,%d]\n"
             a.Ipet.Annotation.func b a.Ipet.Annotation.lo
             a.Ipet.Annotation.hi))
    bench.Bspec.loop_bounds;
  let nfun = List.length bench.Bspec.functional in
  if nfun > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "# %d functionality constraint(s) omitted (no textual form)\n"
         nfun);
  Buffer.contents buf

let export dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (* render in parallel (pure), write sequentially in suite order *)
  let rendered =
    Pool.map_list (Pool.default ())
      (fun (bench : Bspec.t) ->
        (bench.Bspec.name, bench.Bspec.source, render_ann bench))
      Ipet_suite.Suite.all
  in
  List.iter
    (fun (name, source, ann) ->
      let write path content =
        let oc = open_out path in
        output_string oc content;
        close_out oc
      in
      write (Filename.concat dir (name ^ ".mc")) source;
      write (Filename.concat dir (name ^ ".ann")) ann)
    rendered;
  Printf.printf "exported %d benchmarks to %s\n"
    (List.length Ipet_suite.Suite.all) dir

(* --- serve load generator ------------------------------------------------ *)

module J = Ipet_obs.Json

(* One analyze request line per paper benchmark (loop bounds only, like
   [export]: the functional-constraint DSL has no textual serialization).
   [tag] becomes the request's trace id prefix, so the daemon-side trace
   shows every pass/benchmark pair as its own track. *)
let serve_requests ~tag ~use_cache =
  List.map
    (fun (bench : Bspec.t) ->
      ( bench.Bspec.name,
        J.to_string
          (J.Obj
             [ ("v", J.Int Ipet_serve.Protocol.version);
               ("op", J.Str "analyze");
               ("id", J.Str bench.Bspec.name);
               ("trace", J.Str (tag ^ ":" ^ bench.Bspec.name));
               ("source", J.Str bench.Bspec.source);
               ("annotations", J.Str (render_ann bench));
               ("options", J.Obj [ ("use_cache", J.Bool use_cache) ]) ]) ))
    Ipet_suite.Suite.all

(* client-side latency quantiles go through the same histogram the daemon
   uses — one estimator, no ad-hoc sorting to disagree with it *)
module M = Ipet_obs.Metrics

let latency_quantiles latencies =
  let reg = M.create () in
  let h = M.histogram reg "latency_ms" in
  List.iter (fun ms -> M.observe h ms) latencies;
  (M.quantile h 0.50, M.quantile h 0.99)

(* One client process: drive the whole request list sequentially over a
   single connection, appending "name ms" latency lines to [out]. *)
let serve_client ~socket ~out requests =
  let t = Ipet_serve.Client.connect socket in
  let oc = open_out out in
  List.iter
    (fun (name, line) ->
      let t0 = Unix.gettimeofday () in
      match Ipet_serve.Client.request t line with
      | Some response ->
        let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        let ok =
          match J.parse response with
          | Ok j -> (match J.member "ok" j with
                     | Some (J.Bool true) -> true
                     | _ -> false)
          | Error _ -> false
        in
        if not ok then begin
          Printf.eprintf "serve bench: %s failed: %s\n%!" name response;
          exit 1
        end;
        Printf.fprintf oc "%s %.3f\n" name ms
      | None ->
        Printf.eprintf "serve bench: server hung up on %s\n%!" name;
        exit 1)
    requests;
  close_out oc;
  Ipet_serve.Client.close t

(* Run one pass: [clients] forked client processes, each sending the full
   suite concurrently. Returns (wall seconds, latencies in ms). *)
let serve_pass ~socket ~dir ~clients ~pass requests =
  let t0 = Unix.gettimeofday () in
  let pids =
    List.init clients (fun i ->
        let out = Filename.concat dir (Printf.sprintf "%s_%d.lat" pass i) in
        match Unix.fork () with
        | 0 ->
          (try serve_client ~socket ~out requests
           with e ->
             Printf.eprintf "serve bench client: %s\n%!" (Printexc.to_string e);
             Unix._exit 1);
          Unix._exit 0
        | pid -> (pid, out))
  in
  List.iter
    (fun (pid, _) ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ ->
        prerr_endline "serve bench: a client failed";
        exit 1)
    pids;
  let wall = Unix.gettimeofday () -. t0 in
  let latencies =
    List.concat_map
      (fun (_, out) ->
        let ic = open_in out in
        let rec lines acc =
          match input_line ic with
          | line ->
            (match String.split_on_char ' ' line with
             | [ _; ms ] -> lines (float_of_string ms :: acc)
             | _ -> lines acc)
          | exception End_of_file -> acc
        in
        let l = lines [] in
        close_in ic;
        l)
      pids
  in
  (wall, latencies)

let pass_json name wall latencies =
  let n = List.length latencies in
  let rps = float_of_int n /. wall in
  let p50, p99 = latency_quantiles latencies in
  Printf.printf
    "%s: %d analyses in %.2fs (%.1f/s), p50 %.1fms, p99 %.1fms\n" name n wall
    rps p50 p99;
  Printf.sprintf
    "  \"%s\": { \"analyses\": %d, \"wall_s\": %.4f, \"per_s\": %.2f, \
     \"p50_ms\": %.3f, \"p99_ms\": %.3f }"
    name n wall rps p50 p99

(* Load-test the daemon: fork it (before any domain is spawned in this
   process — OCaml 5 domains and fork do not mix), run a cold pass with an
   empty cache and a warm pass over the identical requests, and report the
   cold-vs-warm throughput ratio. With [check], enforce a floor on that
   ratio (override with SERVE_CHECK_RATIO) — the regression this guards is
   the cache silently losing its hits. *)
let bench_serve ~jobs ~check =
  let clients =
    match Sys.getenv_opt "SERVE_CLIENTS" with
    | Some s -> max 1 (int_of_string s)
    | None -> 4
  in
  let dir =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "cinderella-serve-bench-%d" (Unix.getpid ()))
    in
    if not (Sys.file_exists d) then Unix.mkdir d 0o755;
    d
  in
  let socket = Filename.concat dir "serve.sock" in
  match Unix.fork () with
  | 0 ->
    (* daemon child: safe to spawn domains now *)
    Pool.set_default ~jobs;
    Ipet_obs.Obs.enable ();
    (try
       Ipet_serve.Server.run
         { Ipet_serve.Server.socket_path = socket;
           pool = Some (Pool.default ());
           cache =
             Some
               (Ipet_serve.Cache.create ~dir:(Filename.concat dir "cache")
                  ~cap_bytes:(64 * 1024 * 1024));
           default_timeout_ms = None;
           max_request_bytes = 16 * 1024 * 1024;
           access_log = None;
           access_log_cap = 8 * 1024 * 1024;
           flight_cap = 512;
           flight_dump = None };
       (* per-request tracks, one row per pass:benchmark trace id *)
       let oc = open_out "BENCH_serve_trace.json" in
       output_string oc
         (Ipet_obs.Obs.Trace_event.to_string
            ~track_names:(Ipet_obs.Obs.track_names ())
            (Ipet_obs.Obs.spans ()));
       close_out oc
     with e ->
       Printf.eprintf "serve bench daemon: %s\n%!" (Printexc.to_string e);
       Unix._exit 1);
    Unix._exit 0
  | daemon ->
    let rec await tries =
      if Sys.file_exists socket then ()
      else if tries = 0 then begin
        prerr_endline "serve bench: daemon socket never appeared";
        exit 1
      end
      else begin
        ignore (Unix.select [] [] [] 0.1);
        await (tries - 1)
      end
    in
    await 100;
    (* cold: every request solves from scratch (cache bypassed — with N
       clients sending the same suite, later duplicates would otherwise
       ride on earlier clients' cache fills and understate the cold cost);
       fill (untimed): one sequential pass populates the cache;
       warm: every request is a cache hit *)
    let cold_wall, cold_lat =
      serve_pass ~socket ~dir ~clients ~pass:"cold"
        (serve_requests ~tag:"cold" ~use_cache:false)
    in
    let _, fill_lat =
      serve_pass ~socket ~dir ~clients:1 ~pass:"fill"
        (serve_requests ~tag:"fill" ~use_cache:true)
    in
    let warm_wall, warm_lat =
      serve_pass ~socket ~dir ~clients ~pass:"warm"
        (serve_requests ~tag:"warm" ~use_cache:true)
    in
    (* cross-check: the daemon's own latency histogram must agree with
       what the clients measured. The daemon times only the handler, the
       clients also see queueing behind the single-threaded loop, so
       daemon p99 <= client p99 modulo bucket width and wire overhead. *)
    let daemon_p99_ms =
      match
        Ipet_serve.Client.one_shot ~socket
          (J.to_string
             (J.Obj
                [ ("v", J.Int Ipet_serve.Protocol.version);
                  ("op", J.Str "metrics") ]))
      with
      | None | exception Unix.Unix_error _ -> None
      | Some response ->
        (match J.parse response with
         | Error _ -> None
         | Ok j ->
           Option.bind
             (Option.bind
                (Option.bind (J.member "metrics" j) (J.member "metrics"))
                J.to_list)
             (fun items ->
               List.find_map
                 (fun m ->
                   match
                     ( Option.bind (J.member "name" m) J.to_str,
                       Option.bind
                         (Option.bind (J.member "labels" m) (J.member "op"))
                         J.to_str )
                   with
                   | Some "serve.latency_seconds", Some "analyze" ->
                     (match J.member "p99" m with
                      | Some (J.Float s) -> Some (s *. 1000.0)
                      | Some (J.Int s) -> Some (float_of_int s *. 1000.0)
                      | _ -> None)
                   | _ -> None)
                 items))
    in
    ignore
      (Ipet_serve.Client.one_shot ~socket
         (J.to_string
            (J.Obj
               [ ("v", J.Int Ipet_serve.Protocol.version);
                 ("op", J.Str "shutdown") ])));
    ignore (Unix.waitpid [] daemon);
    let _, client_p99_ms =
      latency_quantiles (cold_lat @ fill_lat @ warm_lat)
    in
    (match daemon_p99_ms with
     | None ->
       prerr_endline "serve bench: daemon metrics op returned no analyze p99";
       exit 1
     | Some d_p99 ->
       Printf.printf "analyze p99: daemon-side %.1fms, client-side %.1fms\n"
         d_p99 client_p99_ms;
       if not (d_p99 > 0.0 && d_p99 <= (client_p99_ms *. 1.5) +. 5.0) then begin
         Printf.printf
           "serve bench: FAIL — daemon-side p99 %.1fms inconsistent with \
            client-side %.1fms\n"
           d_p99 client_p99_ms;
         exit 1
       end);
    let speedup = cold_wall /. warm_wall in
    let cold_json = pass_json "cold" cold_wall cold_lat in
    let warm_json = pass_json "warm" warm_wall warm_lat in
    Printf.printf "warm-cache speedup: %.1fx\n" speedup;
    let oc = open_out "BENCH_serve.json" in
    Printf.fprintf oc
      "{\n  \"clients\": %d,\n  \"benchmarks\": %d,\n%s,\n%s,\n  \
       \"warm_speedup\": %.2f\n}\n"
      clients
      (List.length Ipet_suite.Suite.all)
      cold_json warm_json speedup;
    close_out oc;
    print_endline "wrote BENCH_serve.json";
    if check then begin
      let floor =
        match Sys.getenv_opt "SERVE_CHECK_RATIO" with
        | Some s -> float_of_string s
        | None -> 3.0
      in
      if speedup < floor then begin
        if domains_available () <= 1 then
          (* on a single-core box the cold pass is serialized too, which
             compresses the ratio; the numbers are still written to
             BENCH_serve.json, only the assertion is waived *)
          Printf.printf
            "serve-check: %.1fx below the %.1fx floor, skipped (single \
             core available)\n"
            speedup floor
        else begin
          Printf.printf
            "serve-check: FAIL — warm-cache speedup %.1fx below the %.1fx \
             floor\n"
            speedup floor;
          exit 1
        end
      end
      else Printf.printf "serve-check: ok (floor %.1fx)\n" floor
    end

(* --- LP scaling benchmark ------------------------------------------------ *)

(* Fuzz-generated programs at multiples of the fuzzing default size
   ([Gen.case_sized]), analyzed with presolve disabled so the raw LP
   dimensions reach the solver. Per tier, every WCET ILP relaxation is
   solved by the historical dense tableau ({!Ipet_lp_dense.Dense}) and by the
   sparse revised simplex ({!Ipet_lp.Simplex}), checking the optima
   agree; the branch-and-bound warm-start path is probed by re-solving
   child problems — the parent with one structural variable's upper
   bound tightened below its optimal value — both cold from scratch and
   warm from the parent basis via the dual simplex. Results are written
   to BENCH_lp.json; [lp-check] enforces an LP_CHECK_RATIO floor
   (default 5x) on the revised-vs-dense ratio of the largest
   dense-measured tier. *)

let lp_seed = 7

(* (name, stmt budget, dense measured?): budgets sized so the largest
   dense-measured tier stays within tens of seconds of dense tableau
   time while the top revised-only tier reaches ~100x the fuzzing
   default's pre-presolve variable count. Budget 1200 is avoided: that
   seed draws a pathological instance whose Bland pivot sequence is an
   order of magnitude longer than either neighbouring budget's. *)
let lp_tiers =
  [ ("base", 12, true); ("5x", 200, true); ("30x", 1300, false);
    ("100x", 4500, false) ]

let lp_time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let lp_spec_of_case (c : Ipet_fuzz.Gen.case) =
  let source = Ipet_fuzz.Render.program c.Ipet_fuzz.Gen.prog in
  let ast, _env = Frontend.parse_and_check source in
  let bounds = Ipet.Autobound.infer ast in
  let compiled =
    match Frontend.compile_string ~optimize:false source with
    | Ok compiled -> compiled
    | Error { Frontend.message; line } ->
      Printf.eprintf "bench lp: generated program rejected (line %d): %s\n"
        line message;
      exit 1
  in
  Analysis.spec ~cache:c.Ipet_fuzz.Gen.cache ~loop_bounds:bounds
    ~presolve:false ~root:"main" compiled.Compile.prog

(* Build the same sparse instance and direction-normalized cost vector
   the production solver uses, exposing the snapshot for warm starts. *)
let lp_instance problem =
  let vars = Lp.variables problem in
  let inst = Sparse.build ~vars problem in
  let obj =
    match problem.Lp.direction with
    | Lp.Maximize -> problem.Lp.objective
    | Lp.Minimize -> Linexpr.neg problem.Lp.objective
  in
  let cost = Array.make inst.Sparse.nstruct Rat.zero in
  Array.iteri (fun i v -> cost.(i) <- Linexpr.coeff obj v) inst.Sparse.vars;
  (inst, cost)

type lp_warm = {
  children : int;
  cold_wall : float;
  warm_wall : float;
  hits : int;
  misses : int;
}

(* Branch-and-bound-style children of [problem]: tighten one positive
   structural variable's upper bound to (its optimal value - 1), which
   forces a re-optimization exactly like an [Ilp.solve] branch. *)
let lp_warm_probe problem =
  let inst, cost = lp_instance problem in
  match (Revised.solve_primal inst ~cost).Revised.verdict with
  | Revised.Infeasible | Revised.Unbounded -> None
  | Revised.Optimal sol ->
    let nstruct = inst.Sparse.nstruct in
    let candidates = ref [] in
    for j = nstruct - 1 downto 0 do
      if Rat.compare sol.Revised.xstruct.(j) Rat.one >= 0 then
        candidates := j :: !candidates
    done;
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    let children = take 32 !candidates in
    let zeros = Array.make nstruct Rat.zero in
    let acc = ref { children = List.length children; cold_wall = 0.0;
                    warm_wall = 0.0; hits = 0; misses = 0 } in
    List.iter
      (fun j ->
        let upper = Array.make nstruct None in
        upper.(j) <- Some (Rat.sub sol.Revised.xstruct.(j) Rat.one);
        let cold, cold_t =
          lp_time (fun () -> Revised.solve_primal ~upper inst ~cost)
        in
        let warm, warm_t =
          lp_time (fun () ->
            match
              Revised.solve_dual inst ~cost ~lower:zeros ~upper
                ~warm:sol.Revised.snapshot
            with
            | run -> Some run
            | exception Revised.Stuck -> None)
        in
        let a = !acc in
        let hit, miss =
          match warm with Some _ -> (1, 0) | None -> (0, 1)
        in
        (match (warm, cold.Revised.verdict) with
         | Some { Revised.verdict = Revised.Optimal w; _ },
           Revised.Optimal c ->
           if not (Rat.equal w.Revised.value c.Revised.value) then begin
             Printf.eprintf
               "bench lp: warm/cold divergence on child %d: %s vs %s\n" j
               (Rat.to_string w.Revised.value) (Rat.to_string c.Revised.value);
             exit 1
           end
         | Some { Revised.verdict = Revised.Infeasible; _ }, Revised.Infeasible
         | None, _ -> ()
         | Some _, _ ->
           Printf.eprintf "bench lp: warm/cold verdict mismatch on child %d\n" j;
           exit 1);
        acc := { a with cold_wall = a.cold_wall +. cold_t;
                        warm_wall = a.warm_wall +. warm_t;
                        hits = a.hits + hit; misses = a.misses + miss })
      children;
    Some !acc

let lp_bench ~check () =
  (* LP_SIZES_ONLY=1: print tier dimensions without solving (used to
     calibrate stmt budgets when retuning the tiers); LP_TIERS=a,b
     restricts the run to the named tiers (CI uses this to keep the
     nightly check within its time budget); LP_BUDGETS=name=N,...
     replaces the tier list entirely with ad-hoc revised-only tiers,
     for calibration runs *)
  let sizes_only = Sys.getenv_opt "LP_SIZES_ONLY" <> None in
  let tiers =
    match Sys.getenv_opt "LP_BUDGETS" with
    | Some spec ->
      List.map
        (fun entry ->
          match String.index_opt entry '=' with
          | Some i ->
            let name = String.sub entry 0 i in
            let budget =
              int_of_string
                (String.sub entry (i + 1) (String.length entry - i - 1))
            in
            (name, budget, false)
          | None ->
            Printf.eprintf "bench lp: bad LP_BUDGETS entry %S\n" entry;
            exit 1)
        (String.split_on_char ',' spec)
    | None ->
      (match Sys.getenv_opt "LP_TIERS" with
       | None -> lp_tiers
       | Some names ->
         let wanted = String.split_on_char ',' names in
         List.filter (fun (n, _, _) -> List.mem n wanted) lp_tiers)
  in
  let entries =
    List.map
      (fun (name, stmt_budget, measure_dense) ->
        let case = Ipet_fuzz.Gen.case_sized ~stmt_budget lp_seed in
        let spec = lp_spec_of_case case in
        let problems = Analysis.wcet_problems spec in
        let nvars =
          List.fold_left
            (fun acc p -> acc + List.length (Lp.variables p))
            0 problems
        in
        let nconstrs =
          List.fold_left
            (fun acc p -> acc + List.length p.Lp.constraints)
            0 problems
        in
        if sizes_only then
          Printf.printf "%-5s budget %6d: %6d vars %6d constrs (%d sets)\n%!"
            name stmt_budget nvars nconstrs (List.length problems);
        let revised, revised_wall =
          if sizes_only then ([], 0.0)
          else lp_time (fun () -> List.map Ipet_lp.Simplex.solve problems)
        in
        let dense_wall =
          if not measure_dense || sizes_only then None
          else begin
            let dense, wall =
              lp_time (fun () -> List.map Ipet_lp_dense.Dense.solve problems)
            in
            List.iter2
              (fun d r ->
                match (d, r) with
                | Ipet_lp_dense.Dense.Optimal { value = dv; _ },
                  Ipet_lp.Simplex.Optimal { value = rv; _ } ->
                  if not (Rat.equal dv rv) then begin
                    Printf.eprintf
                      "bench lp: dense/revised divergence in %s: %s vs %s\n"
                      name (Rat.to_string dv) (Rat.to_string rv);
                    exit 1
                  end
                | Ipet_lp_dense.Dense.Infeasible, Ipet_lp.Simplex.Infeasible
                | Ipet_lp_dense.Dense.Unbounded, Ipet_lp.Simplex.Unbounded -> ()
                | _ ->
                  Printf.eprintf
                    "bench lp: dense/revised verdict mismatch in %s\n" name;
                  exit 1)
              dense revised;
            Some wall
          end
        in
        let largest =
          List.fold_left
            (fun acc p ->
              match acc with
              | Some best
                when List.length (Lp.variables best)
                     >= List.length (Lp.variables p) -> acc
              | _ -> Some p)
            None problems
        in
        (* the probe's cold-solve arm re-solves each child from scratch,
           which is exactly what's intractable at jumbo sizes — warm-start
           numbers come from the dense-measured tiers *)
        let warm =
          if sizes_only || not measure_dense then None
          else Option.bind largest lp_warm_probe
        in
        let speedup =
          match dense_wall with
          | Some d when revised_wall > 0.0 -> d /. revised_wall
          | _ -> 0.0
        in
        if not sizes_only then
          Printf.printf
            "%-5s %6d vars %6d constrs: revised %7.3fs%s\n%!" name nvars
            nconstrs revised_wall
            (match dense_wall with
             | Some d -> Printf.sprintf ", dense %8.3fs (%.1fx)" d speedup
             | None -> ", dense skipped");
        (match warm with
         | Some w when w.children > 0 ->
           Printf.printf
             "      warm-start: %d children, cold %.3fs, warm %.3fs \
              (%.1fx), %d hits / %d misses\n%!"
             w.children w.cold_wall w.warm_wall
             (if w.warm_wall > 0.0 then w.cold_wall /. w.warm_wall else 0.0)
             w.hits w.misses
         | _ -> ());
        (name, stmt_budget, nvars, nconstrs, dense_wall, revised_wall,
         speedup, warm))
      tiers
  in
  let tier_json
      (name, budget, nvars, nconstrs, dense_wall, revised_wall, speedup, warm)
      =
    let warm_json =
      match warm with
      | Some w when w.children > 0 ->
        Printf.sprintf
          ",\n      \"warm_children\": %d, \"warm_cold_wall_s\": %.4f, \
           \"warm_wall_s\": %.4f, \"warm_speedup\": %.2f, \
           \"warm_hits\": %d, \"warm_misses\": %d, \"warm_hit_rate\": %.3f"
          w.children w.cold_wall w.warm_wall
          (if w.warm_wall > 0.0 then w.cold_wall /. w.warm_wall else 0.0)
          w.hits w.misses
          (float_of_int w.hits /. float_of_int w.children)
      | _ -> ""
    in
    Printf.sprintf
      "    { \"tier\": %S, \"stmt_budget\": %d, \"vars\": %d, \
       \"constrs\": %d,\n      \"dense_wall_s\": %s, \
       \"revised_wall_s\": %.4f, \"speedup\": %s%s }"
      name budget nvars nconstrs
      (match dense_wall with
       | Some d -> Printf.sprintf "%.4f" d
       | None -> "null")
      revised_wall
      (match dense_wall with
       | Some _ -> Printf.sprintf "%.2f" speedup
       | None -> "null")
      warm_json
  in
  let out =
    Printf.sprintf
      "{\n  \"suite\": \"ipet-lp\",\n  \"seed\": %d,\n  \
       \"presolve\": false,\n  \"tiers\": [\n%s\n  ]\n}\n"
      lp_seed
      (String.concat ",\n" (List.map tier_json entries))
  in
  let oc = open_out "BENCH_lp.json" in
  output_string oc out;
  close_out oc;
  print_endline "wrote BENCH_lp.json";
  if check then begin
    let floor =
      match Sys.getenv_opt "LP_CHECK_RATIO" with
      | Some s -> float_of_string s
      | None -> 5.0
    in
    (* the regression this guards — the revised solver losing its edge
       over the dense tableau — is core-count independent, so no
       single-core waiver is needed *)
    let largest_measured =
      List.fold_left
        (fun acc ((_, _, nvars, _, dense_wall, _, _, _) as e) ->
          match (dense_wall, acc) with
          | None, _ -> acc
          | Some _, Some (_, _, best, _, _, _, _, _) when best >= nvars -> acc
          | Some _, _ -> Some e)
        None entries
    in
    match largest_measured with
    | None ->
      prerr_endline "lp-check: no dense-measured tier";
      exit 1
    | Some (name, _, _, _, _, _, speedup, _) ->
      if speedup < floor then begin
        Printf.printf
          "lp-check: FAIL — %.1fx revised-vs-dense on tier %s, below the \
           %.1fx floor\n"
          speedup name floor;
        exit 1
      end
      else
        Printf.printf "lp-check: ok (%.1fx on tier %s, floor %.1fx)\n"
          speedup name floor
  end

(* --- bechamel micro-benchmarks ------------------------------------------ *)

let bechamel () =
  header "Bechamel micro-benchmarks (one per table)";
  let open Bechamel in
  let check_data = Ipet_suite.Suite.find "check_data" in
  let table1_work () =
    (* Table I content: constraint-set construction (DNF + pruning) *)
    List.iter
      (fun (b : Bspec.t) ->
        ignore
          (Ipet.Functional.prune_null_sets (Ipet.Functional.dnf b.Bspec.functional)))
      Ipet_suite.Suite.all
  in
  let table2_work () =
    (* Table II content: one full ILP analysis *)
    ignore (Analysis.analyze (Bspec.spec check_data))
  in
  let table3_work () =
    (* Table III content: one cycle-accurate worst-case simulation *)
    let compiled = Bspec.compile check_data in
    let m = Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data in
    (match check_data.Bspec.worst_data with
     | d :: _ -> d.Bspec.setup m
     | [] -> ());
    Interp.flush_cache m;
    ignore (Interp.call m check_data.Bspec.root [])
  in
  let tests =
    Test.make_grouped ~name:"tables"
      [ Test.make ~name:"table1:constraint-sets" (Staged.stage table1_work);
        Test.make ~name:"table2:ilp-analysis" (Staged.stage table2_work);
        Test.make ~name:"table3:cycle-simulation" (Staged.stage table3_work) ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-32s %14.0f ns/run\n" name est
      | Some _ | None -> Printf.printf "  %-32s (no estimate)\n" name)
    results

(* --- driver -------------------------------------------------------------- *)

let usage () =
  print_endline
    "usage: main.exe [--jobs N] \
     [fig1|..|fig6|table1|table2|table3|stats|ablation-cache|ablation-refine|\
      bechamel|json|sim|sim-check|lp|lp-check|serve|serve-check|export DIR|\
      all]"

let rec run_target = function
  | "fig1" -> fig1 ()
  | "fig2" -> fig2 ()
  | "fig3" -> fig3 ()
  | "fig4" -> fig4 ()
  | "fig5" -> fig5 ()
  | "fig6" -> fig6 ()
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "table3" -> table3 ()
  | "stats" -> stats ()
  | "ablation-cache" -> ablation_cache ()
  | "ablation-refine" -> ablation_refine ()
  | "ablation-compile" -> ablation_compile ()
  | "ablation-dcache" -> ablation_dcache ()
  | "table-extra" -> table_extra ()
  | "json" -> json ()
  | "sim" -> sim_bench ()
  | "sim-check" -> sim_check ()
  | "lp" -> lp_bench ~check:false ()
  | "lp-check" -> lp_bench ~check:true ()
  | "bechamel" -> bechamel ()
  | "all" ->
    List.iter run_target
      [ "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "table1"; "table2";
        "table3"; "stats"; "table-extra"; "ablation-cache"; "ablation-refine";
        "ablation-compile"; "ablation-dcache"; "bechamel" ]
  | other ->
    Printf.printf "unknown target %s\n" other;
    usage ();
    exit 1

(* strip --jobs N / -j N and --mach ID anywhere on the command line; the
   remaining arguments dispatch as before *)
let parse_jobs argv =
  let jobs = ref (Ipet_par.Par_compat.recommended_domain_count ()) in
  let rest = ref [] in
  let rec go i =
    if i < Array.length argv then begin
      (match argv.(i) with
       | "--jobs" | "-j" when i + 1 < Array.length argv ->
         (match int_of_string_opt argv.(i + 1) with
          | Some n when n >= 1 -> jobs := n
          | Some _ | None ->
            prerr_endline "--jobs expects a positive integer";
            exit 2);
         go (i + 2) |> ignore
       | "--mach" when i + 1 < Array.length argv ->
         (match Ipet_machine.Machine.of_string argv.(i + 1) with
          | Ok m -> table_mach := m
          | Error msg ->
            prerr_endline msg;
            exit 2);
         go (i + 2) |> ignore
       | a -> rest := a :: !rest; go (i + 1) |> ignore)
    end
  in
  go 1;
  (!jobs, List.rev !rest)

let () =
  let jobs, args = parse_jobs Sys.argv in
  match args with
  (* the serve targets fork the daemon, so they must run before this
     process spawns any domain — the daemon child sets up its own pool *)
  | [ "serve" ] -> bench_serve ~jobs ~check:false
  | [ "serve-check" ] -> bench_serve ~jobs ~check:true
  | _ ->
    Pool.set_default ~jobs;
    (match args with
     | [] -> run_target "all"
     | [ "export"; dir ] -> export dir
     | [ target ] -> run_target target
     | _ ->
       usage ();
       exit 1)
