(* paper-suite: the paper's own evaluation, in process. Every one of the 13
   benchmarks on both machines is bounded once plain and once with
   certificates, and every worst- and best-case data set is simulated the
   way Experiments 1 and 2 do it. One pass over all of that is the unit of
   work; the seed only fixes the order of the (benchmark, machine) pairs. *)

open Common
module A = Ipet.Analysis
module Bspec = Ipet_suite.Bspec
module E = Ipet_suite.Experiments
module Interp = Ipet_sim.Interp
module Compile = Ipet_lang.Compile
module Cost = Ipet_machine.Cost
module Checker = Ipet_cert.Checker

(* simulation passes per unit: one pass is only ~2.6 M instructions *)
let sim_repeats ~smoke = if smoke then 1 else 4

type pair = { bench : Bspec.t; mach : Machine.t; spec : A.spec }

let pairs rng =
  List.concat_map
    (fun mach ->
      List.map (fun bench -> { bench; mach; spec = Bspec.spec ~mach bench }) Ipet_suite.Suite.all)
    machines
  |> shuffle rng

(* --- simulation, as Experiments 1/2 run it --------------------------------- *)

type sim = { counts : ((string * int) * int) list; cycles : int; instrs : int; misses : int }

let simulate ?(on_create = fun f -> f ()) ?(on_run = fun f -> f ()) p
    (d : Bspec.dataset) ~best =
  let compiled = Bspec.compile p.bench in
  let init = compiled.Compile.init_data in
  let m =
    on_create (fun () -> Interp.create ~mach:p.mach compiled.Compile.prog ~init)
  in
  if best then begin
    (* warm the cache with one throwaway run, then restore the data *)
    d.Bspec.setup m;
    ignore (on_run (fun () -> Interp.call m p.bench.Bspec.root d.Bspec.args));
    Interp.reset_stats m;
    Interp.reset_memory m ~init
  end;
  d.Bspec.setup m;
  if not best then Interp.flush_cache m;
  ignore (on_run (fun () -> Interp.call m p.bench.Bspec.root d.Bspec.args));
  { counts = Interp.block_counts m;
    cycles = Interp.cycles m;
    instrs = Interp.instructions m;
    misses = Interp.cache_misses m }

let calculated spec runs ~select =
  List.map
    (fun s ->
      List.fold_left
        (fun acc ((func, block), n) -> acc + (n * select (A.block_costs spec ~func).(block)))
        0 s.counts)
    runs

(* --- one unit of work ------------------------------------------------------ *)

type unit_result = {
  plain_s : float;
  certify_s : float;
  sim_s : float;
  cert_lat : float list;  (* seconds per certified pair *)
  instrs : int;
}

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* One pass. With [layers], the pass is traced: every public call is
   wrapped in a span and its self time lands in the layer accounting. *)
let run_unit ?layers tally pairs ~smoke =
  let wrap ~mach layer f =
    match layers with
    | None -> f ()
    | Some (acc, _) ->
      let r, s = span_time ~args:[ ("mach", mach) ] layer f in
      add_secs acc ~mach (layer ^ "_s") s;
      r
  in
  let analyze ~certify p =
    let call () =
      time (fun () ->
          Obs.span "paper.analyze"
            ~args:[ ("bench", p.bench.Bspec.name); ("mach", mach_id p.mach) ]
            (fun () -> A.analyze ~certify p.spec))
    in
    match layers with
    | None -> call ()
    | Some (acc, _) ->
      let r, recorded = program_layers call in
      List.iter (fun (l, s) -> add_secs acc ~mach:(mach_id p.mach) l s) recorded;
      r
  in
  let plain = List.map (fun p -> (p, analyze ~certify:false p)) pairs in
  let certified = List.map (fun p -> (p, analyze ~certify:true p)) pairs in
  let sims, sim_s =
    time (fun () ->
        let once () =
          List.map
            (fun p ->
              let mach = mach_id p.mach in
              let go ~best d =
                simulate p d ~best ~on_create:(wrap ~mach "sim.create")
                  ~on_run:(wrap ~mach "sim.run")
              in
              ( p,
                List.map (go ~best:false) p.bench.Bspec.worst_data,
                List.map (go ~best:true) p.bench.Bspec.best_data ))
            pairs
        in
        let first = once () in
        for _ = 2 to sim_repeats ~smoke do ignore (once ()) done;
        first)
  in
  (* checks: certificates, plain = certified bounds, sims inside the bound,
     and the rendered tables against the committed goldens *)
  List.iter2
    (fun (p, ((r0 : A.result), _)) (_, ((r : A.result), _)) ->
      let name = p.bench.Bspec.name ^ "/" ^ mach_id p.mach in
      let closed = function
        | Some (c : A.certificate) -> Checker.gap_closed c.A.verdict
        | None -> false
      in
      check tally (closed r.A.wcet_cert && closed r.A.bcet_cert)
        "%s: certificate not valid with a zero gap" name;
      check tally
        (r0.A.wcet.A.cycles = r.A.wcet.A.cycles && r0.A.bcet.A.cycles = r.A.bcet.A.cycles)
        "%s: plain and certified bounds differ" name)
    plain certified;
  let rows =
    List.map
      (fun (p, worst, best) ->
        let (r : A.result), _ = List.assq p certified in
        let lo = r.A.bcet.A.cycles and hi = r.A.wcet.A.cycles in
        List.iter
          (fun s ->
            check tally (s.cycles >= lo && s.cycles <= hi)
              "%s/%s: simulated %d cycles outside [%d, %d]" p.bench.Bspec.name
              (mach_id p.mach) s.cycles lo hi)
          (worst @ best);
        let extreme f init l = List.fold_left f init l in
        ( p,
          { E.bench = p.bench.Bspec.name;
            lines = Bspec.source_lines p.bench;
            sets_total = r.A.wcet_stats.A.sets_total;
            sets_pruned = r.A.wcet_stats.A.sets_pruned;
            estimated = { E.lo; hi };
            calculated =
              { E.hi = extreme max min_int (calculated p.spec worst ~select:(fun b -> b.Cost.worst));
                lo = extreme min max_int (calculated p.spec best ~select:(fun b -> b.Cost.best)) };
            measured =
              { E.hi = extreme max min_int (List.map (fun s -> s.cycles) worst);
                lo = extreme min max_int (List.map (fun s -> s.cycles) best) };
            lp_calls = r.A.wcet_stats.A.lp_calls + r.A.bcet_stats.A.lp_calls;
            all_first_lp_integral =
              r.A.wcet_stats.A.all_first_lp_integral
              && r.A.bcet_stats.A.all_first_lp_integral } ))
      sims
  in
  List.iter
    (fun mach ->
      let in_suite_order =
        List.filter_map
          (fun b ->
            List.find_opt (fun (p, _) -> p.bench == b && p.mach == mach) rows
            |> Option.map snd)
          Ipet_suite.Suite.all
      in
      let suffix = if mach == Machine.e32 then "" else "_" ^ mach_id mach in
      List.iter
        (fun (table, render) ->
          let golden = Printf.sprintf "test/golden/%s%s.txt" table suffix in
          let expected = try read_file golden with Sys_error _ -> "" in
          let got = render in_suite_order in
          (* a partial suite (smoke runs) must reproduce its own rows *)
          let ok =
            if List.length in_suite_order = List.length Ipet_suite.Suite.all then
              String.equal expected got
            else
              let lines s = String.split_on_char '\n' s in
              List.for_all (fun l -> List.mem l (lines expected)) (lines got)
          in
          check tally ok "%s: rendered rows differ from %s" table golden)
        [ ("table2", E.render_table2); ("table3", E.render_table3) ])
    machines;
  (match layers with
   | Some (acc, true) ->
     List.iter
       (fun (p, ((r : A.result), _)) -> add_lp_counts acc ~mach:(mach_id p.mach) r)
       (plain @ certified);
     List.iter
       (fun (p, worst, best) ->
         List.iter
           (fun (s : sim) ->
             add_count acc ~mach:(mach_id p.mach) "sim.instructions"
               (sim_repeats ~smoke * s.instrs);
             add_count acc ~mach:(mach_id p.mach) "sim.icache_misses"
               (sim_repeats ~smoke * s.misses))
           (worst @ best))
       sims
   | Some (_, false) | None -> ());
  let total l = sum (List.map (fun (_, (_, s)) -> s) l) in
  ( { plain_s = total plain;
      certify_s = total certified;
      sim_s;
      cert_lat = List.map (fun (_, (_, s)) -> s) certified;
      instrs =
        sim_repeats ~smoke
        * List.fold_left
            (fun acc (_, w, b) -> List.fold_left (fun a (s : sim) -> a + s.instrs) acc (w @ b))
            0 sims },
    certified )

(* --- set-up ------------------------------------------------------------------- *)

(* Compile every source and bound every pair once, plainly: the warm-up a
   CI job pays before its first measured bound. *)
let setup pairs =
  snd
    (time (fun () ->
         List.iter
           (fun (b : Bspec.t) -> ignore (Ipet_lang.Frontend.compile_string_exn b.Bspec.source))
           Ipet_suite.Suite.all;
         List.iter (fun p -> ignore (A.analyze p.spec)) pairs))

(* --- per-layer probes ------------------------------------------------------------ *)

(* Time each layer's public entry point on exactly the inputs the traced
   pass gave it. The plain and the certified pass each run prepare,
   presolve and the simplex once per pair, hence the factor two. *)
let probe acc ~first p (r : A.result) =
  let mach = mach_id p.mach in
  let problems, t_prep =
    span_time "core.prepare" (fun () -> A.wcet_problems p.spec @ A.bcet_problems p.spec)
  in
  add_secs acc ~mach "core.prepare_s" t_prep;
  List.iter
    (fun problem ->
      let _, t_pre = span_time "lp.presolve" (fun () -> Ipet_lp.Presolve.run problem) in
      let _, t_ilp = span_time "lp.ilp" (fun () -> Ipet_lp.Ilp.solve problem) in
      add_secs acc ~mach "lp.presolve_s" (2.0 *. t_pre);
      add_secs acc ~mach "lp.solve_s" (2.0 *. (t_ilp -. t_pre)))
    problems;
  if first then
    List.iter
      (Option.iter (fun c -> add_count acc ~mach "cert.pivots" (cert_pivots problems c)))
      [ r.A.wcet_cert; r.A.bcet_cert ]

(* --- entry point -------------------------------------------------------------------- *)

let no_number =
  [ ( [ "lang.compile_s" ],
      "every source is compiled once in set-up (Bspec.compile memoizes), so \
       no measured pass reaches the frontend" ) ]

let run ~seed ~seconds ~trace ~smoke ~trace_file tally =
  let rng = Random.State.make [| seed |] in
  let pairs = pairs rng in
  let pairs =
    if smoke then
      List.filter (fun p -> List.mem p.bench.Bspec.name [ "check_data"; "piksrt" ]) pairs
    else pairs
  in
  let setups = List.init 3 (fun _ -> setup pairs) in
  (* the first certified pass of a process runs ~30% slower (the heap is
     still growing): one pass of warm-up, outside every figure *)
  if not smoke then ignore (run_unit (Common.tally ()) pairs ~smoke);
  let t_end = now () +. seconds in
  let e2e u = u.plain_s +. u.certify_s +. u.sim_s in
  if not trace then begin
    let rec loop acc =
      let u, _ = run_unit tally pairs ~smoke in
      if now () < t_end then loop (u :: acc) else u :: acc
    in
    let units = loop [] in
    (* The per-bound figure is the median, over passes, of the mean
       certified bound in a pass. Single bounds span 12 ms to 1.6 s with a
       35% gap at the middle of the 26, so a median over them flips
       between two pairs' times. *)
    let per_pass = List.map (fun u -> u.certify_s /. float_of_int (List.length u.cert_lat)) units in
    let bounds = sum (List.map (fun u -> float_of_int (List.length u.cert_lat)) units) in
    [ m "setup_s" "s" (median setups);
      m "peak_rss_mb" "MB" (peak_rss_mb None);
      m "op_p50_ms" "ms" (1000.0 *. median per_pass);
      m "ops_per_s" "1/s" (bounds /. sum (List.map e2e units)) ]
  end
  else begin
    let acc = acc () in
    let rec loop first (untraced, traced) =
      let u, _ = run_unit tally pairs ~smoke in
      trace_begin ();
      let t, certified = run_unit ~layers:(acc, first) tally pairs ~smoke in
      List.iter (fun (p, ((r : A.result), _)) -> probe acc ~first p r) certified;
      trace_end ~file:trace_file;
      let pair = (u :: untraced, t :: traced) in
      if now () < t_end then loop false pair else pair
    in
    let untraced, traced = loop true ([], []) in
    let rate u = float_of_int u.instrs /. u.sim_s /. 1e6 in
    let lat = List.concat_map (fun u -> u.cert_lat) untraced in
    tail_note "certified pair" 0.9 lat;
    layer_report ~workload:"paper-suite" ~units:(List.length traced)
      ~traced:(List.map e2e traced) ~untraced:(List.map e2e untraced) ~acc ~no_number
    @ [ m "paper.analyze_suite_s" "s" (median (List.map (fun u -> u.plain_s) untraced));
        m "paper.certify_suite_s" "s" (median (List.map (fun u -> u.certify_s) untraced));
        m "paper.pair_p90_ms" "ms" (1000.0 *. quantile 0.9 lat);
        m "sim.minstr_per_s" "Minstr/s" (median (List.map rate untraced)) ]
  end
