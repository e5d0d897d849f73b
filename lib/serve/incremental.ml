module P = Ipet_isa.Prog
module Layout = Ipet_isa.Layout
module Callgraph = Ipet_cfg.Callgraph
module Cost = Ipet_machine.Cost
module Machine = Ipet_machine.Machine
module Lp = Ipet_lp.Lp_problem
module Rat = Ipet_num.Rat
module A = Ipet.Analysis
module Obs = Ipet_obs.Obs
module Cert = Ipet_cert.Certificate
module Checker = Ipet_cert.Checker

exception Timeout

type stats = {
  units_total : int;
  units_cached : int;
  units_solved : int;
  ilp_solves : int;
  warm_lp_hits : int;
  simplex_pivots : int;
  certs_checked : int;
  certs_rejected : int;
}

type counter = {
  mutable cached : int;
  mutable solved : int;
  mutable solves : int;
  mutable warm : int;
  mutable pivots : int;
  mutable cert_checks : int;
  mutable cert_rejects : int;
}

let fail fmt = Printf.ksprintf (fun m -> raise (A.Analysis_error m)) fmt

let check_deadline = function
  | Some t when Unix.gettimeofday () > t -> raise Timeout
  | Some _ | None -> ()

(* one extreme of a unit — per entry for a function unit, whole-program for
   the program unit — and the serialized certificate proving its cycles *)
type extreme = { ext : A.extreme; cert : string }

type unit_result = { key : string; wcet : extreme; bcet : extreme }

(* --- JSON (de)serialization of cached unit results ----------------------- *)

let counts_json counts =
  Json.List
    (List.map
       (fun ((f, b), c) -> Json.List [ Json.Str f; Json.Int b; Json.Int c ])
       counts)

let strings_json l = Json.List (List.map (fun s -> Json.Str s) l)

let extreme_to_json e =
  Json.Obj
    [ ("cycles", Json.Int e.ext.A.cycles);
      ("counts", counts_json e.ext.A.counts);
      ("binding", strings_json e.ext.A.binding);
      ("cert", Json.Str e.cert) ]

(* every element must convert, or the entry is a miss *)
let all_of conv l =
  let xs = List.filter_map conv l in
  if List.length xs = List.length l then Some xs else None

let extreme_of_json j =
  let field name conv = Option.bind (Json.member name j) conv in
  let count = function
    | Json.List [ Json.Str f; Json.Int b; Json.Int c ] -> Some ((f, b), c)
    | _ -> None
  in
  match
    ( field "cycles" Json.to_int,
      Option.bind (field "counts" Json.to_list) (all_of count),
      Option.bind (field "binding" Json.to_list) (all_of Json.to_str),
      field "cert" Json.to_str )
  with
  | Some cycles, Some counts, Some binding, Some cert ->
    Some { ext = { A.cycles; counts; binding }; cert }
  | _ -> None

let unit_to_json u =
  Json.Obj
    [ ("schema", Json.Int Key.schema);
      ("wcet", extreme_to_json u.wcet);
      ("bcet", extreme_to_json u.bcet) ]

let unit_of_json key j =
  match
    ( Option.bind (Json.member "schema" j) Json.to_int,
      Option.bind (Json.member "wcet" j) extreme_of_json,
      Option.bind (Json.member "bcet" j) extreme_of_json )
  with
  | Some s, Some wcet, Some bcet when s = Key.schema -> Some { key; wcet; bcet }
  | _ -> None

(* --- certificates ---------------------------------------------------------- *)

(* the trusted checker, not the solver, has the last word on every bound the
   daemon hands out, whether it was just computed or recalled *)
let count_check counter =
  counter.cert_checks <- counter.cert_checks + 1;
  Obs.add "serve.cert.checked" 1

let count_reject counter =
  counter.cert_rejects <- counter.cert_rejects + 1;
  Obs.add "serve.cert.rejected" 1

(* a fresh extreme comes with the certificate the analysis produced and
   checked; a rejected one aborts the request *)
let fresh ~counter ~what ext (c : A.certificate option) =
  match c with
  | None -> fail "%s: the analysis produced no certificate" what
  | Some c ->
    count_check counter;
    (match c.A.verdict with
     | Checker.Valid _ -> { ext; cert = Cert.to_string c.A.cert }
     | Checker.Invalid reasons ->
       count_reject counter;
       fail "%s certificate rejected by the checker: %s" what
         (String.concat "; " reasons))

(* a cached extreme stands only if its stored certificate certifies exactly
   the cached cycles and checks against one of the problems this request
   would solve: a function unit's one ILP, or one of the program unit's
   constraint-set ILPs (the certificate's digest names its set; a lone
   problem skips that prefilter, the checker compares digests itself).
   Failure is not fatal — the entry is dropped and re-solved *)
let cached_valid ~counter problems e =
  count_check counter;
  let ok =
    match Cert.of_string e.cert with
    | Error _ -> false
    | Ok cert ->
      let issued_for p =
        match problems with
        | [ _ ] -> true
        | _ -> String.equal (Cert.digest_problem p) cert.Cert.digest
      in
      Rat.equal cert.Cert.bound (Rat.of_int e.ext.A.cycles)
      && List.exists
           (fun p ->
             issued_for p
             && (match Checker.check p cert with
                 | Checker.Valid _ -> true
                 | Checker.Invalid _ -> false))
           problems
  in
  if not ok then count_reject counter;
  ok

(* --- units ---------------------------------------------------------------- *)

let record_solve counter (s : A.solver_stats) =
  counter.solves <- counter.solves + s.A.sets_solved;
  counter.warm <- counter.warm + s.A.warm_hits;
  counter.pivots <- counter.pivots + s.A.simplex_pivots;
  Obs.add "serve.ilp.solves" s.A.sets_solved

(* serve a unit from the cache when both stored certificates re-check
   against [problems ()] (wcet, bcet); otherwise drop any stored entry —
   a cache can be corrupted or tampered with, the proof obligation cannot —
   then solve and store *)
let cached_or_solve ~counter ~cache key ~problems ~solve =
  let stored =
    Option.bind (Option.bind cache (fun c -> Cache.get c key)) (unit_of_json key)
  in
  let valid u =
    let wcet_problems, bcet_problems = problems () in
    cached_valid ~counter wcet_problems u.wcet
    && cached_valid ~counter bcet_problems u.bcet
  in
  match stored with
  | Some u when valid u ->
    counter.cached <- counter.cached + 1;
    u
  | _ ->
    (match (stored, cache) with
     | Some _, Some c -> Cache.remove c key
     | _ -> ());
    counter.solved <- counter.solved + 1;
    let u = solve () in
    Option.iter (fun c -> Cache.put c key (unit_to_json u)) cache;
    u

(* one function solved alone with its entry pinned to 1; a call block's
   cost folds in the callee's per-entry cycles. The two ILPs are built
   eagerly: a cache hit validates against exactly the problems a miss
   would solve *)
let func_unit ~pool ~counter ~cache ~deadline (spec : A.spec) layout units
    (func : P.func) =
  let costs =
    Cost.func_bounds ~mach:spec.A.mach ?dcache:spec.A.dcache ~prog:spec.A.prog
      spec.A.cache layout func
  in
  (* direct callees in call order (duplicates kept: the key only needs to be
     a deterministic function of everything the solve reads) *)
  let callees =
    Array.to_list func.P.blocks
    |> List.concat_map (fun b ->
      List.map
        (fun g ->
          let u = Hashtbl.find units g in
          (g, u.wcet.ext.A.cycles, u.bcet.ext.A.cycles))
        (P.calls_of_block b))
  in
  let key =
    Key.func_key ~mach:(Machine.id spec.A.mach) ~cache:spec.A.cache
      ~dcache:spec.A.dcache ~costs ~annotations:spec.A.loop_bounds ~callees
      func
  in
  let inst = { Ipet.Structural.ctx = Ipet.Flowvar.root_ctx; func; sites = [] } in
  let base =
    Ipet.Structural.instance_constraints inst ~is_root:true
    @ A.loop_constraints spec [ inst ]
  in
  let problem direction select_cost select =
    let cost _ (b : P.block) =
      List.fold_left
        (fun acc g -> acc + (select (Hashtbl.find units g)).ext.A.cycles)
        (select_cost costs.(b.P.id))
        (P.calls_of_block b)
    in
    Lp.make direction (A.objective [ inst ] ~cost) base
  in
  let wcet_problem =
    problem Lp.Maximize (fun c -> c.Cost.worst) (fun u -> u.wcet)
  in
  let bcet_problem =
    problem Lp.Minimize (fun c -> c.Cost.best) (fun u -> u.bcet)
  in
  let solve problem =
    check_deadline deadline;
    let ext, stats, cert =
      A.solve_extreme ~canonical:false ~pool ~certify:true spec [ inst ]
        [ problem ]
    in
    record_solve counter stats;
    fresh ~counter ~what:func.P.name ext cert
  in
  cached_or_solve ~counter ~cache key
    ~problems:(fun () -> ([ wcet_problem ], [ bcet_problem ]))
    ~solve:(fun () ->
      let wcet = solve wcet_problem in
      { key; wcet; bcet = solve bcet_problem })

(* functionality constraints and the first-miss refinement couple flow
   variables across functions: the whole program is one unit, solved by
   the monolithic analysis *)
let program_unit ~pool ~counter ~cache ~deadline (spec : A.spec) =
  check_deadline deadline;
  let key =
    Key.program_key ~mach:(Machine.id spec.A.mach) ~cache:spec.A.cache
      ~dcache:spec.A.dcache ~root:spec.A.root
      ~annotations:spec.A.loop_bounds ~functional:spec.A.functional spec.A.prog
  in
  cached_or_solve ~counter ~cache key
    ~problems:(fun () -> (A.wcet_problems spec, A.bcet_problems spec))
    ~solve:(fun () ->
      let r = A.analyze ~pool ~certify:true spec in
      record_solve counter r.A.wcet_stats;
      record_solve counter r.A.bcet_stats;
      let wcet = fresh ~counter ~what:"wcet" r.A.wcet r.A.wcet_cert in
      { key; wcet; bcet = fresh ~counter ~what:"bcet" r.A.bcet r.A.bcet_cert })

(* --- aggregation and report ----------------------------------------------- *)

(* scale each unit's witness by the entry count its callers' witnesses
   induce, callers first; the root enters once. The program unit is the
   only unit of its request, so its whole-program counts pass unscaled *)
let aggregate prog root topo units select =
  let entries = Hashtbl.create 8 in
  Hashtbl.replace entries root 1;
  let entry f = Option.value ~default:0 (Hashtbl.find_opt entries f) in
  let ext f = (select (Hashtbl.find units f)).ext in
  List.iter
    (fun fname ->
      let e = entry fname in
      if e > 0 then
        List.iter
          (fun ((f, b), c) ->
            List.iter
              (fun g -> Hashtbl.replace entries g (entry g + (e * c)))
              (P.calls_of_block (P.find_func prog f).P.blocks.(b)))
          (ext fname).A.counts)
    (List.rev topo);
  let live = List.filter (fun f -> entry f > 0) topo in
  let counts =
    List.concat_map
      (fun f -> List.map (fun (fb, c) -> (fb, entry f * c)) (ext f).A.counts)
      live
    |> List.sort compare
  in
  let binding =
    List.concat_map (fun f -> (ext f).A.binding) live |> List.sort_uniq compare
  in
  (counts, binding, entry)

let report (spec : A.spec) ~kind topo units =
  let root = spec.A.root in
  let side select = aggregate spec.A.prog root topo units select in
  let wcet_counts, wcet_binding, wcet_entries = side (fun u -> u.wcet) in
  let bcet_counts, bcet_binding, bcet_entries = side (fun u -> u.bcet) in
  let cycles f select = Json.Int (select (Hashtbl.find units f)).ext.A.cycles in
  let row f =
    Json.Obj
      [ ("name", Json.Str f);
        ("key", Json.Str (Hashtbl.find units f).key);
        ("bcet_pe", cycles f (fun u -> u.bcet));
        ("wcet_pe", cycles f (fun u -> u.wcet));
        ("bcet_entries", Json.Int (bcet_entries f));
        ("wcet_entries", Json.Int (wcet_entries f)) ]
  in
  Json.Obj
    [ ("schema", Json.Int Key.schema);
      ("root", Json.Str root);
      ("unit", Json.Str kind);
      ("bcet", cycles root (fun u -> u.bcet));
      ("wcet", cycles root (fun u -> u.wcet));
      ("wcet_counts", counts_json wcet_counts);
      ("wcet_binding", strings_json wcet_binding);
      ("bcet_counts", counts_json bcet_counts);
      ("bcet_binding", strings_json bcet_binding);
      ("units", Json.List (List.map row topo)) ]

(* --- entry point --------------------------------------------------------- *)

let analyze ?pool ?cache ?deadline (spec : A.spec) =
  let pool =
    match pool with Some p -> p | None -> Ipet_par.Pool.default ()
  in
  let counter =
    { cached = 0; solved = 0; solves = 0; warm = 0; pivots = 0;
      cert_checks = 0; cert_rejects = 0 }
  in
  let units : (string, unit_result) Hashtbl.t = Hashtbl.create 8 in
  let kind, topo =
    if spec.A.functional <> [] || spec.A.first_miss_refinement then begin
      Hashtbl.replace units spec.A.root
        (program_unit ~pool ~counter ~cache ~deadline spec);
      ("program", [ spec.A.root ])
    end
    else begin
      let prog = spec.A.prog in
      if not (Array.exists (fun (f : P.func) -> f.P.name = spec.A.root)
                prog.P.funcs)
      then fail "unknown root function %s" spec.A.root;
      let layout = Layout.make prog in
      let cg = Callgraph.of_program prog in
      let reach = Hashtbl.create 8 in
      let rec mark f =
        if not (Hashtbl.mem reach f) then begin
          Hashtbl.add reach f ();
          List.iter mark (Callgraph.callees cg f)
        end
      in
      mark spec.A.root;
      (* callees first; restricted to functions reachable from the root *)
      let topo =
        List.filter (Hashtbl.mem reach) (Callgraph.topological_order cg)
      in
      List.iter
        (fun fname ->
          Hashtbl.replace units fname
            (func_unit ~pool ~counter ~cache ~deadline spec layout units
               (P.find_func prog fname)))
        topo;
      ("func", topo)
    end
  in
  ( report spec ~kind topo units,
    { units_total = counter.cached + counter.solved;
      units_cached = counter.cached;
      units_solved = counter.solved;
      ilp_solves = counter.solves;
      warm_lp_hits = counter.warm;
      simplex_pivots = counter.pivots;
      certs_checked = counter.cert_checks;
      certs_rejected = counter.cert_rejects } )
