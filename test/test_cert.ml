(* Proof-carrying bounds: the trusted checker against hand-built LPs,
   QCheck mutation properties (a perturbed certificate is rejected),
   serialization round trips, and full-suite certificate validation at
   two pool sizes. *)

open Ipet_num
module L = Ipet_lp.Linexpr
module P = Ipet_lp.Lp_problem
module Ilp = Ipet_lp.Ilp
module Cert = Ipet_cert.Certificate
module Checker = Ipet_cert.Checker
module Certify = Ipet_cert.Certify
module A = Ipet.Analysis
module Pool = Ipet_par.Pool
module Bspec = Ipet_suite.Bspec
module J = Ipet_obs.Json
module R = Ipet_lp.Revised
module Simplex = Ipet_lp.Simplex
module Sparse = Ipet_lp.Sparse
module Machine = Ipet_machine.Machine
module Obs = Ipet_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let valid = function Checker.Valid _ -> true | Checker.Invalid _ -> false

let reasons = function
  | Checker.Valid _ -> []
  | Checker.Invalid rs -> rs

let solve_and_certify problem =
  match Ilp.solve problem with
  | Ilp.Optimal { value; assignment; _ } ->
    (match Certify.certify problem ~witness:assignment ~bound:value with
     | Ok c -> c
     | Error m -> Alcotest.failf "certificate production failed: %s" m)
  | Ilp.Infeasible _ -> Alcotest.fail "unexpectedly infeasible"
  | Ilp.Unbounded _ -> Alcotest.fail "unexpectedly unbounded"

(* max x + 2y  s.t.  x <= 4, y <= 3, x + y <= 5: optimum 8 at (2, 3) *)
let textbook_max =
  let open L.Infix in
  P.make P.Maximize
    (v "x" + (2 * v "y"))
    [ P.le (v "x") (int 4) ~origin:"x cap";
      P.le (v "y") (int 3) ~origin:"y cap";
      P.le (v "x" + v "y") (int 5) ~origin:"sum cap" ]

let test_checker_accepts () =
  let c = solve_and_certify textbook_max in
  let verdict = Checker.check textbook_max c in
  check_bool "valid" true (valid verdict);
  check_bool "gap closed (LP optimum is integral)" true
    (Checker.gap_closed verdict);
  check_bool "bound is 8" true (Rat.equal c.Cert.bound (Rat.of_int 8));
  check_bool "dual bound matches" true
    (Rat.equal c.Cert.dual_bound (Rat.of_int 8));
  check_int "one dual per constraint" 3 (Array.length c.Cert.duals)

let test_checker_accepts_minimize () =
  let open L.Infix in
  (* min 3a + b  s.t.  a + b >= 4, a >= 1: optimum 6 at (1, 3) *)
  let p =
    P.make P.Minimize
      ((3 * v "a") + v "b")
      [ P.ge (v "a" + v "b") (int 4); P.ge (v "a") (int 1) ]
  in
  let c = solve_and_certify p in
  let verdict = Checker.check p c in
  check_bool "valid" true (valid verdict);
  check_bool "gap closed" true (Checker.gap_closed verdict);
  check_bool "bound is 6" true (Rat.equal c.Cert.bound (Rat.of_int 6))

let test_checker_rejects_tampering () =
  let c = solve_and_certify textbook_max in
  let rejected what c' =
    check_bool (what ^ " is rejected") false
      (valid (Checker.check textbook_max c'))
  in
  rejected "an inflated bound"
    { c with Cert.bound = Rat.add c.Cert.bound Rat.one };
  rejected "an inflated dual bound"
    { c with Cert.dual_bound = Rat.add c.Cert.dual_bound Rat.one };
  rejected "a perturbed dual"
    { c with
      Cert.duals =
        (let d = Array.copy c.Cert.duals in
         d.(0) <- Rat.add d.(0) Rat.one;
         d) };
  rejected "a truncated dual vector"
    { c with Cert.duals = Array.sub c.Cert.duals 0 2 };
  rejected "a perturbed witness count"
    { c with
      Cert.witness =
        List.map
          (fun (name, n) ->
            if name = "y" then (name, Rat.add n Rat.one) else (name, n))
          c.Cert.witness };
  rejected "a fractional witness"
    { c with
      Cert.witness =
        List.map (fun (n, x) -> (n, Rat.div x (Rat.of_int 2))) c.Cert.witness };
  rejected "the wrong problem digest" { c with Cert.digest = "deadbeef" };
  rejected "the wrong direction"
    { c with Cert.direction = P.Minimize };
  (* and a certificate for a different problem is refused outright *)
  let other =
    let open L.Infix in
    P.make P.Maximize (v "x") [ P.le (v "x") (int 7) ]
  in
  check_bool "certificate for another problem is rejected" false
    (valid (Checker.check other c));
  check_bool "rejections carry a reason" true
    (reasons (Checker.check other c) <> [])

let test_roundtrip () =
  let c = solve_and_certify textbook_max in
  (match Cert.of_string (Cert.to_string c) with
   | Error m -> Alcotest.failf "round trip failed: %s" m
   | Ok c' ->
     Alcotest.(check string)
       "serialization is stable" (Cert.to_string c) (Cert.to_string c');
     check_bool "round-tripped certificate still checks" true
       (valid (Checker.check textbook_max c')));
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "of_string rejects %S" s)
        true
        (match Cert.of_string s with Error _ -> true | Ok _ -> false))
    [ ""; "garbage"; "ipet-cert v1"; Cert.to_string c ^ "\ntrailing" ]

let test_json_export () =
  let c = solve_and_certify textbook_max in
  match J.parse (Cert.to_json_string c) with
  | Error m -> Alcotest.failf "exported JSON does not parse: %s" m
  | Ok j ->
    check_bool "direction" true (J.member "direction" j = Some (J.Str "max"));
    check_bool "bound is a decimal string" true
      (J.member "bound" j = Some (J.Str "8"));
    check_bool "digest round-trips" true
      (J.member "digest" j = Some (J.Str c.Cert.digest));
    check_bool "witness is an object" true
      (match J.member "witness" j with Some (J.Obj _) -> true | _ -> false)

(* --- mutation properties -------------------------------------------------- *)

(* a random box-plus-knapsack family: max Σ c_i x_i  s.t.  x_i <= b_i,
   Σ x_i <= t, with c_i, b_i >= 1 — always feasible and bounded, every
   constraint with nonzero right-hand side, every variable in the
   objective, so any single perturbation below provably breaks a checker
   equation (witness objective, implied dual bound, or the digest) *)
let random_problem (nvars, caps, costs, slack) =
  let n = 1 + (nvars mod 5) in
  let cap i = 1 + (List.nth caps (i mod List.length caps) mod 9) in
  let cost i = 1 + (List.nth costs (i mod List.length costs) mod 9) in
  let idxs = List.init n Fun.id in
  let budget =
    1 + (slack mod List.fold_left (fun acc i -> acc + cap i) 0 idxs)
  in
  let x i = L.var (Printf.sprintf "x%d" i) in
  let open L.Infix in
  let total = List.fold_left (fun acc i -> acc + x i) L.zero idxs in
  P.make P.Maximize
    (List.fold_left (fun acc i -> acc + (cost i * x i)) L.zero idxs)
    (P.le total (int budget)
     :: List.map (fun i -> P.le (x i) (int (cap i))) idxs)

let family =
  QCheck.(
    quad (int_bound 1000)
      (list_of_size (Gen.return 5) (int_bound 1000))
      (list_of_size (Gen.return 5) (int_bound 1000))
      (int_bound 1000))

let prop_valid_then_mutated_rejected which mutate =
  QCheck.Test.make ~name:(Printf.sprintf "a perturbed %s is rejected" which)
    ~count:60
    QCheck.(pair family (pair (int_bound 100) (int_range 1 3)))
    (fun (seedcase, (pick, delta)) ->
      let p = random_problem seedcase in
      let c = solve_and_certify p in
      valid (Checker.check p c)
      && not (valid (mutate ~pick ~delta p c)))

let prop_mutated_dual =
  prop_valid_then_mutated_rejected "dual multiplier" (fun ~pick ~delta p c ->
    let d = Array.copy c.Cert.duals in
    let k = pick mod Array.length d in
    d.(k) <- Rat.add d.(k) (Rat.of_int delta);
    Checker.check p { c with Cert.duals = d })

let prop_mutated_witness =
  prop_valid_then_mutated_rejected "witness count" (fun ~pick ~delta p c ->
    (* the optimum saturates at least one variable above zero, so the
       witness is never empty; bump one entry *)
    let w = c.Cert.witness in
    let k = pick mod max 1 (List.length w) in
    Checker.check p
      { c with
        Cert.witness =
          List.mapi
            (fun i (name, n) ->
              if i = k then (name, Rat.add n (Rat.of_int delta))
              else (name, n))
            w })

let prop_mutated_coefficient =
  prop_valid_then_mutated_rejected "constraint coefficient"
    (fun ~pick ~delta p c ->
      (* perturbing the problem itself must flip the digest check: the
         certificate no longer speaks about the problem being checked *)
      let n = List.length p.P.constraints in
      let k = pick mod n in
      let open L.Infix in
      let constraints =
        List.mapi
          (fun i (cs : P.constr) ->
            if i = k then
              { cs with P.expr = cs.P.expr + int delta }
            else cs)
          p.P.constraints
      in
      Checker.check { p with P.constraints } c)

(* --- the whole suite, certified, at two pool sizes ------------------------ *)

(* the LP optimum of [p] in its own direction, from a cold solve *)
let cold_optimum p =
  match Simplex.solve p with
  | Simplex.Optimal { value; _ } -> value
  | Simplex.Infeasible | Simplex.Unbounded ->
    Alcotest.fail "LP relaxation has no optimum"

(* the certificate, whose solve started at the witness, proves the same LP
   optimum a cold solve of the un-presolved problem it names finds;
   [problems] are the analysis's problems for the certified side *)
let dual_bound_is_cold_optimum problems (c : A.certificate) =
  let p =
    List.find
      (fun q -> Cert.digest_problem q = c.A.cert.Cert.digest)
      problems
  in
  Rat.equal c.A.cert.Cert.dual_bound (cold_optimum p)

let certified_suite jobs () =
  let pool = Pool.create ~jobs in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun (b : Bspec.t) ->
          let name = b.Bspec.name in
          let r = A.analyze ~pool ~certify:true (Bspec.spec b) in
          let side what cycles problems = function
            | None -> Alcotest.failf "%s: no %s certificate" name what
            | Some (c : A.certificate) ->
              check_bool
                (Printf.sprintf "%s: %s certificate valid" name what)
                true (valid c.A.verdict);
              check_bool
                (Printf.sprintf "%s: %s gap closed" name what)
                true
                (Checker.gap_closed c.A.verdict);
              check_bool
                (Printf.sprintf "%s: %s certificate certifies the bound" name
                   what)
                true
                (Rat.equal c.A.cert.Cert.bound (Rat.of_int cycles));
              check_bool
                (Printf.sprintf "%s: %s dual bound is the cold LP optimum"
                   name what)
                true
                (dual_bound_is_cold_optimum (problems (Bspec.spec b)) c)
          in
          side "wcet" r.A.wcet.A.cycles A.wcet_problems r.A.wcet_cert;
          side "bcet" r.A.bcet.A.cycles A.bcet_problems r.A.bcet_cert)
        Ipet_suite.Suite.all)

(* --- the CLI: --certify with observability on --------------------------- *)

let cli_source =
  {|int data[10];
int check_data() {
  int i; int morecheck; int wrongone;
  morecheck = 1;  i = 0;  wrongone = 0 - 1;
  while (morecheck) {
    if (data[i] < 0) { wrongone = i; morecheck = 0; }
    else { i = i + 1; if (i >= 10) morecheck = 0; }
  }
  if (wrongone >= 0) return 0;
  return 1;
}
|}

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* both observability flags register metrics next to the certificate's: a
   metric registered under two kinds used to abort the run *)
let test_cli_certify_observed () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../bin/cinderella.exe"
  in
  let dir = Filename.temp_file "cert-cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let file name = Filename.concat dir name in
  write_file (file "p.mc") cli_source;
  write_file (file "p.ann") "root check_data\nloop check_data 5 1 10\n";
  List.iter
    (fun (mach, flag) ->
      let what = Printf.sprintf "%s %s" mach flag in
      let out = file "out.json" and stdout_path = file "stdout.txt" in
      let fd =
        Unix.openfile stdout_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
          0o644
      in
      let pid =
        Unix.create_process exe
          [| exe; "analyze"; "--certify"; "--mach"; mach; flag; out; "-a";
             file "p.ann"; file "p.mc" |]
          Unix.stdin fd fd
      in
      Unix.close fd;
      (match Unix.waitpid [] pid with
       | _, Unix.WEXITED 0 -> ()
       | _, (Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n) ->
         Alcotest.failf "%s: exit %d\n%s" what n (read_file stdout_path));
      let report = read_file stdout_path in
      List.iter
        (fun line ->
          check_bool (Printf.sprintf "%s: %s" what line) true
            (contains report line))
        [ "wcet certificate: valid"; "bcet certificate: valid" ];
      check_bool (what ^ ": the written document parses") true
        (Result.is_ok (J.parse (read_file out))))
    [ ("e32", "--metrics-out"); ("e32", "--trace-out");
      ("m7", "--metrics-out"); ("m7", "--trace-out") ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_mutated_dual; prop_mutated_witness; prop_mutated_coefficient ]

(* --- the certificate LP starts at the witness ---------------------------- *)

let certify_ok p ~witness ~bound =
  match Certify.certify p ~witness ~bound with
  | Ok c -> c
  | Error m -> Alcotest.failf "certificate production failed: %s" m

(* the certificate solve folds its pivots into the process counter *)
let test_cert_pivots_counted () =
  let spec = Bspec.spec (Ipet_suite.Suite.find "whetstone") in
  let p = List.hd (A.wcet_problems spec) in
  match Ilp.solve p with
  | Ilp.Optimal { value; assignment; _ } ->
    let before = Simplex.pivots () in
    ignore (certify_ok p ~witness:assignment ~bound:value);
    check_bool "certify adds to Simplex.pivots" true
      (Simplex.pivots () - before > 0)
  | Ilp.Infeasible _ | Ilp.Unbounded _ -> Alcotest.fail "whetstone unsolved"

(* a trace of a certified analysis shows emission and checking inside the
   side they certify *)
let test_cert_spans_nested () =
  let pool = Pool.create ~jobs:1 in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown pool;
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      List.iter
        (fun mach ->
          Obs.reset ();
          Obs.enable ();
          let spec = Bspec.spec ~mach (Ipet_suite.Suite.find "check_data") in
          ignore (A.analyze ~pool ~certify:true spec);
          let spans = Obs.spans () in
          let within (outer : Ipet_obs.Span.completed)
              (inner : Ipet_obs.Span.completed) =
            outer.tid = inner.tid && outer.depth < inner.depth
            && outer.start_us <= inner.start_us
            && inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us
          in
          List.iter
            (fun (side, name) ->
              let what = Printf.sprintf "%s %s %s" (Machine.id mach) side name in
              let inner =
                List.filter
                  (fun (s : Ipet_obs.Span.completed) ->
                    s.name = name && List.assoc_opt "solver" s.args = Some side)
                  spans
              in
              check_int (what ^ ": one span") 1 (List.length inner);
              check_bool (what ^ ": nested under analysis." ^ side) true
                (List.exists
                   (fun (s : Ipet_obs.Span.completed) ->
                     s.name = "analysis." ^ side && within s (List.hd inner))
                   spans))
            [ ("wcet", "cert.emit"); ("wcet", "cert.check");
              ("bcet", "cert.emit"); ("bcet", "cert.check") ])
        [ Machine.e32; Machine.m7 ])

(* the optimum and a feasible point below it (one count lowered, which
   every row of the family allows) both certify the same LP optimum, the
   second after phase 2 pivots; from an infeasible start (every variable
   at 10, past every cap) the solve either falls back or crashes into some
   other feasible basis, and finds that optimum too *)
let prop_any_start_certifies =
  QCheck.Test.make ~name:"certify from any start proves the same optimum"
    ~count:60 QCheck.(pair family (int_bound 100))
    (fun (seedcase, pick) ->
      let p = random_problem seedcase in
      match Ilp.solve p with
      | Ilp.Infeasible _ | Ilp.Unbounded _ -> false
      | Ilp.Optimal { value; assignment; _ } ->
        let opt = certify_ok p ~witness:assignment ~bound:value in
        let positive = List.filter (fun (_, x) -> Rat.sign x > 0) assignment in
        let lowered, _ = List.nth positive (pick mod List.length positive) in
        let below =
          List.map
            (fun (v, x) -> if v = lowered then (v, Rat.sub x Rat.one) else (v, x))
            assignment
        in
        let below_value =
          L.eval (Simplex.assignment_env below) p.P.objective
        in
        let sub = certify_ok p ~witness:below ~bound:below_value in
        let inst = Sparse.build ~vars:(P.variables p) p in
        let cost = Array.map (L.coeff p.P.objective) inst.Sparse.vars in
        let optimum (run : R.run) =
          match run.R.verdict with
          | R.Optimal s -> Some s.R.value
          | R.Infeasible | R.Unbounded -> None
        in
        let past_caps =
          R.solve_primal
            ~start:(Array.make (Array.length cost) (Rat.of_int 10))
            inst ~cost
        in
        Checker.gap_closed (Checker.check p opt)
        && valid (Checker.check p sub)
        && (not (Checker.gap_closed (Checker.check p sub)))
        && Rat.equal sub.Cert.dual_bound opt.Cert.dual_bound
        && Option.equal Rat.equal (optimum past_caps) (Some opt.Cert.dual_bound)
        && Option.equal Rat.equal
             (optimum (R.solve_primal inst ~cost))
             (Some opt.Cert.dual_bound))

let start_run p xs =
  let inst = Sparse.build ~vars:(P.variables p) p in
  let cost = Array.map (L.coeff p.P.objective) inst.Sparse.vars in
  R.solve_primal ~start:(Array.map Rat.of_int xs) inst ~cost

let run_value (run : R.run) =
  match run.R.verdict with
  | R.Optimal s -> s.R.value
  | R.Infeasible | R.Unbounded -> Alcotest.fail "no optimum"

(* max x + y  s.t.  x + y <= 2, x <= 2, y <= 2: (2, 0) and (0, 2) are both
   optimal, and their midpoint (1, 1) is optimal but no vertex: its
   support (x, y and both cap slacks) is four columns on three rows, so
   the crash cannot place them all *)
let test_midpoint_start_falls_back () =
  let open L.Infix in
  let p =
    P.make P.Maximize
      (v "x" + v "y")
      [ P.le (v "x" + v "y") (int 2); P.le (v "x") (int 2);
        P.le (v "y") (int 2) ]
  in
  List.iter
    (fun (xs, vertex) ->
      let run = start_run p xs in
      let what = Printf.sprintf "start (%d, %d)" xs.(0) xs.(1) in
      check_bool (what ^ ": crash kept iff a vertex") vertex run.R.from_start;
      check_bool (what ^ ": optimum 2") true
        (Rat.equal (run_value run) (Rat.of_int 2)))
    [ ([| 2; 0 |], true); ([| 0; 2 |], true); ([| 1; 1 |], false) ];
  let c =
    certify_ok p
      ~witness:[ ("x", Rat.one); ("y", Rat.one) ]
      ~bound:(Rat.of_int 2)
  in
  check_bool "certified from the midpoint witness, gap closed" true
    (Checker.gap_closed (Checker.check p c))

(* max x  s.t.  x >= 1, x <= 3 from x = 0: the point violates x >= 1, so
   the crash keeps that row's artificial basic at 1 and must fall back *)
let test_infeasible_start_falls_back () =
  let open L.Infix in
  let p =
    P.make P.Maximize (v "x") [ P.ge (v "x") (int 1); P.le (v "x") (int 3) ]
  in
  let run = start_run p [| 0 |] in
  check_bool "crash discarded" false run.R.from_start;
  check_bool "optimum 3" true (Rat.equal (run_value run) (Rat.of_int 3));
  check_bool "same as the cold solve" true
    (Rat.equal (run_value run)
       (run_value
          (R.solve_primal
             (Sparse.build ~vars:[ "x" ] p)
             ~cost:[| Rat.one |])))

let suite =
  [ ("checker accepts a maximization certificate", `Quick,
     test_checker_accepts);
    ("checker accepts a minimization certificate", `Quick,
     test_checker_accepts_minimize);
    ("checker rejects every tampering", `Quick, test_checker_rejects_tampering);
    ("serialization round trip", `Quick, test_roundtrip);
    ("JSON export", `Quick, test_json_export);
    ("all 13 benchmarks certify at --jobs 1", `Slow, certified_suite 1);
    ("all 13 benchmarks certify at --jobs 4", `Slow, certified_suite 4);
    ("CLI --certify with --metrics-out and --trace-out", `Quick,
     test_cli_certify_observed) ]
  @ props
  @ [ ("certify counts its pivots", `Quick, test_cert_pivots_counted);
      ("cert.emit and cert.check spans nest under their side", `Quick,
       test_cert_spans_nested);
      QCheck_alcotest.to_alcotest prop_any_start_certifies;
      ("a non-vertex start falls back and still certifies", `Quick,
       test_midpoint_start_falls_back);
      ("an infeasible start falls back", `Quick,
       test_infeasible_start_falls_back) ]
