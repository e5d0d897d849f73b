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

let certified_suite jobs () =
  let pool = Pool.create ~jobs in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun (b : Bspec.t) ->
          let name = b.Bspec.name in
          let r = A.analyze ~pool ~certify:true (Bspec.spec b) in
          let side what cycles = function
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
                (Rat.equal c.A.cert.Cert.bound (Rat.of_int cycles))
          in
          side "wcet" r.A.wcet.A.cycles r.A.wcet_cert;
          side "bcet" r.A.bcet.A.cycles r.A.bcet_cert)
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
