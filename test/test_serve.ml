(* The serve subsystem: JSON wire format, content-addressed cache keys
   (the single-edit invalidation property over the fuzz generator), the
   incremental engine against the monolithic analysis, cold/warm report
   identity, LRU eviction, the request protocol, and a spawned-daemon
   socket round trip. *)

module J = Ipet_obs.Json
module Key = Ipet_serve.Key
module Cache = Ipet_serve.Cache
module Incr = Ipet_serve.Incremental
module Protocol = Ipet_serve.Protocol
module Client = Ipet_serve.Client
module A = Ipet.Analysis
module P = Ipet_isa.Prog
module Instr = Ipet_isa.Instr
module Layout = Ipet_isa.Layout
module Cost = Ipet_machine.Cost
module Icache = Ipet_machine.Icache
module Compile = Ipet_lang.Compile
module Frontend = Ipet_lang.Frontend
module Gen = Ipet_fuzz.Gen
module Render = Ipet_fuzz.Render
module Bspec = Ipet_suite.Bspec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tmp_counter = ref 0

let tmp_dir prefix =
  incr tmp_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)
  in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

(* --- JSON ----------------------------------------------------------------- *)

let roundtrip v =
  match J.parse (J.to_string v) with
  | Ok v' -> v' = v
  | Error _ -> false

let test_json_roundtrip () =
  let v =
    J.Obj
      [ ("null", J.Null);
        ("bools", J.List [ J.Bool true; J.Bool false ]);
        ("ints", J.List [ J.Int 0; J.Int (-7); J.Int max_int; J.Int min_int ]);
        ("floats", J.List [ J.Float 1.5; J.Float (-0.125); J.Float 1e100 ]);
        ("str", J.Str "line\nbreak \"quoted\" \\ tab\t control\x01 utf8 \xc3\xa9");
        ("nested", J.Obj [ ("empty_list", J.List []); ("empty_obj", J.Obj []) ]) ]
  in
  check_bool "compound value survives a print/parse round trip" true
    (roundtrip v);
  (* ints and floats stay distinct *)
  check_bool "int is parsed as Int" true (J.parse "42" = Ok (J.Int 42));
  check_bool "exponent is parsed as Float" true
    (J.parse "1e2" = Ok (J.Float 100.0));
  (* unicode escapes, including a surrogate pair *)
  check_bool "\\u escape decodes to UTF-8" true
    (J.parse {|"\u00e9 \ud83d\ude00"|} = Ok (J.Str "\xc3\xa9 \xf0\x9f\x98\x80"))

let test_json_nonfinite () =
  (* JSON has no nan/infinity literal; the printer must not pass a bogus
     measurement off as a real zero, so non-finite degrades to null — and
     the output must still parse *)
  List.iter
    (fun f ->
      let printed = J.to_string (J.List [ J.Float f; J.Int 1 ]) in
      check_string
        (Printf.sprintf "%h prints as null" f)
        "[null,1]" printed;
      check_bool "printed form re-parses" true
        (J.parse printed = Ok (J.List [ J.Null; J.Int 1 ])))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_errors () =
  let rejects s = match J.parse s with Ok _ -> false | Error _ -> true in
  List.iter
    (fun s -> check_bool (Printf.sprintf "rejects %S" s) true (rejects s))
    [ ""; "nul"; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "1 2";
      "{\"a\":1}garbage"; "\"\\q\""; "\"\xc3"; "\"\\ud800\"";
      String.make 600 '[' ^ String.make 600 ']' ]

let json_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
    let leaf =
      oneof
        [ return J.Null;
          map (fun b -> J.Bool b) bool;
          map (fun i -> J.Int i) int;
          map (fun s -> J.Str s) (string_size (int_bound 12));
          (* odd/8 is never integral, so the printer can't collapse the
             float to an int literal (huge integral floats would re-parse
             as Int; real reports only carry ints) *)
          map
            (fun i -> J.Float (float_of_int ((2 * i) + 1) /. 8.0))
            (int_bound 1_000_000) ]
    in
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2)));
          map
            (fun l -> J.Obj l)
            (list_size (int_bound 4)
               (pair (string_size (int_bound 8)) (self (n / 2)))) ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"random values survive a print/parse round trip"
    ~count:200 (QCheck.make json_gen) roundtrip

(* --- cache keys ----------------------------------------------------------- *)

let compile_case seed =
  let case = Gen.case seed in
  match Frontend.compile_string (Render.program case.Gen.prog) with
  | Ok compiled -> (case.Gen.cache, compiled.Compile.prog)
  | Error { Frontend.message; _ } ->
    Alcotest.failf "fuzz case %d does not compile: %s" seed message

(* bump the first integer-immediate ALU operand found in the function *)
let mutate_imm (f : P.func) =
  let changed = ref false in
  let blocks =
    Array.map
      (fun (b : P.block) ->
        { b with
          P.instrs =
            Array.map
              (fun i ->
                if !changed then i
                else
                  match i with
                  | Instr.Alu (op, r, a, Instr.Imm n) ->
                    changed := true;
                    Instr.Alu (op, r, a, Instr.Imm (n + 1))
                  | i -> i)
              b.P.instrs })
      f.P.blocks
  in
  if !changed then Some { f with P.blocks = blocks } else None

(* distinct serializations must have distinct digests (and identical
   serializations identical digests) across everything the run hashes *)
let seen_keys : (string, string) Hashtbl.t = Hashtbl.create 64

let record_key bytes key =
  (match Hashtbl.find_opt seen_keys key with
   | Some bytes' ->
     check_string "equal keys imply equal serializations" bytes' bytes
   | None -> Hashtbl.add seen_keys key bytes);
  key

let func_key_checked ~cache ~costs f =
  let bytes =
    Key.func_bytes ~mach:"e32" ~cache ~dcache:None ~costs ~annotations:[]
      ~callees:[] f
  in
  record_key bytes
    (Key.func_key ~mach:"e32" ~cache ~dcache:None ~costs ~annotations:[]
       ~callees:[] f)

(* the single-edit property: changing one immediate in one function changes
   that function's key and nobody else's *)
let prop_single_edit_invalidation =
  QCheck.Test.make
    ~name:"an immediate edit invalidates exactly the edited function's key"
    ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cache, prog = compile_case seed in
      let layout = Layout.make prog in
      let costs f = Cost.func_bounds ~prog cache layout f in
      let keys =
        Array.map
          (fun f -> (f, func_key_checked ~cache ~costs:(costs f) f))
          prog.P.funcs
      in
      match List.find_map mutate_imm (Array.to_list prog.P.funcs) with
      | None -> true (* no immediate anywhere: nothing to edit *)
      | Some mutated ->
        Array.for_all
          (fun ((f : P.func), key) ->
            if f.P.name = mutated.P.name then
              (* same block structure, same costs — only the compiled
                 bytes change the key *)
              func_key_checked ~cache ~costs:(costs f) mutated <> key
            else func_key_checked ~cache ~costs:(costs f) f = key)
          keys)

(* changing only the machine id changes every digest the run hashes —
   holding the program, costs, cache geometry, annotations and callees
   fixed — so two machines can never share a cache entry even when their
   timings happen to agree on the program at hand *)
let prop_mach_changes_every_key =
  QCheck.Test.make
    ~name:"changing only the machine id changes every key" ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cache, prog = compile_case seed in
      let layout = Layout.make prog in
      let func_key ~mach (f : P.func) =
        let costs = Cost.func_bounds ~prog cache layout f in
        Key.func_key ~mach ~cache ~dcache:None ~costs ~annotations:[]
          ~callees:[] f
      in
      let program_key ~mach =
        Key.program_key ~mach ~cache ~dcache:None ~root:"main"
          ~annotations:[] ~functional:[] ~first_miss:false prog
      in
      Array.for_all
        (fun f -> func_key ~mach:"e32" f <> func_key ~mach:"m7" f)
        prog.P.funcs
      && program_key ~mach:"e32" <> program_key ~mach:"m7")

let test_key_callee_interval () =
  let _, prog = compile_case 3 in
  let cache = Icache.i960kb in
  let layout = Layout.make prog in
  let f = prog.P.funcs.(0) in
  let costs = Cost.func_bounds ~prog cache layout f in
  let key callees =
    Key.func_key ~mach:"e32" ~cache ~dcache:None ~costs ~annotations:[]
      ~callees f
  in
  check_bool "callee interval is part of the key" true
    (key [ ("g", 10, 2) ] <> key [ ("g", 11, 2) ]);
  check_bool "same callee intervals, same key" true
    (key [ ("g", 10, 2) ] = key [ ("g", 10, 2) ])

(* --- incremental vs monolithic ------------------------------------------- *)

let bounds_of_report rep =
  match
    ( Option.bind (J.member "bcet" rep) J.to_int,
      Option.bind (J.member "wcet" rep) J.to_int )
  with
  | Some b, Some w -> (b, w)
  | _ -> Alcotest.fail "report lacks integer bcet/wcet"

let test_matches_monolithic () =
  List.iter
    (fun (b : Bspec.t) ->
      List.iter
        (fun mach ->
          let name =
            Printf.sprintf "%s/%s" b.Bspec.name (Ipet_machine.Machine.id mach)
          in
          (* the per-function decomposition path: functionality constraints
             would fall back to one program unit *)
          let spec = { (Bspec.spec ~mach b) with A.functional = [] } in
          let mono = A.estimated_bound spec in
          let rep, stats = Incr.analyze spec in
          Alcotest.(check (pair int int))
            (name ^ ": incremental bounds equal the monolithic analysis")
            mono (bounds_of_report rep);
          check_bool (name ^ ": decomposed per function") true
            (stats.Incr.units_total > 0
             && J.member "unit" rep = Some (J.Str "func")))
        [ Ipet_machine.Machine.e32; Ipet_machine.Machine.m7 ])
    Ipet_suite.Suite.all

let test_functional_fallback () =
  (* check_data's functionality constraints couple functions, so the
     incremental engine must fall back to one whole-program unit — and
     still reproduce the monolithic bounds *)
  let spec = Bspec.spec (Ipet_suite.Suite.find "check_data") in
  let mono = A.estimated_bound spec in
  let rep, stats = Incr.analyze spec in
  Alcotest.(check (pair int int))
    "fallback bounds equal the monolithic analysis" mono
    (bounds_of_report rep);
  check_bool "analyzed as a single program unit" true
    (J.member "unit" rep = Some (J.Str "program") && stats.Incr.units_total = 1)

(* --- cold/warm cache behavior -------------------------------------------- *)

let test_cold_warm_identical () =
  let spec = Bspec.spec (Ipet_suite.Suite.find "des") in
  let spec = { spec with A.functional = [] } in
  let cache =
    Cache.create ~dir:(tmp_dir "serve-coldwarm") ~cap_bytes:(16 * 1024 * 1024)
  in
  let uncached, _ = Incr.analyze spec in
  let cold, cold_stats = Incr.analyze ~cache spec in
  let warm, warm_stats = Incr.analyze ~cache spec in
  check_string "cached report is byte-identical to the uncached one"
    (J.to_string uncached) (J.to_string cold);
  check_string "warm report is byte-identical to the cold one"
    (J.to_string cold) (J.to_string warm);
  check_bool "cold run solved every unit" true
    (cold_stats.Incr.units_solved = cold_stats.Incr.units_total
     && cold_stats.Incr.ilp_solves > 0);
  check_int "warm run solved nothing" 0 warm_stats.Incr.units_solved;
  check_int "warm run invoked no solver" 0 warm_stats.Incr.ilp_solves

(* a two-function program whose leaf we can edit without changing its
   per-entry interval (addition costs the same whatever the immediate) *)
let edit_source imm =
  Printf.sprintf
    {|int leaf(int x) {
  return (x + %d);
}

int main(int n) {
  int acc = 0;
  int i;
  for (i = 0; i < 8; i = i + 1) {
    acc = acc + leaf(i);
  }
  return acc;
}
|}
    imm

let edit_spec source =
  match Frontend.compile_string source with
  | Error _ -> Alcotest.fail "edit example does not compile"
  | Ok compiled ->
    let line = Bspec.line_containing ~source "for (" in
    A.spec
      ~loop_bounds:[ Ipet.Annotation.loop ~func:"main" ~line ~lo:8 ~hi:8 ]
      ~root:"main" compiled.Compile.prog

let test_one_function_edit () =
  let cache =
    Cache.create ~dir:(tmp_dir "serve-edit") ~cap_bytes:(16 * 1024 * 1024)
  in
  let _, cold = Incr.analyze ~cache (edit_spec (edit_source 3)) in
  check_int "cold run solves both functions" 2 cold.Incr.units_solved;
  (* a size-preserving, timing-neutral edit to leaf: x+3 -> x+5 keeps
     leaf's interval, so main's key (costs + callee intervals) is
     unchanged and only leaf is re-solved *)
  let _, incr = Incr.analyze ~cache (edit_spec (edit_source 5)) in
  check_int "the edit re-solves only the edited function" 1
    incr.Incr.units_solved;
  check_int "the caller is served from the cache" 1 incr.Incr.units_cached;
  let _, warm = Incr.analyze ~cache (edit_spec (edit_source 5)) in
  check_int "repeating the edited request solves nothing" 0
    warm.Incr.units_solved

(* --- LRU eviction --------------------------------------------------------- *)

let test_lru_eviction () =
  let dir = tmp_dir "serve-lru" in
  let k i = Digest.to_hex (Digest.string (string_of_int i)) in
  let payload i =
    J.Obj [ ("n", J.Int i); ("pad", J.Str (String.make 40 'x')) ]
  in
  let entry_bytes = String.length (J.to_string (payload 0)) in
  let cache = Cache.create ~dir ~cap_bytes:(2 * entry_bytes) in
  Cache.put cache (k 1) (payload 1);
  Cache.put cache (k 2) (payload 2);
  (* refresh 1 so 2 is now least recently used *)
  check_bool "k1 present" true (Cache.get cache (k 1) <> None);
  Cache.put cache (k 3) (payload 3);
  let s = Cache.stats cache in
  check_int "one entry was evicted" 1 s.Cache.evictions;
  check_int "two entries remain" 2 s.Cache.entries;
  check_bool "the least-recently-used entry went" true
    (Cache.get cache (k 2) = None);
  check_bool "the refreshed entry stayed" true (Cache.get cache (k 1) <> None);
  (* recency and entries survive a restart via the index file *)
  let reopened = Cache.create ~dir ~cap_bytes:(2 * entry_bytes) in
  check_int "reopened cache sees the surviving entries" 2
    (Cache.stats reopened).Cache.entries;
  check_bool "entries are readable after reopen" true
    (Cache.get reopened (k 3) = Some (payload 3))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* replace the wcet certificate of the first cache entry (in name order)
   with garbage *)
let tamper_first_entry cache =
  let dir = Cache.dir cache in
  let entry =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare |> List.hd
  in
  let path = Filename.concat dir entry in
  let tamper = function
    | J.Obj fields ->
      J.Obj
        (List.map
           (function
             | ("wcet", J.Obj wf) ->
               ( "wcet",
                 J.Obj
                   (List.map
                      (function
                        | "cert", J.Str _ -> ("cert", J.Str "tampered")
                        | kv -> kv)
                      wf) )
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "cache entry is not an object"
  in
  match J.parse (read_file path) with
  | Ok j -> write_file path (J.to_string (tamper j))
  | Error m -> Alcotest.failf "unparsable cache entry: %s" m

let test_cert_self_heal () =
  let cache =
    Cache.create ~dir:(tmp_dir "serve-cert-heal") ~cap_bytes:(16 * 1024 * 1024)
  in
  let spec = edit_spec (edit_source 3) in
  let cold_rep, cold = Incr.analyze ~cache spec in
  check_int "cold run proves every bound it computed"
    (2 * cold.Incr.units_solved) cold.Incr.certs_checked;
  check_int "cold run rejects nothing" 0 cold.Incr.certs_rejected;
  let warm_rep, warm = Incr.analyze ~cache spec in
  check_int "warm run solves nothing" 0 warm.Incr.units_solved;
  check_int "warm bounds are re-proven, not trusted"
    (2 * warm.Incr.units_cached) warm.Incr.certs_checked;
  check_int "warm run rejects nothing" 0 warm.Incr.certs_rejected;
  check_string "warm report is byte-identical" (J.to_string cold_rep)
    (J.to_string warm_rep);
  (* tamper with one cached certificate: the engine must notice, drop the
     entry, and re-solve — never serve a bound it cannot re-prove *)
  tamper_first_entry cache;
  let healed_rep, healed = Incr.analyze ~cache spec in
  check_bool "the tampered certificate was rejected" true
    (healed.Incr.certs_rejected >= 1);
  check_int "exactly the tampered unit was re-solved" 1
    healed.Incr.units_solved;
  check_string "the healed report is byte-identical" (J.to_string cold_rep)
    (J.to_string healed_rep)

(* the whole-program unit (check_data's functionality constraints couple
   its functions) heals the same way: its one entry holds a certificate per
   extreme, checked against the constraint set its digest names *)
let test_program_unit_self_heal () =
  let cache =
    Cache.create ~dir:(tmp_dir "serve-cert-heal-program")
      ~cap_bytes:(16 * 1024 * 1024)
  in
  let spec = Bspec.spec (Ipet_suite.Suite.find "check_data") in
  check_bool "check_data carries functionality constraints" true
    (spec.A.functional <> []);
  let cold_rep, cold = Incr.analyze ~cache spec in
  check_int "one program unit, solved" 1 cold.Incr.units_solved;
  tamper_first_entry cache;
  let healed_rep, healed = Incr.analyze ~cache spec in
  check_int "the tampered certificate was rejected" 1
    healed.Incr.certs_rejected;
  check_int "the unit was re-solved once" 1 healed.Incr.units_solved;
  check_int "nothing was served from the tampered entry" 0
    healed.Incr.units_cached;
  check_bool "the bounds are unchanged" true
    (bounds_of_report healed_rep = bounds_of_report cold_rep);
  check_string "the healed report is byte-identical" (J.to_string cold_rep)
    (J.to_string healed_rep);
  let _, warm = Incr.analyze ~cache spec in
  check_int "the re-stored entry serves the next request" 1
    warm.Incr.units_cached;
  check_int "and its certificates check" 0 warm.Incr.certs_rejected

let test_tmp_sweep () =
  (* a writer that dies between open and rename leaves "*.tmp" files the
     entry namespace can never reference; reopening the cache sweeps them
     and keeps the real entries *)
  let dir = tmp_dir "serve-tmp-sweep" in
  let k i = Digest.to_hex (Digest.string (string_of_int i)) in
  let cache = Cache.create ~dir ~cap_bytes:(1024 * 1024) in
  Cache.put cache (k 1) (J.Obj [ ("n", J.Int 1) ]);
  let orphan name =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc "half-written";
    close_out oc
  in
  orphan (k 2 ^ ".json.tmp");
  orphan "index.tmp";
  let reopened = Cache.create ~dir ~cap_bytes:(1024 * 1024) in
  check_bool "orphaned entry temp was swept" false
    (Sys.file_exists (Filename.concat dir (k 2 ^ ".json.tmp")));
  check_bool "orphaned index temp was swept" false
    (Sys.file_exists (Filename.concat dir "index.tmp"));
  check_bool "real entries survive the sweep" true
    (Cache.get reopened (k 1) = Some (J.Obj [ ("n", J.Int 1) ]))

(* --- protocol ------------------------------------------------------------- *)

let pconfig = Protocol.make ()

let response_code response =
  match J.parse response with
  | Error _ -> Alcotest.failf "unparsable response: %s" response
  | Ok j ->
    (match J.member "ok" j with
     | Some (J.Bool true) -> "ok"
     | _ ->
       (match
          Option.bind
            (Option.bind (J.member "error" j) (J.member "code"))
            J.to_str
        with
        | Some code -> code
        | None -> Alcotest.failf "error without code: %s" response))

let analyze_request ?(extra = []) source =
  J.to_string
    (J.Obj
       ([ ("v", J.Int Protocol.version);
          ("op", J.Str "analyze");
          ("source", J.Str source) ]
        @ extra))

let test_protocol_errors () =
  let code line =
    let response, outcome = Protocol.handle_line pconfig line in
    check_bool "errors never stop the server" true
      (outcome = Protocol.Continue);
    response_code response
  in
  check_string "garbage" "proto" (code "this is not json");
  check_string "missing v" "proto" (code {|{"op":"hello"}|});
  check_string "future version" "proto" (code {|{"v":99,"op":"hello"}|});
  check_string "unknown op" "proto" (code {|{"v":1,"op":"frobnicate"}|});
  check_string "analyze without source" "proto"
    (code {|{"v":1,"op":"analyze"}|});
  check_string "unparsable source" "input"
    (code (analyze_request "int main( {"));
  check_string "no root" "input"
    (code (analyze_request "int f() {\n  return 1;\n}\n"));
  check_string "unknown root" "input"
    (code
       (analyze_request "int f() {\n  return 1;\n}\n"
          ~extra:[ ("root", J.Str "g") ]));
  check_string "bad annotations" "input"
    (code
       (analyze_request "int main() {\n  return 1;\n}\n"
          ~extra:[ ("annotations", J.Str "loop main oops") ]));
  check_string "missing loop bound" "analysis"
    (code
       (analyze_request
          "int main(int n) {\n\
           \  int i;\n\
           \  for (i = 0; i < n; i = i + 1) {\n\
           \  }\n\
           \  return i;\n\
           }\n"
          ~extra:[ ("root", J.Str "main") ]));
  check_string "zero deadline" "timeout"
    (code
       (analyze_request "int main() {\n  return 1;\n}\n"
          ~extra:
            [ ("root", J.Str "main");
              ("options", J.Obj [ ("timeout_ms", J.Int 0) ]) ]))

let edit_annotations = "root main\nloop main 8 8 8\n"

let test_protocol_requests () =
  let handle line = Protocol.handle_line pconfig line in
  let hello, outcome = handle {|{"v":1,"op":"hello","id":7}|} in
  check_bool "hello continues" true (outcome = Protocol.Continue);
  (match J.parse hello with
   | Ok j ->
     check_bool "hello reports the build version" true
       (J.member "version" j = Some (J.Str Ipet_serve.Version.version));
     check_bool "hello echoes the id" true (J.member "id" j = Some (J.Int 7))
   | Error _ -> Alcotest.fail "unparsable hello");
  let response, _ =
    handle
      (analyze_request (edit_source 3)
         ~extra:[ ("annotations", J.Str edit_annotations) ])
  in
  check_string "analyze succeeds" "ok" (response_code response);
  (match J.parse response with
   | Ok j ->
     let report = Option.get (J.member "report" j) in
     check_bool "report has a positive wcet" true
       (match bounds_of_report report with b, w -> b > 0 && w >= b)
   | Error _ -> Alcotest.fail "unparsable analyze response");
  let _, outcome = handle {|{"v":1,"op":"shutdown"}|} in
  check_bool "shutdown stops the server" true (outcome = Protocol.Shutdown)

(* --- trace propagation ----------------------------------------------------- *)

let trace_of response =
  match J.parse response with
  | Ok j -> Option.bind (J.member "trace" j) J.to_str
  | Error _ -> None

let test_trace_roundtrip () =
  let pc = Protocol.make () in
  let handle line = fst (Protocol.handle_line pc line) in
  let echoed name line expected_code =
    let response = handle line in
    check_string (name ^ " outcome") expected_code (response_code response);
    check_bool (name ^ " echoes the trace id") true
      (trace_of response = Some ("t-" ^ name))
  in
  echoed "hello" {|{"v":1,"op":"hello","trace":"t-hello"}|} "ok";
  echoed "error" {|{"v":1,"op":"frobnicate","trace":"t-error"}|} "proto";
  echoed "version"
    {|{"v":99,"op":"hello","trace":"t-version"}|} "proto";
  echoed "timeout"
    (analyze_request "int main() {\n  return 1;\n}\n"
       ~extra:
         [ ("trace", J.Str "t-timeout");
           ("root", J.Str "main");
           ("options", J.Obj [ ("timeout_ms", J.Int 0) ]) ])
    "timeout";
  (* a request without a trace field gets no trace echo *)
  check_bool "no trace in, no trace out" true
    (trace_of (handle {|{"v":1,"op":"hello"}|}) = None)

(* --- metrics / recent / stats ops ------------------------------------------ *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let test_observability_ops () =
  let pc = Protocol.make () in
  let handle line = fst (Protocol.handle_line pc line) in
  ignore (handle {|{"v":1,"op":"hello"}|});
  ignore (handle {|{"v":1,"op":"frobnicate","trace":"bad-req"}|});
  (* recent: newest first, with the failed request's error taxonomy code *)
  (match J.parse (handle {|{"v":1,"op":"recent"}|}) with
   | Error _ -> Alcotest.fail "unparsable recent response"
   | Ok j ->
     let events =
       Option.get (Option.bind (J.member "events" j) J.to_list)
     in
     check_bool "recent reports the recorded requests" true
       (List.length events >= 2);
     let seqs =
       List.map
         (fun e -> Option.get (Option.bind (J.member "seq" e) J.to_int))
         events
     in
     check_bool "events are newest-first" true
       (List.sort (fun a b -> compare b a) seqs = seqs);
     let bad =
       List.find_opt
         (fun e -> J.member "id" e = Some (J.Str "bad-req"))
         events
     in
     (match bad with
      | None -> Alcotest.fail "failed request missing from recent"
      | Some e ->
        check_bool "failed request carries its error code" true
          (J.member "error" e = Some (J.Str "proto"));
        check_bool "event carries its op" true
          (J.member "op" e = Some (J.Str "frobnicate"))));
  (* metrics: a JSON registry snapshot plus the Prometheus text *)
  (match J.parse (handle {|{"v":1,"op":"metrics"}|}) with
   | Error _ -> Alcotest.fail "unparsable metrics response"
   | Ok j ->
     let prom =
       Option.get (Option.bind (J.member "prometheus" j) J.to_str)
     in
     check_bool "prometheus text exposes the latency histogram" true
       (contains prom "serve_latency_seconds");
     check_bool "metrics payload is structured JSON" true
       (match Option.bind (J.member "metrics" j) (J.member "metrics") with
        | Some (J.List _) -> true
        | _ -> false));
  (* stats: uniform totals, flight occupancy and cache placeholder *)
  match J.parse (handle {|{"v":1,"op":"stats"}|}) with
  | Error _ -> Alcotest.fail "unparsable stats response"
  | Ok j ->
    let int name = Option.bind (J.member name j) J.to_int in
    check_bool "stats counts every request including itself" true
      (match int "requests" with Some n -> n >= 4 | None -> false);
    check_bool "stats counts errors" true
      (match int "errors" with Some n -> n >= 1 | None -> false);
    check_bool "stats reports flight occupancy" true
      (match int "flight_recorded" with Some n -> n >= 3 | None -> false);
    check_bool "stats reports cert counters" true
      (int "certs_checked" = Some 0 && int "certs_rejected" = Some 0);
    check_bool "cache is null when disabled" true
      (J.member "cache" j = Some J.Null)

(* --- flight recorder -------------------------------------------------------- *)

module Flight = Ipet_obs.Flight

let flight_event i =
  { Flight.time = float_of_int i;
    id = Printf.sprintf "req-%d" i;
    op = "analyze";
    root = "main";
    digests = [ "abc" ];
    units_total = 2;
    units_cached = 1;
    units_solved = 1;
    warm_hits = 3;
    pivots = 40;
    certs_checked = 2;
    certs_rejected = 0;
    latency_ms = 1.5;
    error = (if i mod 2 = 0 then None else Some "analysis") }

let test_flight_ring_wrap () =
  let t = Flight.create ~cap:4 () in
  check_int "empty recorder has no events" 0 (List.length (Flight.recent t));
  for i = 0 to 9 do
    Flight.record t (flight_event i)
  done;
  check_int "total counts every record" 10 (Flight.total t);
  let recent = Flight.recent t in
  check_bool "only the last cap events survive, newest first" true
    (List.map fst recent = [ 9; 8; 7; 6 ]);
  check_bool "newest event is the last recorded" true
    ((List.hd recent |> snd).Flight.id = "req-9");
  check_bool "recent ~n clips" true
    (List.map fst (Flight.recent ~n:2 t) = [ 9; 8 ]);
  (* the dump is oldest-first JSONL, one parseable object per line *)
  let lines =
    Flight.dump t |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check_int "dump holds one line per surviving event" 4 (List.length lines);
  List.iter
    (fun line ->
      match J.parse line with
      | Ok (J.Obj _) -> ()
      | _ -> Alcotest.failf "dump line is not a JSON object: %s" line)
    lines;
  (match J.parse (List.hd lines) with
   | Ok j ->
     check_bool "dump is oldest-first" true
       (J.member "id" j = Some (J.Str "req-6"));
     check_bool "error events keep their taxonomy code" true
       (J.member "error" j = None || J.member "error" j = Some (J.Str "analysis"))
   | Error m -> Alcotest.failf "unparsable dump line: %s" m);
  (* write_dump lands the same content on disk *)
  let path = Filename.concat (tmp_dir "serve-flight") "dump.jsonl" in
  Flight.write_dump t path;
  check_string "write_dump writes the dump" (Flight.dump t) (read_file path)

(* --- access log ------------------------------------------------------------- *)

let test_access_log_rotation () =
  let module Al = Ipet_serve.Access_log in
  let dir = tmp_dir "serve-access" in
  let path = Filename.concat dir "access.jsonl" in
  let log = Al.open_ ~path ~cap_bytes:1024 in
  let line i =
    J.to_string
      (J.Obj
         [ ("id", J.Str (Printf.sprintf "req-%03d" i));
           ("pad", J.Str (String.make 80 'x')) ])
  in
  for i = 0 to 29 do
    Al.write log (line i)
  done;
  Al.close log;
  check_bool "current file exists" true (Sys.file_exists path);
  check_bool "rotation produced the .1 generation" true
    (Sys.file_exists (path ^ ".1"));
  let parse_lines p =
    read_file p |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match J.parse l with
           | Ok j -> Option.get (Option.bind (J.member "id" j) J.to_str)
           | Error m -> Alcotest.failf "unparsable access line %S: %s" l m)
  in
  let current = parse_lines path and previous = parse_lines (path ^ ".1") in
  check_bool "both generations hold whole lines" true
    (current <> [] && previous <> []);
  (* the newest entry is always in the current file, and nothing was lost
     across the last rotation boundary *)
  check_string "last write is in the current file" "req-029"
    (List.nth current (List.length current - 1));
  let boundary = List.hd current in
  let last_prev = List.nth previous (List.length previous - 1) in
  check_string "rotation loses no line"
    (Printf.sprintf "req-%03d"
       (int_of_string (String.sub last_prev 4 3) + 1))
    boundary;
  (* reopening appends to the current generation *)
  let log = Al.open_ ~path ~cap_bytes:(1024 * 1024) in
  Al.write log (line 30);
  Al.close log;
  check_string "reopen appends" "req-030"
    (let all = parse_lines path in
     List.nth all (List.length all - 1))

(* --- spawned daemon over a real socket ------------------------------------ *)

let await_file path =
  let rec go tries =
    if Sys.file_exists path then ()
    else if tries = 0 then Alcotest.failf "%s never appeared" path
    else begin
      ignore (Unix.select [] [] [] 0.1);
      go (tries - 1)
    end
  in
  go 100

let test_socket_e2e () =
  (* the test binary lives in _build/default/test, the daemon next door *)
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../bin/cinderella.exe"
  in
  let dir = tmp_dir "serve-e2e" in
  let socket = Filename.concat dir "serve.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--cache-dir";
         Filename.concat dir "cache"; "-j"; "1" |]
      devnull devnull devnull
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      (* idempotent: the normal path has already reaped the daemon *)
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (fun () ->
      await_file socket;
      let t = Client.connect socket in
      check_string "handshake" "ok"
        (response_code
           (Option.get (Client.request t {|{"v":1,"op":"hello"}|})));
      (* a malformed request neither kills the daemon nor the connection *)
      check_string "malformed request on a live connection" "proto"
        (response_code (Option.get (Client.request t "garbage")));
      check_string "the same connection still works" "ok"
        (response_code
           (Option.get
              (Client.request t
                 (analyze_request (edit_source 3)
                    ~extra:[ ("annotations", J.Str edit_annotations) ]))));
      Client.close t;
      check_string "shutdown request" "ok"
        (response_code
           (Option.get (Client.one_shot ~socket {|{"v":1,"op":"shutdown"}|})));
      (match Unix.waitpid [] pid with
       | _, Unix.WEXITED 0 -> ()
       | _ -> Alcotest.fail "daemon did not exit cleanly");
      check_bool "socket file was removed" false (Sys.file_exists socket))

(* one daemon session, the same source under both machine models: the
   bounds differ, each machine's warm run is served from its own cache
   entries, and neither machine's cold run ever hits the other's *)
let test_socket_both_machines () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../bin/cinderella.exe"
  in
  let dir = tmp_dir "serve-two-machines" in
  let socket = Filename.concat dir "serve.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--cache-dir";
         Filename.concat dir "cache"; "-j"; "1" |]
      devnull devnull devnull
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (fun () ->
      await_file socket;
      let t = Client.connect socket in
      let analyze label mach =
        let response =
          Option.get
            (Client.request t
               (analyze_request (edit_source 3)
                  ~extra:
                    [ ("mach", J.Str mach);
                      ("annotations", J.Str edit_annotations) ]))
        in
        check_string (label ^ " analyze succeeds") "ok"
          (response_code response);
        match J.parse response with
        | Ok j ->
          let stat name =
            Option.get
              (Option.bind
                 (Option.bind (J.member "stats" j) (J.member name))
                 J.to_int)
          in
          ( Option.get (J.member "report" j),
            stat "units_cached",
            stat "units_solved" )
        | Error _ -> Alcotest.failf "unparsable %s response" label
      in
      let e32_cold, e32_cold_hits, _ = analyze "e32 cold" "e32" in
      let m7_cold, m7_cold_hits, m7_cold_solved = analyze "m7 cold" "m7" in
      check_bool "the two machines bound the program differently" true
        (bounds_of_report e32_cold <> bounds_of_report m7_cold);
      check_int "e32 cold run hits nothing" 0 e32_cold_hits;
      check_int "m7 cold run never hits the e32 entries" 0 m7_cold_hits;
      check_bool "m7 cold run solves its own units" true (m7_cold_solved > 0);
      let e32_warm, e32_warm_hits, e32_warm_solved =
        analyze "e32 warm" "e32"
      in
      let m7_warm, m7_warm_hits, m7_warm_solved = analyze "m7 warm" "m7" in
      check_string "e32 warm report is byte-identical"
        (J.to_string e32_cold) (J.to_string e32_warm);
      check_string "m7 warm report is byte-identical"
        (J.to_string m7_cold) (J.to_string m7_warm);
      check_bool "e32 warm run is served from its own entries" true
        (e32_warm_hits > 0 && e32_warm_solved = 0);
      check_bool "m7 warm run is served from its own entries" true
        (m7_warm_hits > 0 && m7_warm_solved = 0);
      (* an unknown machine id is a protocol error, not a crash *)
      check_string "unknown machine id" "proto"
        (response_code
           (Option.get
              (Client.request t
                 (analyze_request (edit_source 3)
                    ~extra:
                      [ ("mach", J.Str "z80");
                        ("annotations", J.Str edit_annotations) ]))));
      Client.close t;
      check_string "shutdown request" "ok"
        (response_code
           (Option.get (Client.one_shot ~socket {|{"v":1,"op":"shutdown"}|})));
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "daemon did not exit cleanly")

(* graceful SIGTERM must flush every sink: trace-out, metrics-out, the
   access log and the flight-recorder dump *)
let test_sigterm_flush () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../bin/cinderella.exe"
  in
  let dir = tmp_dir "serve-sigterm" in
  let socket = Filename.concat dir "serve.sock" in
  let trace_out = Filename.concat dir "trace.json" in
  let metrics_out = Filename.concat dir "metrics.json" in
  let access = Filename.concat dir "access.jsonl" in
  let flight = Filename.concat dir "flight.jsonl" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--cache-dir";
         Filename.concat dir "cache"; "-j"; "1"; "--trace-out"; trace_out;
         "--metrics-out"; metrics_out; "--access-log"; access;
         "--flight-dump"; flight |]
      devnull devnull devnull
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (fun () ->
      await_file socket;
      let response =
        Option.get
          (Client.one_shot ~socket
             (analyze_request (edit_source 3)
                ~extra:
                  [ ("trace", J.Str "sig-1");
                    ("annotations", J.Str edit_annotations) ]))
      in
      check_string "analyze over the socket" "ok" (response_code response);
      check_bool "daemon echoes the trace id" true
        (trace_of response = Some "sig-1");
      Unix.kill pid Sys.sigterm;
      (match Unix.waitpid [] pid with
       | _, Unix.WEXITED 0 -> ()
       | _ -> Alcotest.fail "daemon did not exit cleanly on SIGTERM");
      check_bool "socket file was removed" false (Sys.file_exists socket);
      (* every sink must exist and parse *)
      let jsonl_ids path =
        read_file path |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l ->
               match J.parse l with
               | Ok j -> Option.bind (J.member "id" j) J.to_str
               | Error m ->
                 Alcotest.failf "unparsable line in %s: %s" path m)
      in
      check_bool "access log recorded the request" true
        (List.mem (Some "sig-1") (jsonl_ids access));
      check_bool "flight dump recorded the request" true
        (List.mem (Some "sig-1") (jsonl_ids flight));
      (match J.parse (read_file metrics_out) with
       | Ok j ->
         check_bool "metrics-out is a versioned document" true
           (J.member "version" j = Some (J.Int 1))
       | Error m -> Alcotest.failf "unparsable metrics-out: %s" m);
      match J.parse (read_file trace_out) with
      | Ok j ->
        check_bool "trace-out holds trace events" true
          (match J.member "traceEvents" j with
           | Some (J.List _) -> true
           | _ -> false)
      | Error m -> Alcotest.failf "unparsable trace-out: %s" m)

(* the first-miss refinement changes the program unit's ILP, so it is part
   of the unit's key: alternating a request with and without it must not
   make each reject the other's cached certificates *)
let test_first_miss_program_key () =
  let cache =
    Cache.create ~dir:(tmp_dir "serve-first-miss-key")
      ~cap_bytes:(16 * 1024 * 1024)
  in
  let spec = Bspec.spec (Ipet_suite.Suite.find "check_data") in
  check_bool "check_data carries functionality constraints" true
    (spec.A.functional <> []);
  let variants =
    [ { spec with A.first_miss_refinement = false };
      { spec with A.first_miss_refinement = true } ]
  in
  let pass () = List.map (fun s -> Incr.analyze ~cache s) variants in
  let cold = pass () in
  let warm = pass () in
  List.iter2
    (fun (cold_rep, _) (warm_rep, (w : Incr.stats)) ->
      check_int "every warm unit is served from the cache" w.Incr.units_total
        w.Incr.units_cached;
      check_int "no warm certificate is rejected" 0 w.Incr.certs_rejected;
      check_string "the warm report is byte-identical" (J.to_string cold_rep)
        (J.to_string warm_rep))
    cold warm

(* a flight event's floats survive the JSONL dump exactly, and the dump row
   is the bytes the [recent] op prints for the same event *)
let test_flight_dump_exact () =
  let pc = Protocol.make () in
  let event =
    { (flight_event 0) with
      Flight.time = 1792345678.125;
      latency_ms = 41.0310617 }
  in
  Flight.record pc.Protocol.flight event;
  let line = String.trim (Flight.dump pc.Protocol.flight) in
  (match J.parse line with
   | Ok row ->
     check_bool "time reads back exactly" true
       (J.member "time" row = Some (J.Float 1792345678.125));
     check_bool "latency_ms reads back exactly" true
       (J.member "latency_ms" row = Some (J.Float 41.0310617))
   | Error m -> Alcotest.failf "unparsable dump line %s: %s" line m);
  let response =
    fst (Protocol.handle_line pc {|{"v":1,"op":"recent","n":1}|})
  in
  match
    Option.bind (Result.to_option (J.parse response)) (fun j ->
        Option.bind (J.member "events" j) J.to_list)
  with
  | Some [ ev ] ->
    check_string "the dump row is the recent op's row" (J.to_string ev) line
  | _ -> Alcotest.failf "unexpected recent response: %s" response

let suite =
  [ Alcotest.test_case "json: compound round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: non-finite floats print as null" `Quick
      test_json_nonfinite;
    Alcotest.test_case "json: malformed inputs are rejected" `Quick
      test_json_errors;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_single_edit_invalidation;
    QCheck_alcotest.to_alcotest prop_mach_changes_every_key;
    Alcotest.test_case "key: callee intervals are hashed" `Quick
      test_key_callee_interval;
    Alcotest.test_case "incremental bounds match the monolithic analysis"
      `Quick test_matches_monolithic;
    Alcotest.test_case "functionality constraints fall back to one unit"
      `Quick test_functional_fallback;
    Alcotest.test_case "cold and warm reports are byte-identical" `Quick
      test_cold_warm_identical;
    Alcotest.test_case "a one-function edit re-solves one function" `Quick
      test_one_function_edit;
    Alcotest.test_case "cache: LRU eviction and restart" `Quick
      test_lru_eviction;
    Alcotest.test_case "cache: orphaned temp files are swept on open" `Quick
      test_tmp_sweep;
    Alcotest.test_case "certificates: warm hits re-prove, tampering heals"
      `Quick test_cert_self_heal;
    Alcotest.test_case "protocol: every failure is a structured error" `Quick
      test_protocol_errors;
    Alcotest.test_case "protocol: hello, analyze, shutdown" `Quick
      test_protocol_requests;
    Alcotest.test_case "protocol: trace ids echo on every outcome" `Quick
      test_trace_roundtrip;
    Alcotest.test_case "protocol: metrics, recent and stats ops" `Quick
      test_observability_ops;
    Alcotest.test_case "flight recorder: ring wrap and JSONL dump" `Quick
      test_flight_ring_wrap;
    Alcotest.test_case "access log: size rotation keeps whole lines" `Quick
      test_access_log_rotation;
    Alcotest.test_case "daemon: socket round trip" `Quick test_socket_e2e;
    Alcotest.test_case "daemon: both machines in one session" `Quick
      test_socket_both_machines;
    Alcotest.test_case "daemon: SIGTERM flushes every sink" `Quick
      test_sigterm_flush;
    Alcotest.test_case "certificates: a tampered program unit heals" `Quick
      test_program_unit_self_heal;
    Alcotest.test_case "key: first-miss requests keep their own program unit"
      `Quick test_first_miss_program_key;
    Alcotest.test_case "flight recorder: dump rows are exact and match recent"
      `Quick test_flight_dump_exact ]
