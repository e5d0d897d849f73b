(* Observability subsystem tests: span-engine semantics under a
   deterministic clock, disabled-mode no-op behaviour, Chrome trace-event
   export validity, metrics-registry determinism, diagnostics rendering,
   and the profiled simulator's exact cycle attribution. *)

module Obs = Ipet_obs.Obs
module Span = Ipet_obs.Span
module Metrics = Ipet_obs.Metrics
module Sink = Ipet_obs.Sink
module Trace_event = Ipet_obs.Trace_event
module Diag = Ipet_obs.Diag
module Frontend = Ipet_lang.Frontend
module Compile = Ipet_lang.Compile
module Interp = Ipet_sim.Interp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- a minimal JSON reader, enough to validate the exported documents --- *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos >= n then '\000' else s.[!pos] in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 'b' | 'f' -> advance ()
         | 'u' ->
           advance ();
           for _ = 1 to 4 do advance () done;
           Buffer.add_char buf '?'
         | c -> Buffer.add_char buf c; advance ());
        go ()
      | '\000' -> fail "unterminated string"
      | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while num_char (peek ()) do advance () done;
    if !pos = start then fail "expected number";
    float_of_string (String.sub s start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | 'n' -> literal "null" Jnull
    | 't' -> literal "true" (Jbool true)
    | 'f' -> literal "false" (Jbool false)
    | '"' -> Jstr (parse_string ())
    | '0' .. '9' | '-' -> Jnum (parse_number ())
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then (advance (); Jarr [])
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); items (v :: acc)
          | ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        Jarr (items [])
      end
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then (advance (); Jobj [])
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((key, v) :: acc)
          | '}' -> advance (); List.rev ((key, v) :: acc)
          | _ -> fail "expected , or }"
        in
        Jobj (members [])
      end
    | _ -> fail "expected a value"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

let field name = function
  | Jobj members ->
    (match List.assoc_opt name members with
     | Some v -> v
     | None -> Alcotest.failf "missing field %s" name)
  | _ -> Alcotest.fail "not an object"

let as_arr = function Jarr l -> l | _ -> Alcotest.fail "not an array"
let as_num = function Jnum f -> f | _ -> Alcotest.fail "not a number"
let as_str = function Jstr s -> s | _ -> Alcotest.fail "not a string"

(* --- span engine --------------------------------------------------------- *)

let test_span_nesting () =
  let t = ref 0.0 in
  let engine = Span.create ~clock:(fun () -> !t) () in
  Span.enter engine "outer";
  t := 0.001;
  Span.enter engine ~args:[ ("k", "v") ] "inner";
  t := 0.003;
  Span.exit_ engine;
  t := 0.004;
  Span.exit_ engine;
  check_int "open spans" 0 (Span.depth engine);
  match Span.completed engine with
  | [ inner; outer ] ->
    (* completion order: children precede parents *)
    check_str "inner name" "inner" inner.Span.name;
    check_int "inner start" 1000 inner.Span.start_us;
    check_int "inner dur" 2000 inner.Span.dur_us;
    check_int "inner depth" 1 inner.Span.depth;
    check_bool "inner args" true (inner.Span.args = [ ("k", "v") ]);
    check_str "outer name" "outer" outer.Span.name;
    check_int "outer start" 0 outer.Span.start_us;
    check_int "outer dur" 4000 outer.Span.dur_us;
    check_int "outer depth" 0 outer.Span.depth
  | other -> Alcotest.failf "expected 2 spans, got %d" (List.length other)

let test_span_monotonic_clamp () =
  let t = ref 0.005 in
  let engine = Span.create ~clock:(fun () -> !t) () in
  Span.enter engine "a";
  t := 0.002;
  (* the clock stepped backwards *)
  Span.exit_ engine;
  match Span.completed engine with
  | [ a ] ->
    check_int "clamped start" 0 a.Span.start_us;
    check_int "clamped dur" 0 a.Span.dur_us
  | _ -> Alcotest.fail "expected 1 span"

let test_span_totals () =
  let t = ref 0.0 in
  let engine = Span.create ~clock:(fun () -> !t) () in
  let tick name us =
    Span.enter engine name;
    t := !t +. (float_of_int us /. 1e6);
    Span.exit_ engine
  in
  tick "b" 5;
  tick "a" 3;
  tick "b" 7;
  check_bool "totals sorted and summed" true
    (Span.totals (Span.completed engine) = [ ("a", (1, 3)); ("b", (2, 12)) ])

let test_disabled_noop () =
  Obs.disable ();
  Obs.reset ();
  let ran = ref false in
  let result = Obs.span "invisible" (fun () -> ran := true; 42) in
  check_int "thunk result" 42 result;
  check_bool "thunk ran" true !ran;
  check_int "no spans recorded" 0 (List.length (Obs.spans ()))

let test_enabled_exception_safe () =
  Obs.enable ();
  Obs.reset ();
  (try Obs.span "boom" (fun () -> failwith "expected") with
   | Failure _ -> ());
  let names = List.map (fun c -> c.Span.name) (Obs.spans ()) in
  check_bool "span closed despite the exception" true (names = [ "boom" ]);
  Obs.disable ();
  Obs.reset ()

(* --- trace-event export -------------------------------------------------- *)

let test_trace_event_document () =
  let t = ref 0.0 in
  let engine = Span.create ~clock:(fun () -> !t) () in
  Span.enter engine "outer";
  t := 0.00001;
  Span.enter engine ~args:[ ("set", "0") ] "inner";
  t := 0.00002;
  Span.exit_ engine;
  t := 0.00005;
  Span.exit_ engine;
  let doc = Trace_event.to_string (Span.completed engine) in
  let json = parse_json doc in
  let events = as_arr (field "traceEvents" json) in
  let xs =
    List.filter (fun e -> as_str (field "ph" e) = "X") events
  in
  check_int "one X event per span" 2 (List.length xs);
  (* sorted by start: outer (0) before inner (10) *)
  let names = List.map (fun e -> as_str (field "name" e)) xs in
  check_bool "sorted by start time" true (names = [ "outer"; "inner" ]);
  let ts = List.map (fun e -> as_num (field "ts" e)) xs in
  check_bool "timestamps non-decreasing" true (List.sort compare ts = ts);
  List.iter
    (fun e ->
      check_bool "dur non-negative" true (as_num (field "dur" e) >= 0.0))
    xs;
  (* metadata events identify the process for the viewer *)
  check_bool "has process_name metadata" true
    (List.exists
       (fun e ->
         as_str (field "ph" e) = "M" && as_str (field "name" e) = "process_name")
       events)

(* --- metrics ------------------------------------------------------------- *)

let test_metrics_registry () =
  let r = Metrics.create () in
  let c = Metrics.counter r ~labels:[ ("solver", "wcet") ] "lp.calls" in
  Metrics.incr c;
  Metrics.add c 4;
  check_int "counter accumulates" 5 (Metrics.counter_value c);
  let c' = Metrics.counter r ~labels:[ ("solver", "wcet") ] "lp.calls" in
  Metrics.incr c';
  check_int "same cell through re-resolution" 6 (Metrics.counter_value c);
  Metrics.set_gauge_int r "vars" 10;
  Metrics.set_gauge_int r "vars" 7;
  let h = Metrics.histogram r "solve_s" in
  Metrics.observe h 2.0;
  Metrics.observe h 1.0;
  Metrics.observe h 4.0;
  (match Metrics.items r with
   | [ ("lp.calls", [ ("solver", "wcet") ], Metrics.Counter 6);
       ("solve_s", [], Metrics.Histogram { count = 3; sum = 7.0; min = 1.0; max = 4.0 });
       ("vars", [], Metrics.Gauge 7.0) ] -> ()
   | items -> Alcotest.failf "unexpected items (%d)" (List.length items));
  check_bool "kind mismatch rejected" true
    (try ignore (Metrics.counter r "vars"); false with Invalid_argument _ -> true)

let test_metrics_json_schema_stable () =
  (* two identical instrumented runs must produce byte-identical metrics
     documents *)
  let run () =
    let r = Metrics.create () in
    (* registration order deliberately unsorted *)
    Metrics.set_gauge_int r ~labels:[ ("solver", "wcet") ] "lp.calls" 3;
    Metrics.set_gauge_int r "sim.cycles" 123;
    Metrics.set_gauge_int r ~labels:[ ("solver", "bcet") ] "lp.calls" 2;
    let h = Metrics.histogram r "lp.solve_seconds" in
    Metrics.observe h 0.25;
    Sink.metrics_json ~span_totals:[ ("analysis.wcet", (1, 250)) ] r
  in
  let doc1 = run () and doc2 = run () in
  check_str "identical documents" doc1 doc2;
  let json = parse_json doc1 in
  check_int "version" 1 (int_of_float (as_num (field "version" json)));
  let names =
    List.map (fun m -> as_str (field "name" m)) (as_arr (field "metrics" json))
  in
  check_bool "metrics sorted by name" true (List.sort compare names = names);
  let spans = as_arr (field "spans" json) in
  check_int "span totals present" 1 (List.length spans)

(* histogram min/max/sum record samples exactly, so a non-finite sample
   must reach the document as null, never as a false number *)
let test_metrics_json_nonfinite () =
  let r = Metrics.create () in
  Metrics.observe (Metrics.histogram r "latency") infinity;
  let json = parse_json (Sink.metrics_json ~span_totals:[] r) in
  match as_arr (field "metrics" json) with
  | [ m ] ->
    List.iter
      (fun name ->
        check_bool (name ^ " of an infinite sample is null") true
          (field name m = Jnull))
      [ "sum"; "max" ]
  | _ -> Alcotest.fail "expected one metric"

(* a gauge is printed as the shortest decimal that reads back as the
   recorded float, not rounded to six significant digits *)
let test_metrics_json_exact () =
  let r = Metrics.create () in
  Metrics.set_gauge r "test.gauge" 1234567.5;
  let json = parse_json (Sink.metrics_json ~span_totals:[] r) in
  match as_arr (field "metrics" json) with
  | [ m ] ->
    check_bool "gauge reads back exactly" true
      (as_num (field "value" m) = 1234567.5)
  | _ -> Alcotest.fail "expected one metric"

let test_histogram_quantiles () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "latency" in
  Alcotest.(check (float 0.0)) "empty histogram quantile is 0" 0.0
    (Metrics.quantile h 0.5);
  List.iter (fun v -> Metrics.observe h v) [ 3.0; 1.0; 2.0 ];
  let within tol expected actual =
    Float.abs (actual -. expected) <= tol *. expected
  in
  check_bool "p50 of {1,2,3} is ~2" true
    (within 0.05 2.0 (Metrics.quantile h 0.5));
  Alcotest.(check (float 0.0)) "extreme quantile clamps to the exact max" 3.0
    (Metrics.quantile h 0.99);
  check_bool "low quantile lands at the min" true
    (within 0.05 1.0 (Metrics.quantile h 0.01));
  (* uniform 1..100: the geometric buckets are ~4.4% wide, so every
     quantile must land within one bucket of the exact order statistic *)
  let u = Metrics.histogram r "uniform" in
  for i = 1 to 100 do
    Metrics.observe u (float_of_int i)
  done;
  List.iter
    (fun (q, expected) ->
      check_bool
        (Printf.sprintf "p%g of 1..100 is ~%g" (q *. 100.) expected)
        true
        (within 0.06 expected (Metrics.quantile u q)))
    [ (0.5, 50.0); (0.9, 90.0); (0.99, 99.0) ];
  Alcotest.(check (float 0.0)) "q=1 is the exact max" 100.0
    (Metrics.quantile u 1.0);
  check_bool "quantiles are monotone in q" true
    (Metrics.quantile u 0.5 <= Metrics.quantile u 0.9
     && Metrics.quantile u 0.9 <= Metrics.quantile u 0.99);
  (* sub-microsecond observations stay positive (latencies near the
     bottom of the bucket range must not collapse to zero) *)
  let tiny = Metrics.histogram r "tiny" in
  Metrics.observe tiny 1e-6;
  check_bool "tiny values keep a positive quantile" true
    (Metrics.quantile tiny 0.5 > 0.0)

(* --- Prometheus exposition ------------------------------------------------ *)

let test_prometheus_text () =
  let r = Metrics.create () in
  Metrics.set_gauge_int r "sim.cycles" 123;
  let c = Metrics.counter r ~labels:[ ("op", "an\"a\nlyze") ] "serve.requests" in
  Metrics.add c 7;
  let h = Metrics.histogram r "serve.latency_seconds" in
  Metrics.observe h 1.0;
  Metrics.observe h 1.0;
  let text = Sink.prometheus r in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  (* line-by-line: every line is a TYPE comment or a "name{labels} value"
     sample whose name uses only legal characters and whose value is a
     number *)
  let is_name_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  List.iter
    (fun line ->
      if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
          check_bool ("legal family name: " ^ name) true
            (String.for_all is_name_char name);
          check_bool ("known kind: " ^ kind) true
            (List.mem kind [ "counter"; "gauge"; "summary" ])
        | _ -> Alcotest.failf "malformed TYPE line: %s" line
      end
      else begin
        let space =
          match String.rindex_opt line ' ' with
          | Some i -> i
          | None -> Alcotest.failf "sample line without value: %s" line
        in
        let name_part = String.sub line 0 space in
        let value_part =
          String.sub line (space + 1) (String.length line - space - 1)
        in
        let bare_name =
          match String.index_opt name_part '{' with
          | Some i -> String.sub name_part 0 i
          | None -> name_part
        in
        check_bool ("legal metric name: " ^ bare_name) true
          (bare_name <> "" && String.for_all is_name_char bare_name);
        check_bool ("numeric value: " ^ value_part) true
          (Float.is_finite (float_of_string value_part))
      end)
    lines;
  let mem line = List.mem line lines in
  (* dotted names are sanitized; label values escape quote and newline *)
  check_bool "counter sample" true
    (mem "serve_requests{op=\"an\\\"a\\nlyze\"} 7");
  check_bool "gauge sample" true (mem "sim_cycles 123");
  check_bool "counter TYPE" true (mem "# TYPE serve_requests counter");
  check_bool "gauge TYPE" true (mem "# TYPE sim_cycles gauge");
  check_bool "summary TYPE" true
    (mem "# TYPE serve_latency_seconds summary");
  (* the summary renders quantile samples plus _sum/_count; both
     observations were 1.0, and clamping makes the quantiles exact *)
  List.iter
    (fun q ->
      check_bool ("quantile sample " ^ q) true
        (mem (Printf.sprintf "serve_latency_seconds{quantile=\"%s\"} 1" q)))
    [ "0.5"; "0.9"; "0.99" ];
  check_bool "sum sample" true (mem "serve_latency_seconds_sum 2");
  check_bool "count sample" true (mem "serve_latency_seconds_count 2");
  (* exactly one TYPE line per family, preceding its samples *)
  check_int "one TYPE line per family" 1
    (List.length
       (List.filter (fun l -> l = "# TYPE serve_latency_seconds summary")
          lines))

(* --- request tracks ------------------------------------------------------- *)

let test_request_tracks () =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Obs.span "outside" (fun () -> ());
      let r =
        Obs.with_track "req:a" (fun () ->
            Obs.span "inside-a" (fun () -> ());
            17)
      in
      check_int "with_track returns the thunk result" 17 r;
      Obs.with_track "req:b" (fun () -> Obs.span "inside-b" (fun () -> ()));
      Obs.with_track "req:a" (fun () -> Obs.span "inside-a2" (fun () -> ()));
      let names = Obs.track_names () in
      check_int "one track per distinct name" 2 (List.length names);
      List.iter
        (fun (tid, _) ->
          check_bool "track tids live above the domain tids" true (tid >= 1000))
        names;
      check_bool "both names registered" true
        (List.sort compare (List.map snd names) = [ "req:a"; "req:b" ]);
      (* a re-used trace id accumulates onto the same track *)
      let a_names =
        List.sort compare
          (List.map (fun s -> s.Span.name) (Obs.track_spans "req:a"))
      in
      check_bool "track accumulates its requests' spans" true
        (a_names = [ "inside-a"; "inside-a2" ]);
      (match Obs.track_spans "req:b" with
       | [ s ] ->
         check_str "other track has its own span" "inside-b" s.Span.name;
         check_bool "track span carries the track tid" true
           (List.mem_assoc s.Span.tid names)
       | other -> Alcotest.failf "expected 1 span, got %d" (List.length other));
      check_bool "unknown track is empty" true (Obs.track_spans "req:?" = []);
      (* track spans ride along in the global export, and the span recorded
         outside any track stayed off the request tracks *)
      let all = List.map (fun s -> s.Span.name) (Obs.spans ()) in
      check_bool "spans() includes track spans" true
        (List.mem "inside-a" all && List.mem "outside" all);
      check_bool "outside span is not on a track" true
        (not
           (List.mem "outside"
              (List.map (fun s -> s.Span.name)
                 (Obs.track_spans "req:a" @ Obs.track_spans "req:b")))));
  (* disabled: with_track is a transparent single-branch no-op *)
  check_int "disabled with_track runs the thunk" 5
    (Obs.with_track "req:x" (fun () -> 5));
  check_bool "disabled with_track allocates nothing" true
    (Obs.track_names () = [])

let test_trace_event_track_labels () =
  let t = ref 0.0 in
  let e = Span.create ~tid:1000 ~clock:(fun () -> !t) () in
  Span.enter e "req-span";
  t := 0.00001;
  Span.exit_ e;
  let doc =
    Trace_event.to_string ~track_names:[ (1000, "req:a") ] (Span.completed e)
  in
  let events = as_arr (field "traceEvents" (parse_json doc)) in
  let thread_label =
    List.find_map
      (fun ev ->
        if as_str (field "ph" ev) = "M"
           && as_str (field "name" ev) = "thread_name"
           && int_of_float (as_num (field "tid" ev)) = 1000
        then Some (as_str (field "name" (field "args" ev)))
        else None)
      events
  in
  check_bool "thread row is labelled with the track name" true
    (thread_label = Some "req:a")

(* --- diagnostics --------------------------------------------------------- *)

let test_diag_rendering () =
  let captured = ref [] in
  Diag.set_printer (fun line -> captured := line :: !captured);
  Diag.emit ~file:"prog.mc" ~line:12 Diag.Error "bad %s" "token";
  Diag.emit Diag.Warning "loose bound";
  Diag.emit ~file:"prog.ann" Diag.Note "see line %d" 4;
  Diag.set_printer prerr_endline;
  check_bool "rendered forms" true
    (List.rev !captured
     = [ "prog.mc:12: error: bad token";
         "cinderella: warning: loose bound";
         "prog.ann: note: see line 4" ]);
  check_int "input exit code" 2 Diag.exit_input;
  check_int "analysis exit code" 1 Diag.exit_analysis

(* --- profiled simulator -------------------------------------------------- *)

let profile_src = {|
int acc;

int leaf(int x) {
  int i;
  for (i = 0; i < 5; i = i + 1)
    x = x + i;
  return x;
}

int main() {
  int j;
  int s;
  s = 0;
  for (j = 0; j < 3; j = j + 1)
    s = s + leaf(j);
  acc = s;
  return s;
}
|}

let test_profile_attribution_exact () =
  let compiled = Frontend.compile_string_exn profile_src in
  let prog = compiled.Compile.prog in
  let run profile =
    let m = Interp.create ~profile prog ~init:compiled.Compile.init_data in
    ignore (Interp.call m "main" []);
    m
  in
  let plain = run false and prof = run true in
  (* profiling must not change the simulation itself *)
  check_int "cycles unchanged" (Interp.cycles plain) (Interp.cycles prof);
  check_int "instructions unchanged" (Interp.instructions plain)
    (Interp.instructions prof);
  check_int "hits unchanged" (Interp.cache_hits plain) (Interp.cache_hits prof);
  check_int "misses unchanged" (Interp.cache_misses plain)
    (Interp.cache_misses prof);
  check_bool "counts unchanged" true
    (Interp.block_counts plain = Interp.block_counts prof);
  (* attribution is exact: self cycles over all blocks sum to the total *)
  let attributed =
    List.fold_left (fun acc (_, c) -> acc + c) 0 (Interp.block_cycles prof)
  in
  check_int "block self-cycles sum to the run total" (Interp.cycles prof)
    attributed;
  (* callee exclusion: leaf's cycles are attributed to leaf's blocks, not to
     the main block making the calls *)
  let leaf_cycles =
    List.fold_left
      (fun acc ((f, _), c) -> if f = "leaf" then acc + c else acc)
      0 (Interp.block_cycles prof)
  in
  check_bool "callee blocks carry their own cycles" true (leaf_cycles > 0);
  (* per-set i-cache tallies agree with the machine totals *)
  let hits, misses =
    Array.fold_left
      (fun (h, m) (sh, sm) -> (h + sh, m + sm))
      (0, 0)
      (Interp.icache_line_stats prof)
  in
  check_int "per-set hits sum" (Interp.cache_hits prof) hits;
  check_int "per-set misses sum" (Interp.cache_misses prof) misses;
  check_bool "plain machine reports no per-set stats" true
    (Interp.icache_line_stats plain = [||]);
  (* reset_stats clears the profile *)
  Interp.reset_stats prof;
  check_bool "reset clears block cycles" true (Interp.block_cycles prof = [])

let test_attribution_report () =
  let rows =
    Ipet.Report.attribution
      ~wcet_counts:[ (("f", 0), 10); (("f", 1), 4) ]
      ~wcet_cost:(fun _ b -> if b = 0 then 7 else 3)
      ~sim_counts:[ (("f", 0), 8) ]
      ~sim_cycles:[ (("f", 0), 40) ]
  in
  match rows with
  | [ first; second ] ->
    check_str "largest gap first" "f" first.Ipet.Report.attr_func;
    check_int "block" 0 first.Ipet.Report.attr_block;
    check_int "wcet cycles" 70 first.Ipet.Report.wcet_cycles;
    check_int "gap" 30 first.Ipet.Report.gap;
    check_int "unexecuted block gap" 12 second.Ipet.Report.gap;
    check_int "unexecuted block sim count" 0 second.Ipet.Report.sim_count
  | _ -> Alcotest.fail "expected 2 rows"

let suite =
  [ ("span nesting and ordering", `Quick, test_span_nesting);
    ("span monotonic clamp", `Quick, test_span_monotonic_clamp);
    ("span totals", `Quick, test_span_totals);
    ("disabled mode is a no-op", `Quick, test_disabled_noop);
    ("enabled span survives exceptions", `Quick, test_enabled_exception_safe);
    ("trace-event document", `Quick, test_trace_event_document);
    ("metrics registry", `Quick, test_metrics_registry);
    ("metrics JSON schema stable", `Quick, test_metrics_json_schema_stable);
    ("histogram quantiles", `Quick, test_histogram_quantiles);
    ("prometheus exposition", `Quick, test_prometheus_text);
    ("request tracks", `Quick, test_request_tracks);
    ("trace-event track labels", `Quick, test_trace_event_track_labels);
    ("diagnostics rendering", `Quick, test_diag_rendering);
    ("profiled simulator attribution", `Quick, test_profile_attribution_exact);
    ("attribution report", `Quick, test_attribution_report);
    ("metrics JSON non-finite values are null", `Quick,
     test_metrics_json_nonfinite);
    ("metrics JSON values are exact", `Quick, test_metrics_json_exact) ]
