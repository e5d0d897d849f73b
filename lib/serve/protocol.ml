module Frontend = Ipet_lang.Frontend
module Compile = Ipet_lang.Compile
module Icache = Ipet_machine.Icache
module Machine = Ipet_machine.Machine
module P = Ipet_isa.Prog
module Obs = Ipet_obs.Obs
module Json = Ipet_obs.Json
module Flight = Ipet_obs.Flight

type totals = {
  mutable requests : int;
  mutable errors : int;
  mutable certs_checked : int;
  mutable certs_rejected : int;
}

type config = {
  pool : Ipet_par.Pool.t option;
  cache : Cache.t option;
  default_timeout_ms : int option;
  flight : Flight.t;
  access : Access_log.t option;
  totals : totals;
}

let make ?pool ?cache ?default_timeout_ms ?access ?(flight_cap = 512) () =
  { pool;
    cache;
    default_timeout_ms;
    flight = Flight.create ~cap:flight_cap ();
    access;
    totals = { requests = 0; errors = 0; certs_checked = 0; certs_rejected = 0 } }

type outcome = Continue | Shutdown

let version = 1

exception Reject of string * string  (* code, message *)

let reject code fmt = Printf.ksprintf (fun m -> raise (Reject (code, m))) fmt

let trace_field = function
  | None -> []
  | Some t -> [ ("trace", Json.Str t) ]

let error_response ?id ?trace code message =
  Json.Obj
    ((match id with Some id -> [ ("id", id) ] | None -> [])
     @ trace_field trace
     @ [ ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [ ("code", Json.Str code); ("message", Json.Str message) ] ) ])

let ok_response ?id ?trace op fields =
  Json.Obj
    ((match id with Some id -> [ ("id", id) ] | None -> [])
     @ trace_field trace
     @ [ ("ok", Json.Bool true); ("op", Json.Str op) ]
     @ fields)

(* --- request field access ------------------------------------------------ *)

let str_field req name =
  Option.bind (Json.member name req) Json.to_str

let require_str req name =
  match str_field req name with
  | Some s -> s
  | None -> reject "proto" "missing string field %S" name

let opt_int j name = Option.bind (Json.member name j) Json.to_int
let opt_bool j name = Option.bind (Json.member name j) Json.to_bool

(* --- flight-recorder note ------------------------------------------------- *)

(* what the dispatch learned about the request, harvested into the flight
   event once the latency is known; a handler fills what it can *)
type note = {
  mutable n_root : string;
  mutable n_digests : string list;
  mutable n_units_total : int;
  mutable n_units_cached : int;
  mutable n_units_solved : int;
  mutable n_warm : int;
  mutable n_pivots : int;
  mutable n_certs_checked : int;
  mutable n_certs_rejected : int;
}

let fresh_note () =
  { n_root = "";
    n_digests = [];
    n_units_total = 0;
    n_units_cached = 0;
    n_units_solved = 0;
    n_warm = 0;
    n_pivots = 0;
    n_certs_checked = 0;
    n_certs_rejected = 0 }

let digest_cap = 8

let report_digests report =
  match Option.bind (Json.member "units" report) Json.to_list with
  | None -> []
  | Some units ->
    List.filteri (fun i _ -> i < digest_cap) units
    |> List.filter_map (fun u -> Option.bind (Json.member "key" u) Json.to_str)

(* --- analyze ------------------------------------------------------------- *)

let parse_mach req =
  match str_field req "mach" with
  | None -> Machine.e32
  | Some s ->
    (match Machine.of_string s with
     | Ok m -> m
     | Error msg -> reject "proto" "%s" msg)

let parse_icache ~mach options =
  match Option.bind options (Json.member "icache") with
  | None -> Machine.fetch mach
  | Some j ->
    (match (opt_int j "size_bytes", opt_int j "line_bytes",
            opt_int j "miss_penalty")
     with
     | Some size_bytes, Some line_bytes, Some miss_penalty ->
       { Icache.size_bytes; line_bytes; miss_penalty }
     | _ ->
       reject "proto"
         "icache needs integer size_bytes, line_bytes, miss_penalty")

(* In-memory memo of compiled programs: an editor-driven client resends the
   same (or a near-identical) source on every keystroke, and compilation is
   pure, so keying on the digest of (lang, source) is exact. Bounded by a
   full reset — the memo is a throughput aid, not a store. *)
let compile_memo : (string, P.t) Hashtbl.t = Hashtbl.create 16
let compile_memo_cap = 64

let compile_uncached ~lang source =
  match lang with
  | "mc" ->
    (match Frontend.compile_string source with
     | Ok compiled -> compiled.Compile.prog
     | Error { Frontend.message; line } ->
       reject "input" "line %d: %s" line message)
  | "asm" ->
    (match Ipet_isa.Asm_parser.parse source with
     | prog -> prog
     | exception Ipet_isa.Asm_parser.Error (message, line) ->
       reject "input" "line %d: %s" line message)
  | lang -> reject "proto" "unknown lang %S (expected \"mc\" or \"asm\")" lang

let compile_source ~lang source =
  let key = Digest.string (lang ^ "\x00" ^ source) in
  match Hashtbl.find_opt compile_memo key with
  | Some prog -> prog
  | None ->
    let prog = compile_uncached ~lang source in
    if Hashtbl.length compile_memo >= compile_memo_cap then
      Hashtbl.reset compile_memo;
    Hashtbl.add compile_memo key prog;
    prog

let parse_annotations req =
  match str_field req "annotations" with
  | None ->
    { Ipet.Constraint_parser.root = None; loop_bounds = []; functional = [] }
  | Some text ->
    (match Ipet.Constraint_parser.parse_annotation_text text with
     | a -> a
     | exception Ipet.Constraint_parser.Parse_error msg ->
       reject "input" "%s" msg)

let span_json (s : Ipet_obs.Span.completed) =
  Json.Obj
    ([ ("name", Json.Str s.Ipet_obs.Span.name);
       ("start_us", Json.Int s.Ipet_obs.Span.start_us);
       ("dur_us", Json.Int s.Ipet_obs.Span.dur_us);
       ("depth", Json.Int s.Ipet_obs.Span.depth) ]
     @
     match s.Ipet_obs.Span.args with
     | [] -> []
     | args ->
       [ ( "args",
           Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args) ) ])

let analyze config ~req_id ~(note : note) req =
  let source = require_str req "source" in
  let lang = Option.value ~default:"mc" (str_field req "lang") in
  let options = Json.member "options" req in
  let annotations = parse_annotations req in
  let root =
    match (str_field req "root", annotations.Ipet.Constraint_parser.root) with
    | Some r, _ -> r
    | None, Some r -> r
    | None, None ->
      reject "input"
        "no analysis root: pass \"root\" or add a 'root' line to the \
         annotations"
  in
  note.n_root <- root;
  let prog = compile_source ~lang source in
  if P.find_func_opt prog root = None then
    reject "input" "unknown function %s" root;
  let mach = parse_mach req in
  let cache_config = parse_icache ~mach options in
  let first_miss =
    Option.value ~default:false
      (Option.bind options (fun o -> opt_bool o "first_miss"))
  in
  let use_cache =
    Option.value ~default:true
      (Option.bind options (fun o -> opt_bool o "use_cache"))
  in
  let want_spans =
    Option.value ~default:false
      (Option.bind options (fun o -> opt_bool o "trace_spans"))
  in
  let timeout_ms =
    match Option.bind options (fun o -> opt_int o "timeout_ms") with
    | Some ms -> Some ms
    | None -> config.default_timeout_ms
  in
  let spec =
    Ipet.Analysis.spec ~mach ~cache:cache_config
      ~loop_bounds:annotations.Ipet.Constraint_parser.loop_bounds
      ~functional:annotations.Ipet.Constraint_parser.functional
      ~first_miss_refinement:first_miss ~root prog
  in
  let deadline =
    Option.map (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
      timeout_ms
  in
  let cache = if use_cache then config.cache else None in
  (* the whole request runs on its own named track, so one daemon trace
     interleaves every request as its own row *)
  let track = "req:" ^ req_id in
  let spans_before =
    if want_spans then List.length (Obs.track_spans track) else 0
  in
  let t0 = Unix.gettimeofday () in
  let report, stats =
    match
      Obs.with_track track (fun () ->
          Obs.span "serve.analyze" ~args:[ ("root", root) ] (fun () ->
              Incremental.analyze ?pool:config.pool ?cache ?deadline spec))
    with
    | result -> result
    | exception Incremental.Timeout ->
      reject "timeout" "analysis exceeded %d ms"
        (Option.value ~default:0 timeout_ms)
    | exception Ipet.Analysis.Analysis_error msg ->
      reject "analysis" "analysis error: %s" msg
    | exception Ipet.Functional.Resolution_error msg ->
      reject "input" "constraint error: %s" msg
    | exception Ipet.Annotation.Bad_annotation msg ->
      reject "input" "annotation error: %s" msg
  in
  let wall_ms =
    int_of_float (Float.round ((Unix.gettimeofday () -. t0) *. 1000.))
  in
  note.n_digests <- report_digests report;
  note.n_units_total <- stats.Incremental.units_total;
  note.n_units_cached <- stats.Incremental.units_cached;
  note.n_units_solved <- stats.Incremental.units_solved;
  note.n_warm <- stats.Incremental.warm_lp_hits;
  note.n_pivots <- stats.Incremental.simplex_pivots;
  note.n_certs_checked <- stats.Incremental.certs_checked;
  note.n_certs_rejected <- stats.Incremental.certs_rejected;
  config.totals.certs_checked <-
    config.totals.certs_checked + stats.Incremental.certs_checked;
  config.totals.certs_rejected <-
    config.totals.certs_rejected + stats.Incremental.certs_rejected;
  let span_fields =
    if not want_spans then []
    else begin
      (* only this request's spans: the track accumulates across requests
         that share an id *)
      let all = Obs.track_spans track in
      let fresh = List.filteri (fun i _ -> i >= spans_before) all in
      [ ("trace_spans", Json.List (List.map span_json fresh)) ]
    end
  in
  [ ("report", report);
    ( "stats",
      Json.Obj
        [ ("units_total", Json.Int stats.Incremental.units_total);
          ("units_cached", Json.Int stats.Incremental.units_cached);
          ("units_solved", Json.Int stats.Incremental.units_solved);
          ("ilp_solves", Json.Int stats.Incremental.ilp_solves);
          ("warm_lp_hits", Json.Int stats.Incremental.warm_lp_hits);
          ("simplex_pivots", Json.Int stats.Incremental.simplex_pivots);
          ("certs_checked", Json.Int stats.Incremental.certs_checked);
          ("certs_rejected", Json.Int stats.Incremental.certs_rejected);
          ("wall_ms", Json.Int wall_ms) ] ) ]
  @ span_fields

(* --- dispatch ------------------------------------------------------------ *)

let cache_stats_json = function
  | None -> Json.Null
  | Some cache ->
    let s = Cache.stats cache in
    Json.Obj
      [ ("dir", Json.Str (Cache.dir cache));
        ("cap_bytes", Json.Int (Cache.cap_bytes cache));
        ("entries", Json.Int s.Cache.entries);
        ("bytes", Json.Int s.Cache.bytes);
        ("hits", Json.Int s.Cache.hits);
        ("misses", Json.Int s.Cache.misses);
        ("evictions", Json.Int s.Cache.evictions);
        ("eviction_bytes", Json.Int s.Cache.eviction_bytes) ]

let hello_fields =
  [ ("server", Json.Str "cinderella");
    ("version", Json.Str Version.version);
    ("protocol", Json.Int version);
    ("key_schema", Json.Int Key.schema) ]

let stats_fields config =
  [ ("requests", Json.Int config.totals.requests);
    ("errors", Json.Int config.totals.errors);
    ("certs_checked", Json.Int config.totals.certs_checked);
    ("certs_rejected", Json.Int config.totals.certs_rejected);
    ("flight_recorded", Json.Int (Flight.total config.flight));
    ("cache", cache_stats_json config.cache) ]

let metrics_fields () =
  [ ( "metrics",
      Obs.Sink.metrics_doc ~span_totals:(Obs.span_totals ()) Obs.metrics );
    ("prometheus", Json.Str (Obs.Sink.prometheus Obs.metrics)) ]

let recent_fields config req =
  let n = Option.value ~default:50 (opt_int req "n") in
  [ ( "events",
      Json.List (List.map Flight.event_json (Flight.recent ~n config.flight)) ) ]

let handle_request config ~trace ~req_id ~note req =
  match Json.member "v" req with
  | Some (Json.Int v) when v = version ->
    let id = Json.member "id" req in
    (match str_field req "op" with
     | Some "hello" -> (ok_response ?id ?trace "hello" hello_fields, Continue)
     | Some "analyze" ->
       Obs.add "serve.requests.analyze" 1;
       ( ok_response ?id ?trace "analyze" (analyze config ~req_id ~note req),
         Continue )
     | Some "stats" ->
       (ok_response ?id ?trace "stats" (stats_fields config), Continue)
     | Some "metrics" ->
       (ok_response ?id ?trace "metrics" (metrics_fields ()), Continue)
     | Some "recent" ->
       (ok_response ?id ?trace "recent" (recent_fields config req), Continue)
     | Some "shutdown" -> (ok_response ?id ?trace "shutdown" [], Shutdown)
     | Some op -> reject "proto" "unknown op %S" op
     | None -> reject "proto" "missing string field \"op\"")
  | Some (Json.Int v) ->
    reject "proto" "unsupported protocol version %d (server speaks %d)" v
      version
  | Some _ | None -> reject "proto" "missing integer field \"v\""

let access_entry ~time ~req_id ~op ~latency_ms ~error (note : note) =
  Json.Obj
    ([ ("ts", Json.Float time);
       ("id", Json.Str req_id);
       ("op", Json.Str op);
       ("ok", Json.Bool (error = None)) ]
     @ (match error with
        | None -> []
        | Some code -> [ ("code", Json.Str code) ])
     @ (if note.n_root = "" then [] else [ ("root", Json.Str note.n_root) ])
     @ (if note.n_units_total = 0 then []
        else
          [ ("units_total", Json.Int note.n_units_total);
            ("units_cached", Json.Int note.n_units_cached);
            ("units_solved", Json.Int note.n_units_solved) ])
     @ [ ("ms", Json.Float latency_ms) ])

let handle_line config line =
  let t0 = Unix.gettimeofday () in
  config.totals.requests <- config.totals.requests + 1;
  let note = fresh_note () in
  let parsed = Json.parse line in
  let id, trace, op =
    match parsed with
    | Error _ -> (None, None, None)
    | Ok req -> (Json.member "id" req, str_field req "trace", str_field req "op")
  in
  let req_id =
    match trace with
    | Some t -> t
    | None -> Printf.sprintf "req-%d" config.totals.requests
  in
  let result =
    match parsed with
    | Error msg -> Error ("proto", "bad JSON: " ^ msg)
    | Ok req ->
      (match handle_request config ~trace ~req_id ~note req with
       | response -> Ok response
       | exception Reject (code, message) -> Error (code, message)
       | exception exn ->
         Error ("internal", Printexc.to_string exn))
  in
  let latency_s = Unix.gettimeofday () -. t0 in
  let opname = Option.value ~default:"?" op in
  let error = match result with Ok _ -> None | Error (code, _) -> Some code in
  (* metrics and the flight recorder are unconditional: the daemon is
     observable whether or not span tracing was enabled at launch *)
  Obs.observe ~labels:[ ("op", opname) ] "serve.latency_seconds" latency_s;
  if error <> None then begin
    config.totals.errors <- config.totals.errors + 1;
    Obs.add "serve.requests.errors" 1
  end;
  Flight.record config.flight
    { Flight.time = t0;
      id = req_id;
      op = opname;
      root = note.n_root;
      digests = note.n_digests;
      units_total = note.n_units_total;
      units_cached = note.n_units_cached;
      units_solved = note.n_units_solved;
      warm_hits = note.n_warm;
      pivots = note.n_pivots;
      certs_checked = note.n_certs_checked;
      certs_rejected = note.n_certs_rejected;
      latency_ms = latency_s *. 1000.0;
      error };
  (match config.access with
   | None -> ()
   | Some log ->
     let entry =
       access_entry ~time:t0 ~req_id ~op:opname
         ~latency_ms:(latency_s *. 1000.0) ~error note
     in
     (try Access_log.write log (Json.to_string entry) with Sys_error _ -> ()));
  match result with
  | Ok (response, outcome) -> (Json.to_string response, outcome)
  | Error (code, message) ->
    (Json.to_string (error_response ?id ?trace code message), Continue)
