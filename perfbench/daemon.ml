(* daemon-session: `cinderella serve` on a unix socket, driven by one
   load-generator process over one closed-loop connection. A session has
   three phases that use the cache differently:
   - cold: every paper benchmark on both machines with use_cache:false, so
     every unit is solved and certified;
   - edit: one seeded edit of every function with a literal to edit (an
     integer literal inside the body changes, no line moves, because
     annotations name loops by line), which mix cache puts and hits and
     miss the compile memo;
   - warm: identical resends of the cold requests with the cache on, so
     every unit is a hit, re-validated by the checker.
   The reply to an edit is the wait this workload is about. *)

open Common
module J = Ipet_serve.Json
module Bspec = Ipet_suite.Bspec
module Protocol = Ipet_serve.Protocol
module Cache = Ipet_serve.Cache
module Incremental = Ipet_serve.Incremental

(* Ten warm rounds give the traced run's warm tail enough samples; the
   untraced run's warm phase is there for its checks, and one will do. *)
let warm_rounds ~smoke ~trace = if smoke || not trace then 1 else 10

(* One closed-loop connection. The daemon answers requests one at a time
   from a single select loop, so a second connection would only queue
   behind the first: every latency would then include a random other
   request's service time. *)
let connections = 1

(* --- requests ------------------------------------------------------------- *)

(* loop bounds only: functionality constraints have no textual form *)
let annotations (b : Bspec.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "root %s\n" b.Bspec.root);
  List.iter
    (fun (a : Ipet.Annotation.t) ->
      match a.Ipet.Annotation.header with
      | `Line l ->
        Buffer.add_string buf
          (Printf.sprintf "loop %s %d %d %d\n" a.Ipet.Annotation.func l a.Ipet.Annotation.lo
             a.Ipet.Annotation.hi)
      | `Block _ -> ())
    b.Bspec.loop_bounds;
  Buffer.contents buf

type base = { bench : Bspec.t; mach : Machine.t; ann : string }

let bases ~smoke =
  let benches =
    if smoke then
      List.filter (fun (b : Bspec.t) -> List.mem b.Bspec.name [ "check_data"; "piksrt" ])
        Ipet_suite.Suite.all
    else Ipet_suite.Suite.all
  in
  List.concat_map
    (fun mach -> List.map (fun bench -> { bench; mach; ann = annotations bench }) benches)
    machines

type req = { base : base; source : string; use_cache : bool; phase : string; line : string }

let request ~trace ~use_cache ~phase base source =
  let line =
    J.to_string
      (J.Obj
         [ ("v", J.Int Protocol.version);
           ("op", J.Str "analyze");
           ("id", J.Str (base.bench.Bspec.name ^ "/" ^ mach_id base.mach));
           ("trace", J.Str trace);
           ("source", J.Str source);
           ("annotations", J.Str base.ann);
           ("mach", J.Str (mach_id base.mach));
           ("options", J.Obj [ ("use_cache", J.Bool use_cache) ]) ])
  in
  { base; source; use_cache; phase; line }

(* --- seeded one-function edits ---------------------------------------------- *)

let is_ident c = c = '_' || c = '.' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
let is_digit c = '0' <= c && c <= '9'

let has sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Integer literals on plain statement lines inside function bodies, as
   (function, line, offset, length), functions numbered in source order.
   Loop and branch headers and declarations are left alone, so an edit
   never changes what the annotations describe. *)
let literals source =
  let lines = Array.of_list (String.split_on_char '\n' source) in
  let depth = ref 0 and fn = ref (-1) and found = ref [] in
  Array.iteri
    (fun li line ->
      let code =
        match String.index_opt line '/' with
        | Some i when i + 1 < String.length line && (line.[i + 1] = '*' || line.[i + 1] = '/') ->
          String.sub line 0 i
        | _ -> line
      in
      let trimmed = String.trim code in
      let statement =
        !depth >= 1
        && (not (List.exists (fun k -> has k trimmed) [ "for"; "while"; "if"; "else" ]))
        && not
             (List.exists
                (fun k -> String.length trimmed >= String.length k
                          && String.sub trimmed 0 (String.length k) = k)
                [ "int "; "float "; "char "; "void "; "unsigned " ])
      in
      if statement then begin
        let n = String.length code in
        let i = ref 0 in
        while !i < n do
          if is_digit code.[!i] && (!i = 0 || not (is_ident code.[!i - 1] || is_digit code.[!i - 1]))
          then begin
            let j = ref !i in
            while !j < n && is_digit code.[!j] do incr j done;
            if (!j >= n || not (is_ident code.[!j])) && !j - !i <= 6 then
              found := (!fn, li, !i, !j - !i) :: !found;
            i := !j
          end
          else incr i
        done
      end;
      String.iter
        (function
          | '{' ->
            if !depth = 0 then incr fn;
            incr depth
          | '}' -> decr depth
          | _ -> ())
        code)
    lines;
  (lines, List.rev !found)

(* The functions that have a literal to edit. *)
let editable source =
  List.sort_uniq compare (List.map (fun (f, _, _, _) -> f) (snd (literals source)))

(* A seeded edit of one literal of function [fn] that changes the compiled
   code, so the edited function's unit key changes (a few literals, e.g. in
   dead code, compile to the same program and would be plain cache hits). *)
let edit rng source fn =
  let lines, lits = literals source in
  let lits = List.filter (fun (f, _, _, _) -> f = fn) lits in
  let compiled s = (Ipet_lang.Frontend.compile_string_exn s).Ipet_lang.Compile.prog in
  let original = compiled source in
  let rec attempt tries =
    let _, li, off, len = List.nth lits (Random.State.int rng (List.length lits)) in
    let line = lines.(li) in
    let old = int_of_string (String.sub line off len) in
    let lo = if len = 1 then 1 else int_of_float (10.0 ** float_of_int (len - 1)) in
    let hi = int_of_float (10.0 ** float_of_int len) - 1 in
    let rec pick () =
      let v = lo + Random.State.int rng (hi - lo + 1) in
      if v = old then pick () else v
    in
    let edited = Array.copy lines in
    edited.(li) <-
      String.sub line 0 off ^ string_of_int (pick ())
      ^ String.sub line (off + len) (String.length line - off - len);
    let text = String.concat "\n" (Array.to_list edited) in
    if tries = 0 || compiled text <> original then text else attempt (tries - 1)
  in
  attempt 20

(* --- the daemon process --------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

type daemon = { pid : int; socket : string }

let hello = J.to_string (J.Obj [ ("v", J.Int Protocol.version); ("op", J.Str "hello") ])

let start ~exe ~dir =
  let socket = Filename.concat dir "d.sock" and cache = Filename.concat dir "cache" in
  rm_rf cache;
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--cache-dir"; cache; "--jobs";
         string_of_int (Ipet_par.Pool.jobs (Ipet_par.Pool.default ())); "--flight-dump"; "" |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  let t_give_up = now () +. 30.0 in
  let rec await () =
    let up =
      Sys.file_exists socket
      && (match Ipet_serve.Client.one_shot ~socket hello with
          | Some _ -> true
          | None | (exception Unix.Unix_error _) -> false)
    in
    if up then ()
    else if now () > t_give_up then failwith "daemon-session: the daemon never answered hello"
    else begin
      ignore (Unix.select [] [] [] 0.02);
      await ()
    end
  in
  await ();
  { pid; socket }

let stop d =
  (try
     ignore
       (Ipet_serve.Client.one_shot ~socket:d.socket
          (J.to_string (J.Obj [ ("v", J.Int Protocol.version); ("op", J.Str "shutdown") ])))
   with Unix.Unix_error _ -> ());
  let t_give_up = now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < t_give_up ->
      ignore (Unix.select [] [] [] 0.02);
      reap ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  live := List.filter (( <> ) d.pid) !live

(* --- closed-loop client ------------------------------------------------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; mutable busy : (int * float) option }

let connect d =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.socket);
  { fd; buf = Buffer.create 4096; busy = None }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Send [reqs] over [conns], each connection sending its next request only
   once the previous reply is in. Returns per-request latency (seconds) and
   reply line, and the phase's wall time. *)
let run_phase conns (reqs : req array) =
  let n = Array.length reqs in
  let lat = Array.make n 0.0 and resp = Array.make n "" in
  let next = ref 0 and finished = ref 0 in
  let send c =
    if !next < n then begin
      let i = !next in
      incr next;
      c.busy <- Some (i, now ());
      write_all c.fd (reqs.(i).line ^ "\n")
    end
  in
  let chunk = Bytes.create 65536 in
  let t0 = now () in
  List.iter send conns;
  while !finished < n do
    let fds = List.filter_map (fun c -> if c.busy <> None then Some c.fd else None) conns in
    let ready =
      match Unix.select fds [] [] 120.0 with
      | [], _, _ -> failwith "daemon-session: no reply within 120 s"
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun c ->
        if List.mem c.fd ready then begin
          let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
          if k = 0 then failwith "daemon-session: the daemon closed a connection";
          Buffer.add_subbytes c.buf chunk 0 k;
          let content = Buffer.contents c.buf in
          match String.index_opt content '\n' with
          | None -> ()
          | Some nl ->
            let t1 = now () in
            let i, ts = Option.get c.busy in
            lat.(i) <- t1 -. ts;
            resp.(i) <- String.sub content 0 nl;
            Buffer.clear c.buf;
            c.busy <- None;
            incr finished;
            send c
        end)
      conns
  done;
  (lat, resp, now () -. t0)

(* --- daemon-side latency, from its flight recorder -------------------------------- *)

let recent d n =
  let line = J.to_string (J.Obj [ ("v", J.Int Protocol.version); ("op", J.Str "recent"); ("n", J.Int n) ]) in
  match Option.map J.parse (Ipet_serve.Client.one_shot ~socket:d.socket line) with
  | Some (Ok j) ->
    Option.value ~default:[] (Option.bind (J.member "events" j) J.to_list)
    |> List.filter_map (fun e ->
           match (Option.bind (J.member "id" e) J.to_str, J.member "latency_ms" e) with
           | Some id, Some (J.Float ms) -> Some (id, ms /. 1000.0)
           | Some id, Some (J.Int ms) -> Some (id, float_of_int ms /. 1000.0)
           | _ -> None)
  | _ -> []

(* --- one session ---------------------------------------------------------------- *)

type reply = { r : req; latency : float; daemon_s : float; response : string }

(* [phase_walls]: each phase's wall time, keyed by phase *)
type session = { replies : reply list; wall : float; phase_walls : (string * float) list }

let strip_volatile = function
  | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> k <> "stats" && k <> "trace") fields)
  | j -> j

(* The requests of session [k], for each phase named in [phases], in
   that order. *)
let session_requests ?(phases = [ "cold"; "edit"; "warm" ]) ~seed ~smoke ~trace ~k bases =
  let rng = Random.State.make [| seed; k |] in
  let tag phase i = Printf.sprintf "s%d-%s-%d" k phase i in
  let bases = shuffle rng bases in
  let cold () =
    List.mapi
      (fun i b -> request ~trace:(tag "cold" i) ~use_cache:false ~phase:"cold" b b.bench.Bspec.source)
      bases
  in
  (* every editable function of every benchmark on every machine is edited
     once per session, so the mix of functions behind the edit replies is
     the same each time; the seed picks the literal and its new value *)
  let edits () =
    List.concat_map (fun b -> List.map (fun fn -> (b, fn)) (editable b.bench.Bspec.source)) bases
    |> shuffle rng
    |> List.mapi (fun i (b, fn) ->
           request ~trace:(tag "edit" i) ~use_cache:true ~phase:"edit" b
             (edit rng b.bench.Bspec.source fn))
  in
  let warm () =
    List.concat
      (List.init (warm_rounds ~smoke ~trace) (fun r ->
           List.mapi
             (fun i b ->
               request ~trace:(tag "warm" ((r * 1000) + i)) ~use_cache:true ~phase:"warm" b
                 b.bench.Bspec.source)
             (shuffle rng bases)))
  in
  List.map (fun p -> (List.assoc p [ ("cold", cold); ("edit", edits); ("warm", warm) ]) ()) phases

let run_session d conns phases =
  let t0 = now () in
  let walls = ref [] in
  let replies =
    List.concat_map
      (fun reqs ->
        let reqs = Array.of_list reqs in
        let lat, resp, wall = run_phase conns reqs in
        walls := (reqs.(0).phase, wall) :: !walls;
        let daemon = recent d (Array.length reqs) in
        Array.to_list
          (Array.mapi
             (fun i r ->
               let trace =
                 match J.parse r.line with
                 | Ok j -> Option.value ~default:"" (Option.bind (J.member "trace" j) J.to_str)
                 | Error _ -> ""
               in
               { r; latency = lat.(i);
                 daemon_s = Option.value ~default:nan (List.assoc_opt trace daemon);
                 response = resp.(i) })
             reqs))
      phases
  in
  { replies; wall = now () -. t0; phase_walls = !walls }

(* --- checks ---------------------------------------------------------------------- *)

let ok_report response =
  match J.parse response with
  | Ok j when J.member "ok" j = Some (J.Bool true) -> Some j
  | _ -> None

let bounds j =
  Option.bind (J.member "report" j) (fun r ->
      match (J.member "wcet" r, J.member "bcet" r) with
      | Some w, Some b ->
        let cycles x =
          match J.member "cycles" x with Some c -> J.to_string c | None -> J.to_string x
        in
        Some (cycles b, cycles w)
      | _ -> None)

let stats_count response name =
  match ok_report response with
  | Some j ->
    Option.value ~default:0
      (Option.bind (Option.bind (J.member "stats" j) (J.member name)) J.to_int)
  | None -> 0

(* Every reply ok; every warm reply byte-identical to its cold one apart
   from the per-request stats; every edit's bounds equal to [reference]'s
   cache-free analysis of the same edited source. *)
let check_session tally reference s =
  let cold = Hashtbl.create 32 in
  List.iter
    (fun x ->
      let id = x.r.base.bench.Bspec.name ^ "/" ^ mach_id x.r.base.mach in
      match ok_report x.response with
      | None -> check tally false "%s %s: reply not ok: %s" x.r.phase id x.response
      | Some j ->
        (match x.r.phase with
         | "cold" ->
           Hashtbl.replace cold id (J.to_string (strip_volatile j));
           check tally true ""
         | "warm" ->
           check tally
             (Hashtbl.find_opt cold id = Some (J.to_string (strip_volatile j)))
             "warm %s: reply differs from its cold reply" id
         | _ ->
           let want = reference x.r in
           check tally (bounds j = want && want <> None) "edit %s: bounds differ from a cache-off analysis"
             id))
    s.replies

(* --- set-up ------------------------------------------------------------------------ *)

(* Start the daemon, connect, and fill the cache with every cold request:
   what an editor integration pays before its first edit. *)
let setup ~exe ~dir bases =
  let (d, conns), t =
    time (fun () ->
        let d = start ~exe ~dir in
        let conns = List.init connections (fun _ -> connect d) in
        let fill =
          List.mapi
            (fun i b -> request ~trace:(Printf.sprintf "fill-%d" i) ~use_cache:true ~phase:"fill" b b.bench.Bspec.source)
            bases
        in
        ignore (run_phase conns (Array.of_list fill));
        (d, conns))
  in
  (d, conns, t)

let close_all conns = List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns

let phase_lat phase sessions =
  List.concat_map
    (fun s -> List.filter_map (fun x -> if x.r.phase = phase then Some x.latency else None) s.replies)
    sessions

(* --- in-process replay, for the per-layer split ---------------------------------- *)

(* The daemon's own time for a request is split by replaying the request
   in this process through the serve layers' public entry points: the
   JSON codec on the request and reply lines, Protocol.handle_line,
   Frontend.compile_string_exn on a compile-memo miss,
   Incremental.analyze, and Cache.get/put on the request's unit keys.
   Each replay cache is filled the way the daemon's was, so hits and
   misses match. *)
type replay = {
  config : Protocol.config;
  inc_cache : Cache.t;
  put_cache : Cache.t;
  memo : (string, unit) Hashtbl.t;
}

let spec_of (r : req) =
  let ann = Ipet.Constraint_parser.parse_annotation_text r.base.ann in
  let prog = (Ipet_lang.Frontend.compile_string_exn r.source).Ipet_lang.Compile.prog in
  Ipet.Analysis.spec ~mach:r.base.mach ~loop_bounds:ann.Ipet.Constraint_parser.loop_bounds
    ~functional:ann.Ipet.Constraint_parser.functional ~root:r.base.bench.Bspec.root prog

(* The reference for each edit's bounds: the monolithic Analysis.analyze
   of the same edited source in this process, with no cache and no
   certificate, so it shares neither the daemon's cache nor its
   per-function path. One that fails to analyze fails the check. The
   references are made after the daemon has stopped, outside every
   measured window. Each edited source is compiled and its WCET and BCET
   ILPs built; the analysis runs once per distinct set of ILPs, named by
   the certificates' canonical problem digest, since the bounds are the
   optima of those ILPs. A literal edit changes the edited function's
   code, and so the daemon's unit key, but seldom the ILPs: a run's 500
   or so edits share a few dozen ILP sets. Returns the lookup by request
   line. *)
let references sessions =
  let edits =
    List.concat_map (fun s -> List.filter (fun x -> x.r.phase = "edit") s.replies) sessions
    |> List.map (fun x -> x.r)
  in
  let failed = function
    | Ipet.Analysis.Analysis_error _ | Failure _ | Invalid_argument _ -> true
    | _ -> false
  in
  let ilps spec =
    String.concat " "
      (List.map Ipet_cert.Certificate.digest_problem
         (Ipet.Analysis.wcet_problems spec @ Ipet.Analysis.bcet_problems spec))
  in
  let keyed =
    List.map
      (fun r -> try let spec = spec_of r in Some (ilps spec, spec) with e when failed e -> None)
      edits
  in
  let bounds = Hashtbl.create 64 in
  List.iter
    (Option.iter (fun (key, spec) ->
         if not (Hashtbl.mem bounds key) then
           Hashtbl.replace bounds key
             (match Ipet.Analysis.analyze spec with
              | res ->
                Some (string_of_int res.Ipet.Analysis.bcet.Ipet.Analysis.cycles,
                      string_of_int res.Ipet.Analysis.wcet.Ipet.Analysis.cycles)
              | exception e when failed e -> None)))
    keyed;
  let table = Hashtbl.create 1024 in
  List.iter2
    (fun r k ->
      Hashtbl.replace table r.line (Option.bind k (fun (key, _) -> Hashtbl.find bounds key)))
    edits keyed;
  fun (r : req) -> Option.join (Hashtbl.find_opt table r.line)

let replay_create ~dir bases =
  let pool = Ipet_par.Pool.default () in
  let cache name =
    let d = Filename.concat dir name in
    rm_rf d;
    Cache.create ~dir:d ~cap_bytes:(64 * 1024 * 1024)
  in
  let rp =
    { config = Protocol.make ~pool ~cache:(cache "replay-handle") ();
      inc_cache = cache "replay-incremental";
      put_cache = cache "replay-put";
      memo = Hashtbl.create 64 }
  in
  List.iter
    (fun b ->
      let r = request ~trace:"fill" ~use_cache:true ~phase:"fill" b b.bench.Bspec.source in
      ignore (Protocol.handle_line rp.config r.line);
      ignore (Incremental.analyze ~pool ~cache:rp.inc_cache (spec_of r));
      Hashtbl.replace rp.memo r.source ())
    bases;
  rp

let unit_keys report =
  Option.value ~default:[] (Option.bind (J.member "units" report) J.to_list)
  |> List.filter_map (fun u -> Option.bind (J.member "key" u) J.to_str)

let replay rp acc x =
  let mach = mach_id x.r.base.mach in
  let add = add_secs acc ~mach in
  let _, t_parse = span_time "serve.json" (fun () -> J.parse x.r.line) in
  let (resp, _), t_handle =
    span_time "serve.handle" (fun () -> Protocol.handle_line rp.config x.r.line)
  in
  let t_print =
    match J.parse resp with
    | Ok j -> snd (span_time "serve.json" (fun () -> J.to_string j))
    | Error _ -> 0.0
  in
  (* the daemon's compile memo: keyed by source, reset when 64 are held *)
  let t_compile =
    if Hashtbl.mem rp.memo x.r.source then 0.0
    else begin
      if Hashtbl.length rp.memo >= 64 then Hashtbl.reset rp.memo;
      Hashtbl.replace rp.memo x.r.source ();
      snd (span_time "lang.compile" (fun () -> Ipet_lang.Frontend.compile_string_exn x.r.source))
    end
  in
  let spec = spec_of x.r in
  let cache = if x.r.use_cache then Some rp.inc_cache else None in
  let (report, st), t_inc =
    span_time "serve.incremental" (fun () ->
        Incremental.analyze ~pool:(Ipet_par.Pool.default ()) ?cache spec)
  in
  let keys = if x.r.use_cache then unit_keys report else [] in
  let t_get =
    sum (List.map (fun k -> snd (span_time "serve.cache_get" (fun () -> Cache.get rp.inc_cache k))) keys)
  in
  let t_put =
    sum
      (List.filteri (fun i _ -> i < st.Incremental.units_solved) keys
      |> List.map (fun k ->
             match Cache.get rp.inc_cache k with
             | Some v -> snd (span_time "serve.cache_put" (fun () -> Cache.put rp.put_cache k v))
             | None -> 0.0))
  in
  let t_json = t_parse +. t_print in
  add "serve.wait_s" (x.latency -. x.daemon_s);
  add "serve.json_s" t_json;
  add "lang.compile_s" t_compile;
  add "serve.handle_s" (t_handle -. t_json -. t_compile -. t_inc);
  add "serve.incremental_s" (t_inc -. t_get -. t_put);
  add "serve.cache_get_s" t_get;
  add "serve.cache_put_s" t_put

let no_number =
  [ ( [ "core.prepare_s"; "lp.presolve_s"; "lp.solve_s"; "core.witness_s"; "cert.emit_s";
        "cert.check_s" ],
      "Incremental builds, solves and certifies its per-function unit ILPs \
       internally: no public entry point reaches them and no span covers them, \
       so their time is inside serve.incremental_s" );
    ( [ "obs.overhead" ],
      "the daemon runs untraced in both halves (its work is split by the \
       in-process replay afterwards), so traced over untraced client time \
       would measure no tracing at all" ) ]

let phase_metrics sessions =
  let replies = List.concat_map (fun s -> s.replies) sessions in
  let q name phase p = m name "ms" (1000.0 *. quantile p (phase_lat phase sessions)) in
  let hit phase =
    let of_phase = List.filter (fun x -> x.r.phase = phase) replies in
    let total = List.fold_left (fun a x -> a + stats_count x.response "units_total") 0 of_phase in
    let cached = List.fold_left (fun a x -> a + stats_count x.response "units_cached") 0 of_phase in
    m ("serve.hit_ratio." ^ phase) "ratio" (float_of_int cached /. float_of_int (max 1 total))
  in
  List.iter
    (fun (phase, p) -> tail_note phase p (phase_lat phase sessions))
    [ ("cold", 0.9); ("edit", 0.9); ("warm", 0.99) ];
  [ q "serve.cold_p50_ms" "cold" 0.5; q "serve.cold_p90_ms" "cold" 0.9;
    q "serve.edit_p50_ms" "edit" 0.5; q "serve.edit_p90_ms" "edit" 0.9;
    q "serve.warm_p50_ms" "warm" 0.5; q "serve.warm_p99_ms" "warm" 0.99;
    m "serve.session_rps" "1/s"
      (float_of_int (List.length replies) /. sum (List.map (fun s -> s.wall) sessions));
    m "serve.wait_ms" "ms"
      (1000.0 *. sum (List.map (fun x -> x.latency -. x.daemon_s) replies)
       /. float_of_int (max 1 (List.length replies)));
    hit "cold"; hit "edit"; hit "warm" ]

(* --- entry point ----------------------------------------------------------------------- *)

let run ~seed ~seconds ~trace ~smoke ~exe ~dir ~trace_file tally =
  let bases = bases ~smoke in
  let setups =
    List.init 3 (fun i ->
        let d, conns, t = setup ~exe ~dir bases in
        if i < 2 then begin close_all conns; stop d end;
        (d, conns, t))
  in
  let d, conns, _ = List.nth setups 2 in
  let client s = sum (List.map (fun x -> x.latency) s.replies) in
  let requests ?phases k = session_requests ?phases ~seed ~smoke ~trace ~k bases in
  (* [timed]: the untraced run's measured sessions *)
  let sessions, timed, layers =
    if not trace then begin
      (* the measured window holds edit phases only, back to back; one
         cold and one warm phase after it give the run its cold and warm
         checks *)
      let t_end = now () +. (if smoke then 0.0 else seconds) in
      let rec loop k sessions =
        let s = run_session d conns (requests ~phases:[ "edit" ] k) in
        if now () < t_end then loop (k + 1) (s :: sessions) else (k, s :: sessions)
      in
      let k, timed = loop 0 [] in
      let checks = run_session d conns (requests ~phases:[ "cold"; "warm" ] (k + 1)) in
      (checks :: timed, timed, [])
    end
    else begin
      let t_end = now () +. (if smoke then 0.0 else seconds) in
      let rp = replay_create ~dir bases in
      let acc = acc () in
      let rec loop k (untraced, traced) =
        let u = run_session d conns (requests k) in
        trace_begin ();
        let t =
          Obs.span "daemon.session" (fun () -> run_session d conns (requests (k + 1)))
        in
        List.iter (replay rp acc) t.replies;
        trace_end ~file:trace_file;
        if k = 0 then
          List.iter
            (fun x ->
              let mach = mach_id x.r.base.mach in
              List.iter
                (fun n -> add_count acc ~mach ("serve." ^ n) (stats_count x.response n))
                [ "units_total"; "units_cached"; "units_solved"; "certs_checked" ])
            t.replies;
        let pair = (u :: untraced, t :: traced) in
        if now () < t_end then loop (k + 2) pair else pair
      in
      let untraced, traced = loop 0 ([], []) in
      let layers =
        layer_report ~workload:"daemon-session" ~units:(List.length traced)
          ~traced:(List.map client traced) ~untraced:(List.map client untraced) ~acc
          ~no_number
        @ phase_metrics (untraced @ traced)
      in
      (untraced @ traced, [], layers)
    end
  in
  let rss = peak_rss_mb (Some d.pid) in
  close_all conns;
  stop d;
  let (), t_check =
    time (fun () ->
        let reference = references sessions in
        List.iter (check_session tally reference) sessions)
  in
  Printf.eprintf "perfbench: daemon-session checked %d sessions in %.1f s\n%!"
    (List.length sessions) t_check;
  if trace then layers
  else
    (* both figures are the edit phase's alone: the cold and warm phases
       set the cache up, and their counts are a sampling choice. Every
       session edits the same functions, so a session's mean edit reply is
       comparable across sessions; a median over single replies would sit
       between two of the 72 distinct edited functions. *)
    let means =
      List.map (fun s -> let l = phase_lat "edit" [ s ] in sum l /. float_of_int (List.length l)) timed
    in
    Printf.eprintf "perfbench: daemon-session mean edit reply of each timed session (ms): %s\n%!"
      (String.concat " " (List.rev_map (fun x -> Printf.sprintf "%.2f" (1000.0 *. x)) means));
    [ m "setup_s" "s" (median (List.map (fun (_, _, t) -> t) setups));
      m "peak_rss_mb" "MB" rss;
      m "op_p50_ms" "ms" (1000.0 *. median means);
      m "ops_per_s" "1/s"
        (float_of_int (List.length (phase_lat "edit" timed))
         /. sum (List.map (fun s -> List.assoc "edit" s.phase_walls) timed)) ]
