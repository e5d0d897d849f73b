(* Shared plumbing of the benchmark executable: clocks, order statistics,
   resident-set readings, the span-based layer attribution and the result
   line. *)

module Obs = Ipet_obs.Obs
module Machine = Ipet_machine.Machine

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics ----------------------------------------------------- *)

(* Linear interpolation between closest ranks, so a p50 over an even count
   is the mean of the two middle samples. *)
let quantile q samples =
  match List.sort compare samples with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0

(* whether at least ten samples lie beyond the [q] quantile *)
let tail_ok q samples =
  float_of_int (List.length samples) *. (1.0 -. q) >= 10.0

(* --- memory ----------------------------------------------------------------- *)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* --- machines ----------------------------------------------------------------- *)

let machines = [ Machine.e32; Machine.m7 ]
let mach_id = Machine.id

(* --- layer accounting --------------------------------------------------------- *)

(* Per-layer figures accumulate here during the traced units of work: self
   seconds keyed by (layer, machine id), counts likewise. *)
type acc = {
  secs : (string * string, float) Hashtbl.t;
  counts : (string * string, int) Hashtbl.t;
}

let acc () = { secs = Hashtbl.create 32; counts = Hashtbl.create 32 }

let add_secs acc ~mach layer s =
  let k = (layer, mach) in
  Hashtbl.replace acc.secs k
    (s +. Option.value ~default:0.0 (Hashtbl.find_opt acc.secs k))

let add_count acc ~mach name n =
  let k = (name, mach) in
  Hashtbl.replace acc.counts k
    (n + Option.value ~default:0 (Hashtbl.find_opt acc.counts k))

(* The solver statistics of one analysis, as per-machine counts. *)
let add_lp_counts acc ~mach (r : Ipet.Analysis.result) =
  let module A = Ipet.Analysis in
  List.iter
    (fun (s : A.solver_stats) ->
      add_count acc ~mach "lp.ilps" s.A.sets_solved;
      add_count acc ~mach "lp.vars_before" s.A.presolve_vars_before;
      add_count acc ~mach "lp.vars_after" s.A.presolve_vars_after;
      add_count acc ~mach "lp.bnb_nodes" s.A.bnb_nodes;
      add_count acc ~mach "lp.pivots" s.A.simplex_pivots;
      add_count acc ~mach "lp.warm_hits" s.A.warm_hits)
    [ r.A.wcet_stats; r.A.bcet_stats ]

(* [span_time layer f] runs [f] inside a benchmark-side span named after
   the layer and returns its result with the span's wall time. *)
let span_time ?(args = []) layer f =
  let t0 = now () in
  let r = Obs.span ~args layer f in
  (r, now () -. t0)

(* Total seconds the program's own spans named [name] took in the current
   trace (every domain, every track). *)
let program_span_secs name =
  match List.assoc_opt name (Obs.span_totals ()) with
  | Some (_, us) -> float_of_int us /. 1e6
  | None -> 0.0

(* Sum of the program's own histogram [name] over every label set. *)
let program_histogram_secs name =
  List.fold_left
    (fun a (n, _, v) ->
      match v with Obs.Metrics.Histogram { sum; _ } when n = name -> a +. sum | _ -> a)
    0.0
    (Obs.Metrics.items Obs.metrics)

(* Run [f] and return what the program itself recorded meanwhile for the
   layers it times on its own: the canonical-witness re-solve (its
   ilp.witness span, the only record of a step with no public entry point)
   and the Certify.certify / Checker.check calls it makes while certifying
   (its cert.emit_seconds / cert.check_seconds observations). Reading these
   beats re-calling the functions afterwards, which runs ~15% slower on a
   heap the pass has already grown. *)
let program_layers f =
  let read () =
    [ ("core.witness_s", program_span_secs "ilp.witness");
      ("cert.emit_s", program_histogram_secs "cert.emit_seconds");
      ("cert.check_s", program_histogram_secs "cert.check_seconds") ]
  in
  let before = read () in
  let r = f () in
  (r, List.map2 (fun (l, a) (_, b) -> (l, b -. a)) before (read ()))

(* The certificate's pivots: the Simplex.pivots () delta around a fresh
   Certify.certify of the winning ILP. *)
let cert_pivots problems (c : Ipet.Analysis.certificate) =
  let cert = c.Ipet.Analysis.cert in
  let problem =
    List.find
      (fun q -> Ipet_cert.Certificate.digest_problem q = cert.Ipet_cert.Certificate.digest)
      problems
  in
  let pv0 = Ipet_lp.Simplex.pivots () in
  ignore
    (Ipet_cert.Certify.certify problem ~witness:cert.Ipet_cert.Certificate.witness
       ~bound:cert.Ipet_cert.Certificate.bound);
  Ipet_lp.Simplex.pivots () - pv0

(* Start a fresh trace for one traced unit of work. *)
let trace_begin () =
  Obs.reset ();
  Obs.enable ()

let trace_end ~file =
  Obs.disable ();
  let oc = open_out file in
  output_string oc
    (Obs.Trace_event.to_string ~track_names:(Obs.track_names ())
       (Obs.spans ()));
  close_out oc

(* --- the result line ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_float x.value) x.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

(* --- failures --------------------------------------------------------------- *)

(* A wrong output is a failed operation, recorded with its reason; the run
   goes on. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check tally ok fmt =
  Printf.ksprintf
    (fun msg ->
      tally.attempted <- tally.attempted + 1;
      if not ok then begin
        tally.failed <- tally.failed + 1;
        if tally.failed <= 20 then Printf.eprintf "perfbench: FAILED %s\n%!" msg
      end)
    fmt

(* --- deterministic shuffling ------------------------------------------------- *)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- traced-run report ------------------------------------------------------- *)

(* The per-layer half of a workload's traced run. [acc] holds self seconds
   summed over [units] traced units of work and the counts of one unit, [traced] and
   [untraced] the per-unit end-to-end seconds of the traced units and of
   the untraced units run alongside them. Layer times are reported per
   unit; [unattributed_s] is what the layers' self times leave of the
   traced end-to-end time, so the two always sum to it. [no_number] names
   layers this workload reaches but cannot time, with the reason: they are
   printed as findings rather than left as silent gaps. Naming
   "obs.overhead" there drops the traced-over-untraced ratio. *)
let layer_report ~workload ~units ~traced ~untraced ~acc ~no_number =
  let per_unit s = s /. float_of_int (max 1 units) in
  let e2e = per_unit (sum traced) in
  let layer_secs =
    Hashtbl.fold (fun k v l -> (k, per_unit v) :: l) acc.secs [] |> List.sort compare
  in
  let attributed = sum (List.map snd layer_secs) in
  let unattributed = e2e -. attributed in
  let overhead = median traced /. median untraced in
  let measured_overhead = not (List.exists (fun (l, _) -> List.mem "obs.overhead" l) no_number) in
  Printf.printf "perfbench: %s layer self times, seconds per unit (%d traced)\n" workload units;
  Printf.printf "  %-22s %10s %10s\n" "layer" "e32" "m7";
  List.iter
    (fun layer ->
      let cell mach =
        match List.assoc_opt (layer, mach) layer_secs with
        | Some s -> Printf.sprintf "%10.4f" s
        | None -> Printf.sprintf "%10s" "-"
      in
      Printf.printf "  %-22s %s %s\n" layer (cell "e32") (cell "m7"))
    (List.sort_uniq compare (List.map (fun ((l, _), _) -> l) layer_secs));
  Printf.printf "  %-22s %10.4f\n" "unattributed_s" unattributed;
  Printf.printf "  %-22s %10.4f = layers %.4f + unattributed\n" "end-to-end (traced)" e2e
    attributed;
  if measured_overhead then
    Printf.printf "  %-22s %10.4f = traced %.4f / untraced %.4f (medians)\n" "obs.overhead"
      overhead (median traced) (median untraced);
  List.iter
    (fun (layers, why) ->
      Printf.printf "  finding: no number on %s for %s: %s\n" workload
        (String.concat ", " layers) why)
    no_number;
  List.map (fun ((l, mach), s) -> m (l ^ "." ^ mach) "s" s) layer_secs
  @ Hashtbl.fold
      (fun (n, mach) v l -> m (n ^ "." ^ mach) "count" (float_of_int v) :: l)
      acc.counts []
  @ [ m "unattributed_s" "s" unattributed ]
  @ if measured_overhead then [ m "obs.overhead" "ratio" overhead ] else []

(* A note when a tail quantile rests on fewer than ten samples beyond it. *)
let tail_note name q samples =
  if not (tail_ok q samples) then
    Printf.printf "  note: %s p%.0f over %d samples has fewer than 10 beyond it\n" name
      (100.0 *. q) (List.length samples)
