(* perfbench: time to a verified bound, end to end and layer by layer.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                 [--cinderella PATH] [--out DIR] [--smoke]

   The last line of standard output is the result object. With --trace 0
   it carries the end-to-end metrics, measured with observability off;
   with --trace 1 it carries every per-layer metric, measured in a
   separate traced run that also re-measures the untraced work for the
   tracing overhead. A wrong output counts as a failed operation. *)

open Common

(* One domain. On a 2-core host a 2-worker pool made fuzz cases ~15%
   slower and set-up ~25% slower, with no parallel gain: the solver's
   fan-out is too fine to pay for the extra domains' stop-the-world
   minor collections. *)
let jobs = 1

(* The metric names and units BENCHMARK.json declares for the mode
   ("end_to_end" or "per_layer"), in its order. The result carries exactly
   these; a metric the workload does not reach reports 0. *)
let declared section =
  let module J = Ipet_serve.Json in
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let metric j =
    match (Option.bind (J.member "name" j) J.to_str, Option.bind (J.member "unit" j) J.to_str) with
    | Some n, Some u -> (n, u)
    | _ -> failwith ("BENCHMARK.json: a " ^ section ^ " metric without a name or unit")
  in
  match Result.map (fun j -> Option.bind (J.member section j) J.to_list) (J.parse text) with
  | Ok (Some l) -> List.map metric l
  | _ -> failwith ("BENCHMARK.json: no " ^ section ^ " list")

let workloads = [ "paper-suite"; "daemon-session"; "fuzz-sized" ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload paper-suite|daemon-session|fuzz-sized --seed N \
     --seconds S --trace 0|1 [--cinderella PATH] [--out DIR] [--smoke]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let cinderella = ref "_build/default/bin/cinderella.exe" and out = ref ".perfbench" in
  let smoke = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--cinderella" :: v :: rest -> cinderella := v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when List.mem !workload workloads && t > 0.0 -> (s, t, tr)
    | _ -> usage ()
  in
  let wanted = declared (if trace then "per_layer" else "end_to_end") in
  Ipet_par.Pool.set_default ~jobs;
  let dir = Filename.concat !out !workload in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755)
    [ !out; dir ];
  let trace_file = Filename.concat dir "trace.json" in
  let tally = tally () in
  let metrics =
    match !workload with
    | "paper-suite" -> Paper.run ~seed ~seconds ~trace ~smoke:!smoke ~trace_file tally
    | "daemon-session" ->
      Daemon.run ~seed ~seconds ~trace ~smoke:!smoke ~exe:!cinderella ~dir ~trace_file tally
    | "fuzz-sized" -> Fuzz_sized.run ~seed ~seconds ~trace ~smoke:!smoke ~trace_file tally
    | _ -> usage ()
  in
  let metrics =
    List.map
      (fun (n, u) ->
        match List.find_opt (fun x -> x.name = n) metrics with
        | Some x -> x
        | None -> m n u 0.0)
      wanted
  in
  (* host fingerprint, on its own line so the result stays the last one *)
  Printf.printf
    "perfbench: host nproc=%d ocaml=%s jobs=%d workload=%s seed=%d seconds=%g trace=%d rev=%s\n"
    (Ipet_par.Par_compat.recommended_domain_count ())
    Sys.ocaml_version jobs !workload seed seconds
    (if trace then 1 else 0)
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_REV"));
  print_endline
    (result_line ~correct:(tally.failed = 0) ~attempted:(max 1 tally.attempted)
       ~failed:tally.failed metrics)
