module P = Ipet_isa.Prog
module Instr = Ipet_isa.Instr
module Icache = Ipet_machine.Icache
module Cost = Ipet_machine.Cost

(* v5: the program key hashes the first-miss refinement flag (v4: function
   and program units share one cache record, counts keyed by (function,
   block)) *)
let schema = 5

let add_cache buf (c : Icache.config) =
  Buffer.add_string buf
    (Printf.sprintf "cache %d %d %d\n" c.Icache.size_bytes c.Icache.line_bytes
       c.Icache.miss_penalty)

let add_cost_model buf ~mach ~cache ~dcache =
  Buffer.add_string buf (Printf.sprintf "mach %s\n" mach);
  add_cache buf cache;
  match dcache with
  | None -> Buffer.add_string buf "dcache none\n"
  | Some d ->
    Buffer.add_string buf "dcache ";
    add_cache buf d

(* the compiled form: every bit the local flow problem is built from *)
let add_func buf (f : P.func) =
  Buffer.add_string buf
    (Printf.sprintf "func %s params=%d frame=%d blocks=%d\n" f.P.name
       f.P.nparams f.P.frame_words (Array.length f.P.blocks));
  Array.iter
    (fun (b : P.block) ->
      Buffer.add_string buf (Printf.sprintf "B%d line=%d\n" b.P.id b.P.src_line);
      Array.iter
        (fun i -> Buffer.add_string buf (Format.asprintf "  %a\n" Instr.pp i))
        b.P.instrs;
      Buffer.add_string buf
        (Format.asprintf "  term %a\n" Instr.pp_terminator b.P.term))
    f.P.blocks

let add_costs buf (costs : Cost.bounds array) =
  Array.iteri
    (fun i (c : Cost.bounds) ->
      Buffer.add_string buf
        (Printf.sprintf "c%d %d %d %d\n" i c.Cost.best c.Cost.worst
           c.Cost.worst_warm))
    costs

let add_annotations buf fname (annotations : Ipet.Annotation.t list) =
  let mine =
    List.filter (fun (a : Ipet.Annotation.t) -> a.Ipet.Annotation.func = fname)
      annotations
  in
  let render (a : Ipet.Annotation.t) =
    let header =
      match a.Ipet.Annotation.header with
      | `Line l -> Printf.sprintf "line %d" l
      | `Block b -> Printf.sprintf "block %d" b
    in
    Printf.sprintf "loop %s [%d,%d]\n" header a.Ipet.Annotation.lo
      a.Ipet.Annotation.hi
  in
  (* several sound bounds on one loop intersect; their order is immaterial *)
  List.iter (Buffer.add_string buf) (List.sort compare (List.map render mine))

let add_callees buf callees =
  List.iter
    (fun (name, wcet_pe, bcet_pe) ->
      Buffer.add_string buf
        (Printf.sprintf "callee %s [%d,%d]\n" name bcet_pe wcet_pe))
    callees

let func_bytes ~mach ~cache ~dcache ~costs ~annotations ~callees (f : P.func) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "ipet-serve-key v%d unit=func\n" schema);
  add_cost_model buf ~mach ~cache ~dcache;
  add_func buf f;
  add_costs buf costs;
  add_annotations buf f.P.name annotations;
  add_callees buf callees;
  Buffer.contents buf

let func_key ~mach ~cache ~dcache ~costs ~annotations ~callees f =
  Digest.to_hex
    (Digest.string
       (func_bytes ~mach ~cache ~dcache ~costs ~annotations ~callees f))

let program_key ~mach ~cache ~dcache ~root ~annotations ~functional
    ~first_miss (prog : P.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "ipet-serve-key v%d unit=program root=%s\n" schema root);
  add_cost_model buf ~mach ~cache ~dcache;
  Buffer.add_string buf (Printf.sprintf "first_miss %b\n" first_miss);
  Array.iter
    (fun (f : P.func) ->
      add_func buf f;
      add_annotations buf f.P.name annotations)
    prog.P.funcs;
  List.iter
    (fun (g : P.global) ->
      Buffer.add_string buf
        (Printf.sprintf "global %s %d %d\n" g.P.gname g.P.addr g.P.size_words))
    prog.P.globals;
  List.iter
    (fun c -> Buffer.add_string buf (Format.asprintf "constr %a\n" Ipet.Functional.pp c))
    functional;
  Digest.to_hex (Digest.string (Buffer.contents buf))
