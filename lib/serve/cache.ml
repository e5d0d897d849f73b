module Obs = Ipet_obs.Obs
module Json = Ipet_obs.Json

type entry = { mutable size : int; mutable seq : int }

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  evictions : int;
  eviction_bytes : int;
}

type t = {
  dir : string;
  cap_bytes : int;
  table : (string, entry) Hashtbl.t;
  mutable next_seq : int;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable eviction_bytes : int;
}

let index_magic = "cinderella-cache-index v1"

let entry_path t key = Filename.concat t.dir (key ^ ".json")
let index_path t = Filename.concat t.dir "index"

let is_key key =
  String.length key = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       key

let mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir && not (Sys.file_exists parent) then
      (try Unix.mkdir parent 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

(* a writer that crashed between open and rename leaves a stale "*.tmp"
   behind; it is never a valid entry, so opening the cache sweeps them *)
let sweep_tmp dir =
  match Sys.readdir dir with
  | files ->
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".tmp" then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      files
  | exception Sys_error _ -> ()

(* atomic-enough write: temp file in the same directory, then rename *)
let write_file path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc content;
  close_out oc;
  Sys.rename tmp path

let load_index t =
  let adopt key seq =
    match Unix.stat (entry_path t key) with
    | { Unix.st_size; _ } ->
      Hashtbl.replace t.table key { size = st_size; seq };
      t.bytes <- t.bytes + st_size;
      if seq >= t.next_seq then t.next_seq <- seq + 1
    | exception Unix.Unix_error _ -> ()
  in
  let from_index =
    match read_file (index_path t) with
    | content ->
      (match String.split_on_char '\n' content with
       | magic :: lines when magic = index_magic ->
         List.iter
           (fun line ->
             match String.split_on_char ' ' line with
             | [ key; seq ] when is_key key ->
               (match int_of_string_opt seq with
                | Some seq -> adopt key seq
                | None -> ())
             | _ -> ())
           lines;
         true
       | _ -> false)
    | exception Sys_error _ -> false
  in
  if not from_index then
    (* no (or damaged) index: rebuild from the entry files, oldest-mtime
       first so eviction order stays sensible *)
    match Sys.readdir t.dir with
    | files ->
      Array.to_list files
      |> List.filter_map (fun f ->
        if Filename.check_suffix f ".json" then begin
          let key = Filename.chop_suffix f ".json" in
          if is_key key then
            match Unix.stat (Filename.concat t.dir f) with
            | st -> Some (st.Unix.st_mtime, key)
            | exception Unix.Unix_error _ -> None
          else None
        end
        else None)
      |> List.sort compare
      |> List.iter (fun (_, key) ->
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        adopt key seq)
    | exception Sys_error _ -> ()

let create ~dir ~cap_bytes =
  mkdir_p dir;
  sweep_tmp dir;
  let t =
    { dir;
      cap_bytes;
      table = Hashtbl.create 64;
      next_seq = 0;
      bytes = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      eviction_bytes = 0 }
  in
  load_index t;
  t

let flush t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf index_magic;
  Buffer.add_char buf '\n';
  Hashtbl.iter
    (fun key e -> Buffer.add_string buf (Printf.sprintf "%s %d\n" key e.seq))
    t.table;
  write_file (index_path t) (Buffer.contents buf)

let touch t e =
  e.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1

let drop t key e =
  Hashtbl.remove t.table key;
  t.bytes <- t.bytes - e.size;
  try Sys.remove (entry_path t key) with Sys_error _ -> ()

let remove t key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    drop t key e;
    flush t
  | None -> ()

let miss t =
  t.misses <- t.misses + 1;
  Obs.add "serve.cache.misses" 1;
  None

let get t key =
  match Hashtbl.find_opt t.table key with
  | None -> miss t
  | Some e ->
    (match Json.parse (read_file (entry_path t key)) with
     | Ok v ->
       touch t e;
       t.hits <- t.hits + 1;
       Obs.add "serve.cache.hits" 1;
       Some v
     | Error _ | exception Sys_error _ ->
       (* damaged or vanished entry: self-heal to a miss *)
       drop t key e;
       miss t)

let evict_over_cap t ~keep =
  while
    t.bytes > t.cap_bytes
    && Hashtbl.length t.table > if Hashtbl.mem t.table keep then 1 else 0
  do
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          if key = keep then acc
          else
            match acc with
            | Some (_, best) when best.seq <= e.seq -> acc
            | Some _ | None -> Some (key, e))
        t.table None
    in
    match victim with
    | None -> t.bytes <- min t.bytes t.cap_bytes (* only [keep] left *)
    | Some (key, e) ->
      let freed = e.size in
      drop t key e;
      t.evictions <- t.evictions + 1;
      t.eviction_bytes <- t.eviction_bytes + freed;
      Obs.add "serve.cache.evictions" 1;
      Obs.add "serve.cache.eviction_bytes" freed
  done

let put t key value =
  let content = Json.to_string value in
  let size = String.length content in
  (match Hashtbl.find_opt t.table key with
   | Some e ->
     (* same key, same content: refresh recency only *)
     touch t e
   | None ->
     write_file (entry_path t key) content;
     let e = { size; seq = 0 } in
     touch t e;
     Hashtbl.replace t.table key e;
     t.bytes <- t.bytes + size;
     evict_over_cap t ~keep:key);
  flush t

let stats t : stats =
  { entries = Hashtbl.length t.table;
    bytes = t.bytes;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    eviction_bytes = t.eviction_bytes }

let dir t = t.dir
let cap_bytes t = t.cap_bytes
