let event (s : Span.completed) =
  let args =
    match s.Span.args with
    | [] -> []
    | kvs -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)) ]
  in
  Json.Obj
    ([ ("name", Json.Str s.Span.name);
       ("cat", Json.Str "ipet");
       ("ph", Json.Str "X");
       ("pid", Json.Int 1);
       ("tid", Json.Int s.Span.tid);
       ("ts", Json.Int s.Span.start_us);
       ("dur", Json.Int s.Span.dur_us) ]
     @ args)

let metadata ?(tid = 0) name value =
  Json.Obj
    [ ("name", Json.Str name);
      ("ph", Json.Str "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str value) ]) ]

let to_string ?(process_name = "cinderella") ?(track_names = []) spans =
  let sorted =
    List.stable_sort
      (fun (a : Span.completed) b -> compare a.Span.start_us b.Span.start_us)
      spans
  in
  let tids =
    List.sort_uniq compare (List.map (fun (s : Span.completed) -> s.Span.tid) sorted)
  in
  let track_name tid =
    match List.assoc_opt tid track_names with
    | Some name -> name
    | None -> Printf.sprintf "domain-%d" tid
  in
  let thread_names =
    List.map (fun tid -> metadata ~tid "thread_name" (track_name tid)) tids
  in
  let events =
    (metadata "process_name" process_name :: thread_names) @ List.map event sorted
  in
  Json.to_string_lines
    (Json.Obj
       [ ("displayTimeUnit", Json.Str "ms"); ("traceEvents", Json.List events) ])
