let pp_labels labels =
  match labels with
  | [] -> ""
  | kvs ->
    "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs) ^ "}"

(* histogram rendering needs the live cell (for quantiles), not just the
   snapshot value — [Metrics.histogram] on an already-registered name is a
   pure lookup *)
let pp_value registry name labels = function
  | Metrics.Counter n -> string_of_int n
  | Metrics.Gauge g ->
    if Float.is_integer g && Float.abs g < 1e15 then Printf.sprintf "%.0f" g
    else Printf.sprintf "%.6g" g
  | Metrics.Histogram { count; sum; min; max } ->
    let h = Metrics.histogram registry ~labels name in
    Printf.sprintf
      "count=%d sum=%.6g min=%.6g max=%.6g p50=%.6g p90=%.6g p99=%.6g" count
      sum min max
      (Metrics.quantile h 0.5)
      (Metrics.quantile h 0.9)
      (Metrics.quantile h 0.99)

let human ?(filter = fun _ -> true) registry =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, labels, value) ->
      if filter name then
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" name (pp_labels labels)
             (pp_value registry name labels value)))
    (Metrics.items registry);
  Buffer.contents buf

let json_value registry name labels = function
  | Metrics.Counter n ->
    [ ("type", Json.Str "counter"); ("value", Json.Int n) ]
  | Metrics.Gauge g -> [ ("type", Json.Str "gauge"); ("value", Json.Float g) ]
  | Metrics.Histogram { count; sum; min; max } ->
    let h = Metrics.histogram registry ~labels name in
    [ ("type", Json.Str "histogram");
      ("count", Json.Int count);
      ("sum", Json.Float sum);
      ("min", Json.Float min);
      ("max", Json.Float max);
      ("p50", Json.Float (Metrics.quantile h 0.5));
      ("p90", Json.Float (Metrics.quantile h 0.9));
      ("p99", Json.Float (Metrics.quantile h 0.99)) ]

let metrics_doc ?(span_totals = []) registry =
  let metric (name, labels, value) =
    Json.Obj
      (("name", Json.Str name)
       :: ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels))
       :: json_value registry name labels value)
  in
  let span (name, (count, total_us)) =
    Json.Obj
      [ ("name", Json.Str name);
        ("count", Json.Int count);
        ("total_us", Json.Int total_us) ]
  in
  Json.Obj
    [ ("version", Json.Int 1);
      ("metrics", Json.List (List.map metric (Metrics.items registry)));
      ("spans", Json.List (List.map span span_totals)) ]

let metrics_json ?span_totals registry =
  Json.to_string_lines (metrics_doc ?span_totals registry)

(* --- Prometheus text exposition format ----------------------------------- *)

(* metric names allow [a-zA-Z0-9_:]; our dotted names map '.' (and any
   other outsider) to '_'. None of our names start with a digit. *)
let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_escape v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | kvs ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> prom_name k ^ "=\"" ^ prom_escape v ^ "\"")
           kvs)
    ^ "}"

let prom_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let prometheus registry =
  let buf = Buffer.create 1024 in
  let typed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let sample name labels v =
    Buffer.add_string buf
      (Printf.sprintf "%s%s %s\n" name (prom_labels labels) v)
  in
  List.iter
    (fun (name, labels, value) ->
      let pname = prom_name name in
      (* items are sorted by name, so every sample of a family follows its
         TYPE line *)
      if not (Hashtbl.mem typed pname) then begin
        Hashtbl.add typed pname ();
        let kind =
          match value with
          | Metrics.Counter _ -> "counter"
          | Metrics.Gauge _ -> "gauge"
          | Metrics.Histogram _ -> "summary"
        in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" pname kind)
      end;
      match value with
      | Metrics.Counter n -> sample pname labels (string_of_int n)
      | Metrics.Gauge g -> sample pname labels (prom_num g)
      | Metrics.Histogram { count; sum; _ } ->
        let h = Metrics.histogram registry ~labels name in
        List.iter
          (fun q ->
            sample pname
              (labels @ [ ("quantile", Printf.sprintf "%g" q) ])
              (prom_num (Metrics.quantile h q)))
          [ 0.5; 0.9; 0.99 ];
        sample (pname ^ "_sum") labels (prom_num sum);
        sample (pname ^ "_count") labels (string_of_int count))
    (Metrics.items registry);
  Buffer.contents buf

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc
