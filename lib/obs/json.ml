type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then
      (* shortest representation that round-trips *)
      let s = Printf.sprintf "%.17g" f in
      let shorter = Printf.sprintf "%.15g" f in
      Buffer.add_string buf (if float_of_string shorter = f then shorter else s)
    else
      (* JSON has no nan/infinity literal; "0" would silently pass a bogus
         measurement off as a real one, so degrade to null instead *)
      Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let to_string_lines v =
  let buf = Buffer.create 1024 in
  let lines indent items write_item =
    List.iteri
      (fun i item ->
        Buffer.add_string buf (if i = 0 then "\n" else ",\n");
        Buffer.add_string buf indent;
        write_item item)
      items
  in
  (match v with
   | Obj (_ :: _ as fields) ->
     Buffer.add_char buf '{';
     lines "  " fields (fun (k, v) ->
         write buf (Str k);
         Buffer.add_string buf ": ";
         match v with
         | List (_ :: _ as items) ->
           Buffer.add_char buf '[';
           lines "    " items (write buf);
           Buffer.add_string buf "\n  ]"
         | v -> write buf v);
     Buffer.add_string buf "\n}"
   | v -> write buf v);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------- *)

exception Bad of string

let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> error "at byte %d: expected '%c', got '%c'" !pos c got
    | None -> error "at byte %d: expected '%c', got end of input" !pos c
  in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> true
      | Some _ | None -> false
    do
      advance ()
    done
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      value
    end
    else error "at byte %d: malformed literal" !pos
  in
  (* encode a Unicode scalar value as UTF-8 *)
  let add_utf8 buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then error "at byte %d: truncated \\u escape" !pos;
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | None -> error "unterminated escape"
         | Some c ->
           advance ();
           (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
              let u = hex4 () in
              let u =
                (* surrogate pair *)
                if u >= 0xD800 && u <= 0xDBFF && !pos + 6 <= n
                   && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    0x10000 + (((u - 0xD800) lsl 10) lor (lo - 0xDC00))
                  else error "at byte %d: invalid low surrogate" !pos
                end
                else if u >= 0xD800 && u <= 0xDFFF then
                  error "at byte %d: lone surrogate" !pos
                else u
              in
              add_utf8 buf u
            | c -> error "at byte %d: bad escape '\\%c'" !pos c);
           go ())
      | Some c when Char.code c < 0x20 -> error "control byte in string"
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let seen = ref false in
      while match peek () with Some '0' .. '9' -> true | _ -> false do
        seen := true;
        advance ()
      done;
      if not !seen then error "at byte %d: malformed number" !pos
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       is_float := true;
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value depth =
    if depth > max_depth then error "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> error "empty input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elems () =
          items := parse_value (depth + 1) :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems ()
          | Some ']' -> advance ()
          | _ -> error "at byte %d: expected ',' or ']'" !pos
        in
        elems ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> error "at byte %d: expected ',' or '}'" !pos
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some c -> error "at byte %d: unexpected '%c'" !pos c
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then error "at byte %d: trailing garbage" !pos;
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* --- accessors ----------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
