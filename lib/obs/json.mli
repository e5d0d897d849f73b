(** The one JSON module: a parser and a deterministic printer, with no
    dependency beyond the stdlib. Every JSON value the observability sinks,
    the flight recorder and the serve protocol emit is built as a {!t} and
    printed here, so escaping and number rendering have one definition.

    The printer is the inverse of the parser on the supported value space
    and renders object fields in the order given — responses built from
    the same data are byte-identical, which the cold/warm determinism
    guarantee of the analysis cache relies on. Integers are kept distinct
    from floats so execution counts round-trip exactly through cache
    files; a {!Float} prints as the shortest decimal that reads back as
    the same float, and a non-finite one as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** One JSON document; trailing whitespace allowed, anything else after
    the value is an error. Numbers without [.], [e] or [E] parse as
    {!Int}. Nesting depth is capped (malformed input cannot blow the
    stack). *)

val to_string : t -> string
(** Compact rendering (no added whitespace), object fields in order. *)

val to_string_lines : t -> string
(** The file-artifact rendering of a document: a top-level object prints
    one field per line, and each non-empty list-valued field one element
    per line; everything deeper is compact as in {!to_string}. Ends with a
    newline. Parses back to the same value. *)

(** {1 Accessors} (all total; [None] on shape mismatch) *)

val member : string -> t -> t option
(** Field of an {!Obj}; [None] for absent fields and non-objects. *)

val to_str : t -> string option
val to_int : t -> int option
val to_bool : t -> bool option
val to_list : t -> t list option
