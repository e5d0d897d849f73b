(** Minimal JSON writing helpers shared by the sinks. Output is always
    valid JSON: strings are escaped, non-finite floats rendered as [null]
    (never as [nan]/[inf], nor as a false number), no trailing commas. *)

val escape : string -> string
(** The body of a JSON string literal (no surrounding quotes). *)

val str : string -> string
(** A quoted, escaped JSON string literal. *)

val num : float -> string
(** A JSON number; non-finite values become [null]. *)

val obj : (string * string) list -> string
(** [obj fields] where each value is already-rendered JSON. *)

val arr : string list -> string
