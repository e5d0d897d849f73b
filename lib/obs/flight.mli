(** Always-on flight recorder: a fixed-size ring of per-request events.

    The daemon records one compact structured {!event} for {e every}
    request it handles — independent of whether span tracing is enabled —
    so the last [cap] requests before a crash or shutdown are always
    reconstructible. A write is O(1) (one lock, one array store); the ring
    never allocates after {!create} beyond the event records themselves.

    Events carry a monotonically increasing sequence number starting at 0;
    once the ring wraps, only the newest [cap] events (and their original
    sequence numbers) survive. {!recent} answers the daemon's [recent]
    protocol op live; {!write_dump} renders the ring as JSONL on the
    shutdown/crash path. *)

type event = {
  time : float;             (** request arrival, Unix seconds *)
  id : string;              (** client trace id, or a server-assigned one *)
  op : string;              (** protocol op, ["?"] when unparsable *)
  root : string;            (** analysis root, [""] for non-analyze ops *)
  digests : string list;    (** per-function unit cache keys (capped) *)
  units_total : int;
  units_cached : int;
  units_solved : int;
  warm_hits : int;          (** warm-started LP solves *)
  pivots : int;             (** simplex pivots spent on this request *)
  certs_checked : int;
  certs_rejected : int;
  latency_ms : float;
  error : string option;    (** error-taxonomy code, [None] on success *)
}

type t

val create : ?cap:int -> unit -> t
(** A ring holding the last [cap] (default 256, minimum 1) events. *)

val cap : t -> int

val record : t -> event -> unit
(** Append an event, overwriting the oldest once the ring is full. *)

val total : t -> int
(** Events recorded over the ring's lifetime (not just those retained). *)

val recent : ?n:int -> t -> (int * event) list
(** The newest [n] (default: all retained) events, newest first, each with
    its sequence number. *)

val event_json : int * event -> Json.t
(** One event as a JSON object: the row of the JSONL dump and of the
    daemon's [recent] op, so both print the same bytes. *)

val dump : t -> string
(** The retained events as JSONL, oldest first. *)

val write_dump : t -> string -> unit
(** Write {!dump} to a file; no-op when the ring is empty, best-effort on
    I/O errors (the crash path must not raise). *)
