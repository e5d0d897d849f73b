(** Persistent content-addressed result store with size-capped LRU
    eviction.

    Each entry is one JSON file under the cache directory, named by its
    {!Key} digest; entries are immutable (same key, same content), so a
    crashed or concurrent writer can at worst leave a stale temp file,
    never a corrupt entry (writes go through rename). An index file
    records recency and sizes so LRU survives restarts; a missing or
    damaged index is rebuilt from the entry files, and an entry file that
    fails to parse is treated as a miss and deleted.

    Hit/miss/eviction counts are exposed via {!stats} and published as
    [serve.cache.*] metrics in the global {!Ipet_obs} registry. *)

type t

val create : dir:string -> cap_bytes:int -> t
(** Open (creating the directory if needed) a cache capped at [cap_bytes]
    of entry-file bytes. Stale ["*.tmp"] files left by a crashed writer
    are swept on open — they are rename-source temporaries, never valid
    entries. *)

val get : t -> string -> Ipet_obs.Json.t option
(** Look up a key, refreshing its recency. *)

val put : t -> string -> Ipet_obs.Json.t -> unit
(** Store a value under a key, evicting least-recently-used entries while
    the cap is exceeded (the new entry itself is never evicted by its own
    insertion). Idempotent for an existing key. *)

val flush : t -> unit
(** Persist the index file. Also called by {!put}. *)

val remove : t -> string -> unit
(** Delete an entry (no-op for an absent key). Used by the incremental
    engine to drop a cached result whose stored certificate fails
    validation, so the next lookup misses and re-solves. *)

type stats = {
  entries : int;
  bytes : int;       (** sum of entry-file sizes *)
  hits : int;
  misses : int;
  evictions : int;
  eviction_bytes : int;  (** entry-file bytes reclaimed by eviction *)
}

val stats : t -> stats

val dir : t -> string
val cap_bytes : t -> int
