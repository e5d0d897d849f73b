(** Content-addressed cache keys for analysis results.

    A key is the MD5 digest of a canonical serialization of {e exactly the
    inputs that determine the cached result} — nothing more, nothing less:

    - the function's compiled form (blocks, instructions, terminators,
      source lines — renames and literal edits change it; formatting of
      the MC source does not, since the key hashes compiled code);
    - the cost-model identity (machine id, i-cache and optional d-cache
      configuration) and the per-block cost bounds the objective will
      use. Costs capture
      every cross-function influence on the local ILP — code layout,
      line-split refetch penalties from transitively reachable callees —
      so a change elsewhere in the program invalidates this function
      exactly when it changes what this function's solve would see;
    - the loop-bound annotations that apply to the function;
    - the per-entry [wcet, bcet] intervals of its direct callees, in call
      order: a callee edit whose interval is unchanged leaves every
      caller's key (and cached entry) valid.

    Two requests that agree on all of the above share the key and the
    cached per-function result, whatever else differs between them. *)

val schema : int
(** Bumped whenever the serialization or the cached value layout changes;
    part of every key, so stale cache dirs miss instead of mis-hit. *)

val func_key :
  mach:string ->
  cache:Ipet_machine.Icache.config ->
  dcache:Ipet_machine.Icache.config option ->
  costs:Ipet_machine.Cost.bounds array ->
  annotations:Ipet.Annotation.t list ->
  callees:(string * int * int) list ->
  Ipet_isa.Prog.func ->
  string
(** Hex digest for one function's per-entry analysis unit. [mach] is the
    machine id ({!Ipet_machine.Machine.id}) — two machines never share a
    cache entry even when their timings happen to agree. [annotations]
    may be the request's full list — only those naming the function are
    hashed. [callees] are [(name, wcet_per_entry, bcet_per_entry)] for the
    function's direct callees in call-site order. *)

val program_key :
  mach:string ->
  cache:Ipet_machine.Icache.config ->
  dcache:Ipet_machine.Icache.config option ->
  root:string ->
  annotations:Ipet.Annotation.t list ->
  functional:Ipet.Functional.t list ->
  first_miss:bool ->
  Ipet_isa.Prog.t ->
  string
(** Hex digest for a whole-program (monolithic) analysis unit — the
    fallback granularity used when functionality constraints or the
    first-miss refinement couple functions and a per-function
    decomposition would be unsound. [first_miss] is hashed because the
    refinement changes the ILP: without it a request and the same request
    with the refinement would share a key and reject each other's cached
    certificates. *)

val func_bytes :
  mach:string ->
  cache:Ipet_machine.Icache.config ->
  dcache:Ipet_machine.Icache.config option ->
  costs:Ipet_machine.Cost.bounds array ->
  annotations:Ipet.Annotation.t list ->
  callees:(string * int * int) list ->
  Ipet_isa.Prog.func ->
  string
(** The canonical serialization {!func_key} digests — exposed so tests can
    assert that distinct serializations were never observed to collide. *)
