(** Incremental (cache-aware) analysis for the server.

    The monolithic {!Ipet.Analysis.analyze} expands every call path and
    solves one whole-program ILP — the right shape for a one-shot CLI run,
    the wrong shape for a daemon asked to re-analyze a program after a
    one-function edit. This module is a cache layer over
    {!Ipet.Analysis}: it splits a request into {e units} keyed by {!Key},
    gets and puts each unit's result in a {!Cache}, re-validates cached
    certificates, and aggregates the units' witnesses. Every ILP is built,
    solved, certified and checked by {!Ipet.Analysis}, along one solve
    path:

    - {b per-function units} (the common case): every function reachable
      from the root is solved in isolation with its entry edge pinned to 1,
      callees before callers; a call block's objective coefficient folds in
      the callee's per-entry extreme, so the root's per-entry bound is the
      whole-program bound. Because loop-bound constraints are homogeneous
      in the entry count ([lo·e ≤ iter ≤ hi·e]), the per-entry polytope of
      a function instance is the projection of the monolithic one — the
      decomposition reproduces the monolithic bounds exactly whenever the
      monolithic ILP decomposes by instance (empirically: on the whole
      benchmark suite the two agree). A request that edits one function
      re-solves only the units whose keys changed — typically exactly one.
      A unit's witness is the solver's own optimum, not the CLI's
      canonical one.
    - {b one whole-program unit} (fallback): functionality constraints and
      the first-miss refinement couple flow variables across functions, so
      those requests run the monolithic analysis as a single unit keyed by
      {!Key.program_key}.

    Both kinds share one cache record (schema 4): per extreme, the cycles,
    the witness counts keyed by (function, block), the binding constraint
    origins and the serialized certificate. Both go through one report
    path: a function's per-entry counts are scaled by the number of
    entries its callers' witnesses induce, callers first, and the program
    unit, the only unit of its request, enters once. All report content is
    deterministic — a warm re-run of an identical request is
    byte-identical to the cold run. *)

exception Timeout
(** Raised (between unit solves — cooperative, never mid-simplex) when the
    [deadline] passes. *)

type stats = {
  units_total : int;   (** analysis units this request decomposed into *)
  units_cached : int;  (** served from the cache *)
  units_solved : int;  (** actually (re-)solved *)
  ilp_solves : int;    (** ILP solver invocations performed *)
  warm_lp_hits : int;
      (** branch-and-bound nodes re-optimized from a parent basis across
          those solves (0 on a fully cached request) *)
  simplex_pivots : int;
      (** simplex pivots spent on this request's fresh solves *)
  certs_checked : int;
      (** trusted-checker validations run — two per fresh solve (one per
          extreme) and two per cache hit: every bound the engine returns
          was just proven, whether it was computed or recalled *)
  certs_rejected : int;
      (** validations that failed. A rejected fresh certificate aborts the
          request ({!Ipet.Analysis.Analysis_error}); a rejected cached one
          drops the entry and re-solves, so it is self-healing *)
}

val analyze :
  ?pool:Ipet_par.Pool.t ->
  ?cache:Cache.t ->
  ?deadline:float ->
  Ipet.Analysis.spec ->
  Ipet_obs.Json.t * stats
(** Analyze a request, consulting and filling [cache] (no caching when
    omitted). [deadline] is an absolute {!Unix.gettimeofday} instant. The
    returned JSON is the report — schema, root, unit kind, [bcet]/[wcet]
    cycles, witness counts and binding constraints per extreme, and the
    per-unit summary table (name, key, per-entry bounds, entry counts).
    @raise Ipet.Analysis.Analysis_error as the monolithic analysis would
    (missing loop bounds, infeasible constraint sets, ...).
    @raise Timeout when the deadline passes. *)
