(** Exact-rational LP solving — the front door to the sparse revised
    simplex ({!Revised}).

    Solves {!Lp_problem.t} instances (all variables implicitly
    non-negative). Bland's anti-cycling rule guarantees termination, and
    all arithmetic is exact, so the solver either returns a true optimum
    or a correct infeasible/unbounded verdict. The pivot trajectory is
    identical to the historical dense tableau ([Ipet_lp_dense.Dense],
    kept outside this library as the differential oracle of the tests
    and of [bench lp]), so results — including the particular optimal
    vertex returned — are unchanged; only the cost per pivot is: the
    constraint matrix is held as sparse columns and the basis inverse as
    an eta-file factorization with periodic refactorization. *)

open Ipet_num

type result =
  | Optimal of { value : Rat.t; assignment : (string * Rat.t) list }
      (** Optimal objective value and one optimal vertex; variables absent
          from [assignment] are zero. *)
  | Infeasible
  | Unbounded

val solve :
  ?vars:string list -> ?pivots:int ref -> ?refactors:int ref ->
  Lp_problem.t -> result
(** [vars], when given, must be {!Lp_problem.variables} of the problem (or
    a sorted superset of it); callers that solve many closely related
    problems — {!Ilp.solve}'s branch-and-bound nodes — pass it to avoid
    recomputing the sort-dedup per LP call.

    [pivots], when given, is incremented by the number of simplex pivots
    (basis changes) this call performed (phase 1 and 2 combined);
    [refactors] likewise by the number of basis refactorizations. This is
    the domain-safe way to attribute solver effort to one solve: reading
    a before/after delta of {!pivots} counts other domains' concurrent
    work. *)

val assignment_env : (string * Rat.t) list -> string -> Rat.t
(** Turn an assignment into a total environment (absent variables are 0).
    Backed by a hash table built once, so lookups are O(1) — this closure
    is hot in postsolve and witness checking. *)

val record : ?pivots:int ref -> ?refactors:int ref -> Revised.run -> unit
(** Fold a {!Revised} run's pivot/refactorization counts into the global
    counters (and the per-solve refs, when given). {!solve} does this
    itself; callers that drive {!Revised} directly — {!Ilp.solve}'s
    warm-started branch-and-bound nodes, the certificate producer — must
    call it once per run so
    {!pivots} keeps counting every pivot in the process. *)

val pivots : unit -> int
(** Cumulative simplex pivots performed by this process across all
    domains, phase 1 and 2 combined. Updated once per solve, after the
    fact; for per-solve attribution pass [?pivots] to {!solve} instead of
    reading deltas. *)

val refactorizations : unit -> int
(** Cumulative basis refactorizations, with the same accounting contract
    as {!pivots}. *)
