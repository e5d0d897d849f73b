(** The IPET timing analysis — the paper's main algorithm.

    For a program, a root function, a micro-architecture configuration,
    loop-bound annotations and optional functionality constraints, the
    analysis:

    + expands per-call-site instances and derives structural constraints;
    + computes per-block cost bounds [c_i] from the machine model;
    + expands the functionality constraints to DNF and prunes null sets;
    + for every surviving conjunctive set, solves one ILP maximizing (WCET)
      or minimizing (BCET) [Σ c_i·x_i];
    + reports the extreme bound over all sets, the witness block counts, and
      the solver statistics of Section VI.

    An estimated bound computed this way always encloses any simulated
    execution of the program whose loop iterations respect the annotations
    (soundness, Fig. 1). *)

exception Analysis_error of string

type spec = {
  prog : Ipet_isa.Prog.t;
  root : string;
  mach : Ipet_machine.Machine.t;
      (** the target micro-architecture supplying issue/stall/terminator
          timings, the default fetch configuration, and the first-miss
          residency predicate (default {!Ipet_machine.Machine.e32}) *)
  cache : Ipet_machine.Icache.config;
  dcache : Ipet_machine.Icache.config option;
      (** when set, loads are bounded by data-cache hit/miss times instead
          of the flat memory latency *)
  loop_bounds : Annotation.t list;
  functional : Functional.t list;
  first_miss_refinement : bool;
      (** Section IV's proposed refinement: inside a loop whose code
          provably stays cache-resident (its address range fits the cache
          and it makes no calls), charge each block its all-hit worst cost
          per execution plus one full line fill per {e loop entry} instead
          of per iteration. Off by default (the paper's baseline model). *)
  presolve : bool;
      (** run {!Ipet_lp.Presolve} on every ILP before the branch and bound
          (on by default); semantics-preserving, only affects solve time
          and the reduction statistics *)
}

val spec :
  ?mach:Ipet_machine.Machine.t ->
  ?cache:Ipet_machine.Icache.config ->
  ?dcache:Ipet_machine.Icache.config ->
  ?loop_bounds:Annotation.t list ->
  ?functional:Functional.t list ->
  ?first_miss_refinement:bool ->
  ?presolve:bool ->
  root:string ->
  Ipet_isa.Prog.t ->
  spec
(** [cache] defaults to the machine's own fetch configuration
    ({!Ipet_machine.Machine.fetch}); passing it explicitly overrides the
    geometry while keeping the machine's timings. *)

type solver_stats = {
  sets_total : int;      (** conjunctive sets after DNF expansion *)
  sets_pruned : int;     (** removed as trivially null *)
  sets_solved : int;     (** ILPs actually handed to the solver *)
  sets_infeasible : int; (** sets the simplex proved empty *)
  lp_calls : int;        (** total LP relaxations over all ILPs *)
  bnb_nodes : int;       (** branch-and-bound nodes over all ILPs *)
  simplex_pivots : int;  (** simplex pivots over all LP calls *)
  refactorizations : int;
      (** basis refactorizations over all LP calls (the revised simplex
          rebuilds its eta-file factorization periodically) *)
  warm_hits : int;
      (** branch-and-bound children re-optimized from the parent basis by
          the dual simplex *)
  warm_misses : int;     (** children that needed a cold fallback solve *)
  all_first_lp_integral : bool;
      (** the paper's observation: every first relaxation was integral *)
  presolve_vars_before : int;
      (** ILP variables handed to presolve, summed over the solved sets;
          when presolve is disabled, the raw problem sizes (and the
          [_after] fields repeat them) *)
  presolve_vars_after : int;   (** variables left for the simplex *)
  presolve_constrs_before : int;
  presolve_constrs_after : int;
  presolve_rounds : int;       (** total presolve fixpoint rounds *)
}

type extreme = {
  cycles : int;
  counts : ((string * int) * int) list;
      (** witness execution counts per (function, block), aggregated over
          instances; zero counts omitted. The witness is canonical: the
          winning ILP is re-solved on its optimal face with a fixed
          pipeline, so among alternate optima the reported counts depend
          only on the problem and the extreme value — not on solver
          configuration such as {!spec.presolve} *)
  binding : string list;
      (** origins of the inequality constraints that are tight at the
          optimum — the loop bounds and path facts that determine this
          extreme (flow equations excluded) *)
}

type certificate = {
  cert : Ipet_cert.Certificate.t;
      (** duals, witness, and digest for the winning constraint set's
          ILP — the problem the reported bound came from *)
  verdict : Ipet_cert.Checker.verdict;
      (** the trusted checker's validation, run eagerly at production *)
  emit_seconds : float;
      (** certificate production time (one LP solve started at the
          witness) *)
  check_seconds : float; (** trusted-checker validation time *)
}

type result = {
  wcet : extreme;
  bcet : extreme;
  wcet_stats : solver_stats;
  bcet_stats : solver_stats;
  wcet_cert : certificate option;  (** present when [certify] was set *)
  bcet_cert : certificate option;
}

val analyze : ?pool:Ipet_par.Pool.t -> ?certify:bool -> spec -> result
(** [pool] (default {!Ipet_par.Pool.default}) fans the disjunctive
    constraint sets out across domains and parallelizes each set's
    branch-and-bound ({!Ipet_lp.Ilp.solve}). The result — bounds,
    witnesses, and every statistic — is bit-identical for any pool size.
    [certify] (default [false]) additionally emits an exact duality
    certificate per extreme (see {!Ipet_cert.Certify}) and validates it
    with the trusted checker; emit and check times are recorded as the
    [cert.emit_seconds] and [cert.check_seconds] histograms.
    @raise Analysis_error when a loop lacks a bound annotation, a
    functionality constraint does not resolve, every constraint set is
    infeasible, the ILP is unbounded, or certificate production fails. *)

(** {1 Building blocks}

    The pieces {!analyze} is made of, for callers that build their own
    ILPs over a subset of instances — the analysis daemon solves each
    function alone, entered once, with its callees' per-entry cycles
    folded into the call blocks' costs. *)

val objective :
  Structural.instance list ->
  cost:(Structural.instance -> Ipet_isa.Prog.block -> int) ->
  Ipet_lp.Linexpr.t
(** [Σ cost·x_i] over every block of every instance; zero-cost blocks are
    omitted. *)

val loop_constraints :
  spec -> Structural.instance list -> Ipet_lp.Lp_problem.constr list
(** The constraints [spec.loop_bounds] put on the loops of [insts].
    @raise Analysis_error naming every loop that has no bound. *)

val solve_extreme :
  ?canonical:bool ->
  pool:Ipet_par.Pool.t ->
  certify:bool ->
  spec ->
  Structural.instance list ->
  Ipet_lp.Lp_problem.t list ->
  extreme * solver_stats * certificate option
(** Solve a non-empty list of same-direction ILPs over [insts] (one per
    constraint set) and return the extreme, its binding constraints, the
    summed solver statistics ([sets_total] is the list length,
    [sets_pruned] 0) and, when [certify], the winning ILP's checked
    certificate. [canonical] (default [true]) re-solves the winner on its
    optimal face for the canonical witness {!extreme.counts} describes;
    [false] keeps the solver's own optimum and skips that re-solve.
    @raise Analysis_error when every ILP is infeasible, one is unbounded,
    or certificate production fails. *)

val estimated_bound : ?pool:Ipet_par.Pool.t -> spec -> int * int
(** [(bcet, wcet)] — the paper's estimated bound [[t_min, t_max]]. *)

type sensitivity_row = {
  annotation : Annotation.t;
  base_wcet : int;
  tightened_wcet : int;  (** WCET with this loop's [hi] reduced by one *)
}

val wcet_sensitivity : ?pool:Ipet_par.Pool.t -> spec -> sensitivity_row list
(** The discrete shadow price of each loop-bound annotation: how much the
    WCET drops if the bound is tightened by one iteration. Zero-impact
    bounds are off the critical path; the largest drop tells the user which
    loop deserves a more precise annotation (or faster code). Re-solves one
    ILP per annotation. *)

(** {1 Introspection} (used by the figure regeneration and the CLI) *)

val structural_constraints : spec -> Ipet_lp.Lp_problem.constr list
val instances : spec -> Structural.instance list

val wcet_objective : spec -> Ipet_lp.Linexpr.t
(** The expression (1): [Σ c_i·x_i] with worst-case costs. *)

val wcet_problems : spec -> Ipet_lp.Lp_problem.t list
(** The complete ILPs the WCET computation solves, one per surviving
    conjunctive constraint set — exportable with {!Ipet_lp.Lp_format}.
    @raise Analysis_error under the same conditions as {!analyze}. *)

val bcet_problems : spec -> Ipet_lp.Lp_problem.t list
(** The minimization counterparts of {!wcet_problems}. *)

val block_costs : spec -> func:string -> Ipet_machine.Cost.bounds array
(** Per-block cost bounds used for the objective. *)
