(** Rendering a metrics registry (and span aggregates) for humans and
    machines.

    Three formats share one source of truth:
    - {!human} — one [name{label=v,...} value] line per metric, sorted,
      for terminal output ([--lp-stats] and friends); histograms include
      p50/p90/p99 quantile estimates (see {!Metrics.quantile});
    - {!metrics_json} — a versioned JSON document with every metric and
      optional per-span-name duration aggregates, written by
      [--metrics-out]. Keys are emitted in sorted order, so two runs of
      the same workload produce documents that differ only in the observed
      values (and not at all under a deterministic clock);
    - {!prometheus} — the Prometheus text exposition format, served by the
      daemon's [metrics] op for scraping. Dotted names map to underscores;
      histograms render as summaries (quantile-labeled samples plus
      [_sum]/[_count]). *)

val human : ?filter:(string -> bool) -> Metrics.t -> string
(** Render the registry as text; [filter] selects metric names
    (default: all). *)

val metrics_doc :
  ?span_totals:(string * (int * int)) list -> Metrics.t -> Json.t
(** The machine document: [{"version": 1, "metrics": [...], "spans": [...]}].
    [span_totals] is {!Span.totals} output: per-name completion counts and
    total microseconds. Values are exact: a gauge or histogram figure
    reads back as the float that was recorded. *)

val metrics_json :
  ?span_totals:(string * (int * int)) list -> Metrics.t -> string
(** {!metrics_doc} rendered by {!Json.to_string_lines}: one metric per
    line under the ["version": 1] header. *)

val prometheus : Metrics.t -> string
(** Render the registry in the Prometheus text exposition format: a
    [# TYPE] line per metric family (counter/gauge/summary) followed by
    its samples, in registry (sorted) order. *)

val write_file : string -> string -> unit
(** Create/truncate a file with the given content. *)
