(** The mediator runtime: end-to-end fusion query processing.

    Registers the sources, accepts queries (as ASTs or SQL text),
    optimizes with a chosen algorithm, executes the plan and accounts
    costs per source. Also implements the "two-phase" processing of
    Section 1: phase 1 computes the matching items, phase 2 fetches
    their full records. *)

open Fusion_data
open Fusion_source
open Fusion_core

type t

val create : ?union:string -> Source.t list -> (t, string) result
(** Fails on an empty source list or disagreeing schemas. [union] names
    the union view for SQL parsing (default ["U"]). *)

val create_exn : ?union:string -> Source.t list -> t

val of_catalog : ?union:string -> string -> (t, string) result
(** Load a federation catalog ({!Fusion_source.Catalog}) and build the
    mediator over it. *)

val schema : t -> Schema.t
val sources : t -> Source.t array

(** How a query is processed, in one place. Every entry point takes one
    optional [?config]; build variations with record update:
    [{ Config.default with Config.algo = Optimizer.Filter }]. Every run
    compiles the chosen plan with {!Fusion_plan.Plan_compile} and
    executes it as one {!Fusion_plan.Exec_async} engine run on
    [runtime]. *)
module Config : sig
  type t = {
    algo : Optimizer.algo;  (** optimization algorithm (default SJA+) *)
    stats : Opt_env.stats_mode;  (** statistics backing the optimizer *)
    cache : Fusion_plan.Exec.Query_cache.t option;
        (** session query cache, shared across runs *)
    retries : int;  (** extra attempts per timed-out source query *)
    on_exhausted : [ `Fail | `Partial ];  (** when retries run out *)
    runtime : Fusion_rt.Runtime.spec;
        (** execution backend for runs and serving: [`Sim] (default)
            is the discrete-event simulator, [`Domains n] executes on a
            real domain pool with wall-clock latencies. *)
  }

  val default : t
  (** SJA+, exact statistics, no cache, no retries ([`Fail]), on the
      simulator. *)

  val policy : t -> Fusion_plan.Exec.policy
  (** The executor fault policy the config denotes. *)
end

type report = {
  algo : Optimizer.algo;
  runtime : Fusion_rt.Runtime.spec;  (** the runtime the run executed on *)
  optimized : Optimized.t;  (** the plan and its estimated cost *)
  answer : Item_set.t;
  actual_cost : float;
      (** total work charged at the sources: the paper's plan cost *)
  response_time : float;
      (** the run's makespan with source queries overlapped: simulated
          time on [`Sim], wall-clock seconds on [`Domains _] *)
  steps : Fusion_plan.Exec.step list;
  per_source : (string * Fusion_net.Meter.totals) list;
      (** actual traffic per source, this query only *)
  failures : int;  (** timed-out requests (retried or not) *)
  partial : bool;  (** answer may be incomplete (see {!Fusion_plan.Exec.result}) *)
  critical_path : Fusion_obs.Analyze.path;
      (** the dependency/queue chain that set [response_time] *)
  cost_drift : float;
      (** [actual_cost /. est_cost]: how honest the optimizer's cost
          model was on this run (NaN when the estimate was 0) *)
  trace : Fusion_obs.Trace.span list;
      (** the spans this run recorded, rooted at its
          [mediator.run] span; [[]] when tracing is off *)
}

(** The planning head of {!run} and {!Server}, reusable on its own:
    validated, normalized query plus its conditions and chosen plan.
    {!Fusion_dist.Coordinator} scatters exactly this plan to its
    shards, which is what makes the single-mediator [run] its
    correctness oracle. *)
type prepared = {
  prep_query : Fusion_query.Query.t;  (** normalized *)
  prep_conds : Fusion_cond.Cond.t array;  (** the plan's condition table *)
  prep_optimized : Optimized.t;
}

val plan_for :
  ?algo:Optimizer.algo ->
  ?stats:Opt_env.stats_mode ->
  t ->
  Fusion_query.Query.t ->
  (prepared, string) result
(** Validate → normalize → build statistics → optimize, without
    executing anything. Defaults match {!Config.default}. Always
    optimizes afresh; {!Server} puts its prepared-plan table in front
    of the same head. *)

(** The execution-shaped slice of a {!report}. *)
type execution = {
  x_answer : Item_set.t;
  x_steps : Fusion_plan.Exec.step list;
  x_cost : float;
  x_response_time : float;
  x_failures : int;
  x_partial : bool;
  x_critical_path : Fusion_obs.Analyze.path;
}

val execute :
  ?config:Config.t ->
  t ->
  conds:Fusion_cond.Cond.t array ->
  Fusion_plan.Plan.t ->
  (execution, string) result
(** The execution half of {!run}, for an already chosen plan (the
    optimizer's, or a pinned plan text): resets the source meters,
    compiles the plan once and runs it on an engine over
    [config]'s runtime, with its cache and retry policy. A plan that fails {!Fusion_plan.Plan_compile.compile}
    (out-of-range index, undefined or mistyped variable) is an
    [Error], as are unsupported source operations and, under [`Fail],
    unreachable sources. *)

val run : ?config:Config.t -> t -> Fusion_query.Query.t -> (report, string) result
(** Optimize and execute under [config] ({!Config.default} if omitted).
    The query is {!Fusion_query.Query.normalize}d first, so duplicate or
    trivial conditions never cost a round. Source meters are reset
    before execution, so [per_source] reflects just this run. Pass the
    same [Config.cache] across the queries of a session to reuse
    selection answers for repeated conditions (Section 5's common
    subexpressions). Whatever span collector is active (install one
    with {!Fusion_obs.Trace.with_collector}) fills [report.trace]. *)

val run_sql : ?config:Config.t -> t -> string -> (report, string) result
(** Parses the SQL text against the mediator's schema and union-view
    name, requires it to be a fusion query, then behaves like {!run}. *)

type records = { tuples : Tuple.t list; fetch_cost : float }

type rows = {
  report : report;  (** the phase-1 run *)
  columns : string list;  (** merge attribute first, then the projection *)
  rows : Value.t list list;  (** deduplicated, in merge-value order *)
  fetch_cost : float;  (** phase 2 *)
}

val select_sql : ?config:Config.t -> t -> string -> (rows, string) result
(** The full two-phase pipeline for projected fusion queries
    ([SELECT u1.M, u1.A, ... FROM ...]): phase 1 computes the matching
    items with the chosen algorithm, phase 2 fetches their records and
    projects the requested attributes — one row per distinct projected
    record of an answer item. A merge-only select list skips phase 2. *)

val fetch_phase2 : t -> Item_set.t -> records
(** Phase 2: pull the full records of the answer items from every
    source. *)

val two_phase :
  ?config:Config.t -> t -> Fusion_query.Query.t -> (report * records, string) result
(** Phase 1 ({!run}) followed by {!fetch_phase2} on its answer. *)

val single_phase_cost : t -> Fusion_query.Query.t -> float
(** Cost of the naive one-phase strategy the paper's two-phase approach
    avoids: every condition pushed to every source with answers shipped
    as {e full tuples} rather than items. *)

val pp_duration : Fusion_rt.Runtime.spec -> Format.formatter -> float -> unit
(** A duration as the runtime measures it: simulated time units with
    one decimal on [`Sim], wall-clock milliseconds with the unit on
    [`Domains _]. *)

val pp_report : Format.formatter -> report -> unit

(** Serving mode: many queries multiplexed onto one shared network
    through {!Fusion_serve.Server}. Each submission is validated,
    normalized and optimized exactly as {!run} would ([Config.algo],
    [Config.stats], retry policy all honored); the optimizer's cost
    estimate becomes the job's scheduling weight ([Sjf]) and
    admission-control signal. A single submitted query served under
    the [Fifo] policy executes byte-identically to [run ~config]
    without a [Config.cache].

    {b Prepared plans.} Submissions and subscriptions share one
    planning head ({!plan_for}'s) behind a prepared-plan table. Its key
    is the normalized query, compared structurally; an entry holds the
    conditions, the plan and its estimate, and the relation version of
    every source when it was optimized. A statement reuses the entry
    only while all those versions are unchanged — any delta to any
    source makes it stale, and the next submission optimizes afresh.
    Under [Exact] and [Histogram] statistics the optimizers are
    deterministic functions of the relation contents, so a reused plan
    is exactly the one a fresh {!plan_for} returns. [Sampled]
    statistics draw from a shared generator: every submission draws
    fresh statistics and the table is bypassed. The table is flushed
    whole when it reaches 1024 statements, so a server that never sees
    a statement twice holds bounded state. Compilation stays per
    admission: every live engine needs its own compiled plan. *)
module Server : sig
  type mediator := t

  type t

  val create :
    ?config:Config.t ->
    ?policy:Fusion_serve.Server.policy ->
    ?max_inflight:int ->
    ?cache_ttl:float ->
    ?versioned_cache:bool ->
    ?window:float ->
    ?slow_log:Fusion_serve.Slow_log.t ->
    mediator ->
    t
  (** [config] drives per-submission optimization and the retry policy
      ({!Config.default} if omitted). Its [cache] field is ignored:
      served answers are reused through the server's own answer cache
      ([cache_ttl]). Remaining options as in
      {!Fusion_serve.Server.create}. *)

  val submit :
    t ->
    at:float ->
    ?tenant:string ->
    ?priority:int ->
    ?deadline:float ->
    ?label:string ->
    Fusion_query.Query.t ->
    (int, string) result
  (** Plans the query (reusing a prepared plan when no source changed)
      and enqueues it at simulated instant [at];
      returns the submission id. The result arrives through the
      underlying server's {!Fusion_serve.Server.on_complete} hooks
      (the completion's [c_job] carries the chosen plan and estimate);
      nothing is kept per submission. [tenant] defaults to ["default"],
      [priority] to 0. [label] is carried into the slow-query log
      ({!submit_sql} passes the SQL text). *)

  val submit_sql :
    t ->
    at:float ->
    ?tenant:string ->
    ?priority:int ->
    ?deadline:float ->
    string ->
    (int, string) result

  val subscribe :
    t ->
    ?tenant:string ->
    ?label:string ->
    Fusion_query.Query.t ->
    (int, string) result
  (** Registers a standing query: the same planning head and
      prepared-plan table as {!submit}, but the chosen plan is maintained
      incrementally (see {!Fusion_serve.Server.subscribe}) and answer
      diffs are pushed through the server's [on_push] hooks whenever
      {!mutate} changes the answer. Returns the subscription id. *)

  val subscribe_sql : t -> ?tenant:string -> string -> (int, string) result
  (** Parses the SQL text (carried as the subscription label), then
      behaves like {!subscribe}. *)

  val unsubscribe : t -> int -> bool

  val mutate :
    t -> source:string -> Fusion_delta.Delta.t -> (Fusion_delta.Delta.applied, string) result
  (** Applies a source delta by source name
      ({!Fusion_serve.Server.mutate}): mutates the wrapped relation,
      patches/invalidates the shared answer cache, and pushes diffs to
      subscribers. *)

  val mutate_line :
    t -> source:string -> string -> (Fusion_delta.Delta.applied, string) result
  (** Parses the delta payload against the source's schema
      ({!Fusion_delta.Delta.parse} syntax: [+row;-row;...]), then
      {!mutate} — the TCP front end's [mut] command. *)

  val step : t -> bool
  val drain : t -> unit
  val stats : t -> Fusion_serve.Server.stats

  type prepared_stats = {
    lookups : int;  (** statements planned through the table *)
    hits : int;  (** reused a current prepared plan *)
    stale : int;  (** found a plan some source delta had outdated *)
    entries : int;  (** statements held now (at most 1024) *)
  }

  val prepared_stats : t -> prepared_stats
  (** The prepared-plan table's counters. Under [Sampled] statistics
      nothing is looked up. *)

  val publish_metrics : t -> unit
  (** {!Fusion_serve.Server.publish_metrics}, plus the prepared-plan
      table as [fusion_prepared_lookups_total], [_hits_total] and
      [_stale_total] counters and the [fusion_prepared_entries] gauge
      into the installed registry — for a pre-scrape refresh hook. *)

  val runtime : t -> Fusion_rt.Runtime.t
  (** The execution runtime serving this server's queries. *)

  val shutdown : t -> unit
  (** Joins the runtime's worker domains (no-op on the simulator).
      Call after the final {!drain}. *)

  val serve : t -> Fusion_serve.Server.t
  (** The underlying server, for timelines, tenant stats, sheds, and
      cache stats. *)

  val mediator : t -> mediator
end
