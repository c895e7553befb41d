(** Multi-query serving on one shared network.

    Where {!Fusion_plan.Exec_async} runs {e one} plan on a private
    network, a server multiplexes many concurrently executing fusion
    queries onto a single {!Fusion_rt.Runtime}: each admitted query
    is compiled ({!Fusion_plan.Plan_compile}) and run by an
    {!Fusion_plan.Exec_async.Engine}, and the server's event
    loop plays scheduler — at every {!step} it either admits the next
    arrival or dispatches the pending source request its {!policy}
    ranks first onto the shared per-source FIFO queues. On the
    simulator backend (the default) time is the discrete-event clock;
    with a {!Fusion_rt.Runtime.domains} runtime the same scheduling
    decisions drive real concurrent execution ({!pump}) and the clock
    is the wall.

    {b Scheduling policies.} [Fifo] serves requests in ready-time
    order; [Priority] prefers higher {!job.priority}; [Fair_share]
    prefers the tenant that has consumed the least service cost so
    far; [Sjf] prefers the query with the smallest optimizer cost
    estimate.

    {b Admission control.} A submission is shed rather than admitted
    when the in-flight population is at [max_inflight]
    ({!Queue_full}), or when its {!job.deadline} cannot be met even
    optimistically — worst-case source backlog at arrival plus the
    optimizer's estimate already exceeds the budget
    ({!Deadline_unmeetable}).

    {b Cross-query caching.} All engines share one
    {!Fusion_plan.Answer_cache}: identical selections overlapping in
    time are coalesced into one source request, and — when
    [cache_ttl] is set — recently completed answers are replayed with
    their staleness accounted.

    {b Invariants.} Conservation,
    [submitted = queued + in_flight + completed + shed], holds after
    every step; after {!drain}, [queued = in_flight = 0]. And a lone
    query served under [Fifo] (no TTL) executes byte-identically to
    {!Fusion_plan.Exec_async.run} — same answers, costs, and
    fault-injection draws. Both are pinned by tests. *)

open Fusion_data
open Fusion_cond
open Fusion_source

type policy = Fifo | Priority | Fair_share | Sjf

val policy_name : policy -> string
val policy_of_name : string -> policy option
val all_policies : policy list

type job = {
  plan : Fusion_plan.Plan.t;
  conds : Cond.t array;
  tenant : string;
  priority : int;  (** higher is served earlier under [Priority] *)
  est_cost : float;  (** optimizer estimate; drives [Sjf] and admission *)
  deadline : float option;  (** response-time budget from submission *)
  label : string;
      (** human-readable descriptor — the SQL text when the job came
          through the front end; recorded in the slow-query log.
          [""] if none. *)
}

type shed_reason = Queue_full | Deadline_unmeetable

val shed_reason_name : shed_reason -> string

type completion = {
  c_id : int;
  c_job : job;
  c_submitted : float;
  c_finished : float;
  c_response : float;  (** [c_finished - c_submitted] *)
  c_cost : float;  (** total service cost charged *)
  c_answer : Item_set.t option;  (** [None] when execution failed *)
  c_failed : string option;
      (** why the job failed: a source timeout under [`Fail], or a plan
          that fails {!Fusion_plan.Plan_compile.compile} at admission *)
  c_partial : bool;  (** gave up on some source under [`Use_partial] *)
  c_steps : Fusion_plan.Exec_async.step list;
}

type shed = { s_id : int; s_job : job; s_at : float; s_reason : shed_reason }

type subscription_info = {
  si_id : int;
  si_tenant : string;
  si_label : string;
  si_pushes : int;  (** non-empty diffs pushed so far *)
  si_answer_size : int;  (** current maintained answer cardinality *)
}

type push = {
  pu_sub : int;  (** subscription id *)
  pu_tenant : string;
  pu_label : string;
  pu_seq : int;  (** per-subscription push sequence, 1-based *)
  pu_change : Fusion_delta.Change.t;  (** the answer diff *)
  pu_rows : int;
      (** the post-change answer's row count — what the wire protocol
          renders; {!subscription_answer} builds the full set on demand *)
  pu_at : float;
}

type delta_stats = {
  ds_batches : int;  (** delta batches applied via {!mutate} *)
  ds_inserts : int;
  ds_deletes : int;
  ds_pushes : int;  (** non-empty diffs pushed across all subscriptions *)
  ds_subscribers : int;  (** currently registered standing queries *)
}

type stats = {
  submitted : int;
  queued : int;
  in_flight : int;
  completed : int;
  shed : int;
}

type tenant_stats = {
  ts_submitted : int;
  ts_completed : int;
  ts_shed : int;
  ts_consumed : float;  (** service cost dispatched for the tenant *)
  ts_summary : Fusion_obs.Summary.t;
      (** one run per completion; latency percentiles, cost drift *)
  ts_window : Fusion_obs.Window.t;
      (** sliding-window response times (see [window] in {!create});
          snapshot with the server's {!now} for live percentiles *)
}

type t

val create :
  ?policy:policy ->
  ?max_inflight:int ->
  ?cache_ttl:float ->
  ?versioned_cache:bool ->
  ?exec_policy:Fusion_plan.Exec.policy ->
  ?window:float ->
  ?slow_log:Slow_log.t ->
  ?rt:Fusion_rt.Runtime.t ->
  Source.t array ->
  t
(** [policy] defaults to [Fifo]; [max_inflight] (default 64) caps the
    concurrently executing queries; [cache_ttl] enables replay of
    completed answers (omitted: in-flight coalescing only);
    [exec_policy] is the per-source-query retry policy
    ({!Fusion_plan.Exec.default_policy} if omitted). [versioned_cache]
    switches the shared answer cache to source-version staleness
    accounting (see {!Fusion_plan.Answer_cache}): entries are patched
    or invalidated by {!mutate} and version-matching replays report an
    exact staleness of zero. [rt] is the execution runtime (a private simulated network if omitted);
    the caller keeps ownership — shut a domains runtime down after the
    server is drained. [window] (default 60) is the per-tenant
    sliding-window length in server-clock seconds (see
    {!tenant_stats.ts_window}); [slow_log], when given, receives every
    completion slower than its threshold.
    @raise Invalid_argument if [max_inflight < 1] or [window <= 0]. *)

val submit : t -> at:float -> job -> int
(** Enqueues an arrival at simulated instant [at]; returns its id.
    Admission control runs when the event loop reaches the arrival,
    not at submission. @raise Invalid_argument on a negative [at]. *)

val step : t -> bool
(** One scheduling decision: retire finished queries, then admit the
    next arrival or dispatch the best pending request. [false] when
    there is nothing left to do. *)

val drain : t -> unit
(** Runs until idle: every submission completed or shed. On the
    simulator this steps the event loop; on a real-clock runtime it
    runs {!pump} under the runtime's fibre scheduler. *)

val pump : t -> stop:(unit -> bool) -> unit
(** The real-clock event loop: the same scheduling decisions as
    {!step}, but each dispatch runs as a fibre suspended for the
    request's wall time while the loop keeps serving other engines —
    queries genuinely overlap and the policy still picks who goes
    next. Returns once [stop ()] holds {e and} the server is idle;
    {!submit} (from a concurrent fibre) nudges a waiting pump, so a
    front end can keep feeding it. Must run inside the runtime's fibre
    scheduler (see {!Fusion_rt.Runtime.run}). *)

val nudge : t -> unit
(** Wakes a blocked {!pump} so it re-evaluates its stop condition.
    {!submit} nudges implicitly; a front end whose stop condition
    advances outside the serving layer — e.g. a statement answered
    synchronously from its own reader fibre — must nudge explicitly,
    or an idle pump sleeps through its own quota. *)

val on_complete : t -> (completion -> unit) -> unit
(** Hooks run at each completion, in registration order — a
    closed-loop driver submits the next query from here. The hooks are
    the only way to a completion record: the server counts finished
    jobs but keeps none of them (see {!Driver.collect} for batch
    callers that want the list). *)

val on_shed : t -> (shed -> unit) -> unit
(** Hooks run at each shed, in registration order — a front end
    reports the rejection to the submitting client from here. Like
    completions, sheds are counted, not kept. *)

(** {1 Standing queries and source deltas}

    A subscription registers a plan for {e incremental maintenance}:
    the server evaluates it once locally, and every {!mutate} batch
    updates the maintained answer in time proportional to the delta
    (the {!Fusion_delta} rules), pushing a non-empty answer diff to the
    {!on_push} hooks. Mutations also patch or invalidate the shared
    answer cache, so one-shot queries never see pre-delta answers. *)

val subscribe :
  t ->
  tenant:string ->
  ?label:string ->
  conds:Cond.t array ->
  Fusion_plan.Plan.t ->
  (int, string) result
(** Registers a standing query (plan + conditions, as in {!job});
    returns the subscription id. Fails when the plan does not validate
    against the conditions and sources. *)

val unsubscribe : t -> int -> bool
(** Removes a subscription; [false] when the id is unknown. *)

val subscriptions : t -> subscription_info list
(** Live subscriptions, in registration order. *)

val subscription_answer : t -> int -> Item_set.t option
(** The current maintained answer of a subscription. *)

val on_push : t -> (push -> unit) -> unit
(** Hooks run at each pushed answer diff, in registration order — the
    TCP front end forwards these to subscribed clients. *)

val mutate : t -> source:string -> Fusion_delta.Delta.t -> (Fusion_delta.Delta.applied, string) result
(** Applies a source delta (by source name): mutates the wrapped
    relation, patches or invalidates affected answer-cache entries,
    propagates through every subscription, and pushes diffs. Records
    [fusion_delta_*] metrics. Fails on an unknown source name. *)

val delta_stats : t -> delta_stats

val stats : t -> stats
val conservation_ok : stats -> bool
(** [submitted = queued + in_flight + completed + shed]. *)

val tenants : t -> (string * tenant_stats) list
(** Sorted by tenant name. *)

val policy : t -> policy

val window_span : t -> float
(** The per-tenant sliding-window length, in server-clock seconds. *)

val slow_log : t -> Slow_log.t option
(** The slow-query log passed at creation, if any. *)

val shed_counts : t -> int * int
(** Sheds so far as [(queue_full, deadline_unmeetable)] — the
    admission-control breakdown [/statusz] reports. *)

val publish_metrics : t -> unit
(** Publishes the server's live state as gauges into the installed
    {!Fusion_obs.Metrics} registry (no-op when none is installed):
    [fusion_serve_queued], [fusion_serve_in_flight], shed counts by
    reason, and per-tenant sliding-window percentiles
    ([fusion_serve_window_p50/p90/p99{tenant=...}], plus the window
    sample count). Cumulative [fusion_serve_*_total] counters are
    recorded incrementally as events happen; call this before a scrape
    for the point-in-time view. *)

val dictionary : t -> Fusion_data.Intern.t option
(** The dictionary scope of the server's relations (the catalog scope
    when all sources were loaded from one catalog); [None] for an empty
    source array. *)

val dictionary_size : t -> int
(** Distinct merge-attribute equality classes in {!dictionary}; also
    exported as the [fusion_serve_dictionary_size] gauge. 0 when there
    are no sources. *)

val runtime : t -> Fusion_rt.Runtime.t
val timeline : t -> Fusion_net.Sim.timeline
(** {!Fusion_rt.Runtime.timeline}: the shared network's schedule on the
    simulator; on a real-clock runtime no events (only the makespan) —
    rebuild that schedule from the completions' [c_steps] with
    {!Fusion_plan.Exec_async.scheduled_of_steps}. *)

val busy : t -> float array
val cache_stats : t -> Fusion_plan.Answer_cache.stats
val now : t -> float
(** Latest instant the server acted at. *)

val pp_stats : Format.formatter -> stats -> unit
(** The conservation line:
    [conservation: submitted N = completed C + shed S + in-flight I + queued Q]. *)
