(** Live concurrent plan execution.

    The sequential {!Exec} charges steps one after another, so a query's
    elapsed time equals its total cost. This executor instead runs the
    plan on a {!Fusion_rt.Runtime}: each source query is dispatched the
    moment the source queries feeding it complete, queries at different
    sources proceed concurrently, and queries at the same source queue
    FIFO — a slow mirror delays only the chains that depend on it. The
    result separates [total_cost] (work, identical to the sequential
    executor's) from [makespan] (response time on the runtime's clock).

    On the simulator backend, source queries are issued in plan order,
    so each source sees exactly the request sequence the sequential
    executor would send it. Answers, per-step costs and fault-injection
    draws therefore agree with {!Exec.run} under the same
    {!Exec.policy}; only the clock differs. On a real-clock backend
    ({!Fusion_rt.Runtime.domains}) the plan runs as a concurrent
    dataflow — one fibre per source query, synchronized through its
    inputs — and the clock is the wall; with deterministic sources the
    answer still equals the sequential executor's.

    {b Request coalescing.} When a step needs a selection that an
    earlier step has already put in flight (same source, same condition,
    not yet finished on the simulated clock), it joins the pending
    request instead of issuing its own: one request, one answer, shared.
    A semijoin can join an in-flight {e selection} on its condition and
    intersect the arriving answer with its probe set locally. Coalesced
    steps carry cost 0 and finish when the leader's request does; with a
    {!Exec.Query_cache} attached they are counted as hits, like a
    cached answer would be. *)

open Fusion_data
open Fusion_cond
open Fusion_source

type sched = {
  task : int;
      (** task id of the slot the source call settled on; on the
          default call, the dataflow node id, aligned with
          {!Plan_compile.dataflow} *)
  server : int;  (** serving lane; on the default call, the source index *)
  deps : int list;  (** task ids this query waited on *)
  dispatched : bool;
      (** [false] when the step was answered without occupying the
          source: a cache hit, or joining an in-flight request *)
}
(** Where a source-query step sat in the concurrent schedule. Local
    operations (union, intersection, ...) have no schedule slot. *)

type step = {
  op : Op.t;
  cost : float;  (** actual cost (work) of the step, 0 for local/coalesced ops *)
  result_size : int;
  start : float;  (** when the step began on the simulated clock *)
  finish : float;  (** when its result became available *)
  coalesced : bool;  (** answered by joining another step's in-flight request *)
  sched : sched option;  (** schedule slot, [None] for local operations *)
}

type result = {
  answer : Item_set.t;
  steps : step list;  (** in plan order *)
  total_cost : float;  (** sum of step costs — equals the sequential executor's *)
  makespan : float;  (** finish time of the last step: the response time *)
  busy : float array;  (** accumulated service time per source *)
  timeline : Fusion_net.Sim.timeline;
      (** the dispatched source queries, built from [steps]' schedule
          slots, for {!Fusion_net.Sim.pp_gantt} *)
  failures : int;
  partial : bool;
}

val to_exec_steps : step list -> Exec.step list
(** Forgets the clock, for code that consumes the sequential step shape. *)

val scheduled_of_steps : real:bool -> step list -> Fusion_net.Sim.scheduled list
(** The dispatched source queries among [steps], as the slots their
    runtime calls returned: a simulated slot lasts the step's model
    cost, a measured one ([real]) its wall-clock span. Concatenate the
    slots of many engines on one runtime and apply
    {!Fusion_net.Sim.timeline_of} for the shared network's schedule. *)

(** The incremental face of the executor, for a serving layer that
    multiplexes many queries onto one shared {!Fusion_rt.Runtime}
    network. An engine is a cursor over one plan: local operations are
    evaluated for free the instant their inputs are available, and the
    engine surfaces {e one} source query at a time — the next in plan
    order — for an external scheduler to {!dispatch} when it sees fit.

    Driving a single engine on a private network by dispatching each
    request as soon as it surfaces is exactly {!run}: same answers, same
    costs, same fault draws, same trace. That equivalence is the
    serving layer's correctness anchor. *)
module Engine : sig
  type request = {
    rq_op : Op.t;
    rq_server : int;  (** source index the query must be served by *)
    rq_ready : float;  (** instant its inputs are available *)
    rq_task : int;  (** timeline task id it will be dispatched under *)
  }

  type t

  type call = {
    call :
      'a.
      sched ->
      ready:float ->
      (Source.t -> 'a) ->
      'a option * int * float * Fusion_net.Sim.scheduled;
  }
  (** How the engine issues a source query it must dispatch.
      [call.call sched ~ready query] runs [query] against some source
      for the dataflow node [sched] (its [task] the node id shifted by
      the engine's offset, [server] the plan's source index, [deps] the
      feeding nodes, likewise shifted), no earlier than [ready]. It
      returns the answer ([None] once its attempts are exhausted), the
      number of failed attempts, the cost charged and the slot that
      settled the request. The engine keeps the rest: the
      [`Fail]/[`Partial] decision on [None], the failure count, the
      partial flag, and the step's schedule slot, which takes its task
      id, server and dependencies from the returned slot.

      The default call issues the query on the source's own runtime
      lane, retrying in place up to [policy.retries] times within the
      [deadline] budget. A sharded coordinator supplies its own, which
      routes across replicas instead. *)

  val create :
    ?call:call ->
    ?cache:Exec.Query_cache.t ->
    ?policy:Exec.policy ->
    ?deadline:float ->
    ?answers:Answer_cache.t ->
    ?offset:int ->
    ?base:float ->
    rt:Fusion_rt.Runtime.t ->
    Plan_compile.t ->
    t
  (** An engine over a compiled plan. It keeps its own slot frame, so
      it never touches the compiled plan's sequential scratch; the
      plan's local-selection scans are reused across its runs. Give
      each concurrently live engine its own compiled plan. [answers]
      is the cross-query {!Answer_cache} shared with other engines on
      the same network (a private, TTL-less one if omitted — plain
      per-run request coalescing). [offset] shifts the engine's
      dataflow task ids so timelines of many engines never collide.
      [base] is the instant the query was admitted: no step starts
      before it. [call] issues the source queries (see {!call}; the
      runtime lane by default). [cache], [policy], [deadline] as in
      {!run}; [policy.retries] and [deadline] apply only to the default
      call — a supplied [call] keeps its own budget, and [policy] then
      only decides what an exhausted query does. *)

  val pending : t -> request option
  (** Advances through local operations (evaluating them at their ready
      times) and returns the next source query awaiting dispatch, or
      [None] when the plan has finished. Repeated calls without an
      intervening {!dispatch} are cheap and return the same request. *)

  val dispatch : t -> step
  (** Executes the pending source query: consults the shared answer
      cache (join in flight / reuse cached / miss) and, on a miss,
      issues it through the engine's {!call}, occupying the shared
      network. @raise Invalid_argument if no request is pending. *)

  val finished : t -> bool

  val task_count : t -> int
  (** Number of timeline task ids the engine will use — the next
      engine sharing the network should be created with [offset]
      advanced by this much. *)

  val steps : t -> step list
  (** Steps executed so far, in plan order. *)

  val answer : t -> Item_set.t
  (** @raise Invalid_argument if the plan has not finished. *)

  val failures : t -> int
  val partial : t -> bool
  val total_cost : t -> float

  val finish_time : t -> float
  (** Latest step finish so far ([base] when none executed). *)
end

val run :
  ?cache:Exec.Query_cache.t ->
  ?policy:Exec.policy ->
  ?deadline:float ->
  sources:Source.t array ->
  conds:Cond.t array ->
  Plan.t ->
  result
(** Executes the plan concurrently. [cache] and [policy] behave as in
    {!Exec.run} ([Exec.default_policy] if omitted). [deadline] (default
    [infinity]) is a per-query budget of simulated service time: once a
    source query's attempts have consumed that much, remaining retries
    are forfeited and the {!Exec.policy.on_exhausted} action applies —
    time already spent is still charged. The plan is compiled with
    {!Plan_compile.compile} first.
    @raise Exec.Runtime_error when the plan fails to compile, as
    {!Exec.run} does on an invalid plan.
    @raise Source.Timeout under the [`Fail] policy. *)

val run_on :
  ?cache:Exec.Query_cache.t ->
  ?policy:Exec.policy ->
  ?deadline:float ->
  rt:Fusion_rt.Runtime.t ->
  Plan_compile.t ->
  result
(** {!run} on a caller-supplied runtime and an already compiled plan
    (it must not be running on another engine). On the simulator backend this
    is the oracle execution order (requests dispatched in plan order);
    on a real-clock backend the plan runs as a concurrent dataflow —
    one fibre per source query, an op waiting only for the in-flight
    producers of its own inputs — so [steps] come back in completion
    order and [busy]/[timeline] measure wall-clock seconds. The caller
    keeps ownership of [rt] (shut a domains runtime down when done). *)
