(** The execution runtime: one request-dispatch signature, two
    backends.

    Executors issue every source request through {!call}; the backend
    decides what a call {e costs}:

    - {!sim} — the discrete-event simulator. The thunk runs
      synchronously, reports the model cost it consumed, and that cost
      becomes the task's service duration on the simulated per-server
      FIFO network (the incremental face of {!Fusion_net.Sim.run}):
      deterministic answers, costs and timelines (the oracle for the
      equivalence tests).
    - {!domains} — real concurrency. The thunk runs on an OCaml 5
      domain pool with one FIFO lane per server (a source answers one
      query at a time, matching the simulator's queueing model) and the
      timeline records measured wall-clock seconds since the runtime's
      epoch. Callers suspend as {!Fiber} fibres, or block their domain
      when called outside a scheduler.

    A runtime must be driven from one domain (cooperative fibres are
    fine; its bookkeeping is not locked). Wall-clock observations for
    cost-model calibration accumulate via {!observe} and feed
    [Fusion_cost.Calibration.fit]. *)

type t

type spec = [ `Sim | `Domains of int ]
(** How to build a runtime; [`Domains 0] means "default pool size"
    ({!default_domains}). *)

val spec_of_string : string -> (spec, string) result
(** Parses ["sim"], ["domains"], or ["domains:N"] (CLI syntax). *)

val spec_name : spec -> string

(** {1 Constructors} *)

val sim : servers:int -> t
(** A fresh simulated network with [servers] FIFO servers. *)

val domains : ?domains:int -> servers:int -> unit -> t
(** A real-concurrency runtime: a pool of [domains] worker domains
    (default {!default_domains}) serving one lane per server. Call
    {!shutdown} when done. *)

val of_spec : ?domains:int -> spec -> servers:int -> t
(** [?domains] overrides [`Domains 0]'s default pool size. *)

val default_domains : unit -> int

(** {1 Introspection} *)

val spec : t -> spec
val name : t -> string

val is_real : t -> bool
(** [true] for wall-clock backends (timelines measure seconds, not
    model cost units). *)

val server_count : t -> int

val now : t -> float
(** Simulator: the latest instant any server is busy until. Domains:
    wall-clock seconds since the runtime's epoch. *)

val free_at : t -> int -> float
(** Simulator: exact. Domains: predicted from outstanding calls times a
    smoothed call duration — an admission-control signal, not a
    schedule. *)

val backlog : t -> at:float -> float array
(** Per-server [max 0 (free_at - at)] (see {!free_at}). *)

val busy : t -> float array
(** Accumulated service time per server (model cost units or measured
    seconds). *)

val dispatched : t -> int

val timeline : t -> Fusion_net.Sim.timeline
(** Simulator: every booked request, in start order. Domains: no
    events — the backend keeps no record per request, so its memory
    does not grow with the requests answered — and the latest finish
    observed as the makespan. A caller that needs a real-clock schedule
    keeps the slots {!call} returns ({!Fusion_net.Sim.timeline_of}
    orders them). *)

val pool_stats : t -> Pool.stats option
(** The domains backend's pool counters; [None] on the simulator. *)

val publish_metrics : t -> unit
(** Publishes the runtime's operational state into the installed
    {!Fusion_obs.Metrics} registry (no-op when none is installed):
    [fusion_rt_pool_*] gauges from {!pool_stats}, per-server
    [fusion_rt_server_pending], fibre-scheduler gauges
    ([fusion_rt_fibres_live], [fusion_rt_run_queue],
    [fusion_rt_poll_wait_seconds], …) when called from inside a
    {!Fiber} scheduler, and [Gc.quick_stat] gauges
    ([fusion_rt_gc_*]). Call it periodically — e.g. from the admin
    front's pre-scrape refresh hook. *)

(** {1 Execution} *)

val call :
  t ->
  id:int ->
  server:int ->
  ready:float ->
  deps:int list ->
  (unit -> 'a * float * bool) ->
  'a * Fusion_net.Sim.scheduled
(** [call t ~id ~server ~ready ~deps thunk] issues one source request.
    The thunk performs the actual source interaction and returns
    [(value, model_cost, book)]; requests to one server never overlap
    (FIFO on both backends). On the simulator the request is dispatched
    at [max ready (free_at server)] for [model_cost] time units —
    unless [book] is false, in which case the timeline is left
    untouched (the sequential oracle raises on [`Fail] exhaustion
    before its failed attempt is ever booked). On domains the thunk
    runs on the server's pool lane, [book]/[ready] are moot, and the
    returned slot holds measured wall-clock start/finish; only the
    caller keeps it (see {!timeline}). Exceptions from the thunk
    propagate to the caller. *)

val run : t -> (unit -> 'a) -> 'a
(** Enters the runtime's execution context: on domains, runs [fn] under
    a {!Fiber} scheduler (no-op if already inside one); on the
    simulator, just calls it. *)

val shutdown : t -> unit
(** Joins the domains backend's pool; no-op on the simulator. *)

(** {1 Wall-clock calibration} *)

val observe : t -> server:int -> totals:Fusion_net.Meter.totals -> wall:float -> unit
(** Records one request's meter delta and measured wall seconds
    (domains backend only; no-op on the simulator). *)

val observations : t -> (int * Fusion_net.Meter.totals * float) list
(** Everything observed so far, oldest first: [(server, meter delta,
    wall seconds)] — the raw material for
    [Fusion_cost.Calibration.fit] against real latencies. *)
