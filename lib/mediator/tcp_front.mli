(** A line-oriented TCP front end over the serving stack.

    Clients send one fusion SQL statement per line and receive one
    response line per statement:

    {v ok id=<n> rows=<k> cost=<c> response=<secs> partial=<b> items=<v,...>
shed id=<n> reason=<queue-full|deadline-unmeetable>
error [id=<n>] <message> v}

    Every statement passes through the mediator's optimizer and the
    serving layer's admission control, scheduling policy and shared
    answer cache ({!Fusion_serve.Server}); execution runs on the
    runtime's worker domains and all reported times are wall-clock
    seconds. A line longer than 64 KiB is answered with an [error] and
    its connection is closed once earlier statements are answered.

    {b Continuous queries.} Three non-SQL statements drive the standing
    query machinery (each still answered with exactly one response
    line):

    {v sub <fusion SQL>      -> sub id=<n> rows=<k> items=<v,...>
unsub <id>            -> unsub id=<n>
mut <source> <+row;-row;...>
                      -> mut source=<s> inserted=<i> deleted=<d> missed=<m> version=<v> v}

    A [sub] registers the statement for incremental maintenance
    ({!Mediator.Server.subscribe_sql}) and replies with the initial
    answer; afterwards, every [mut] (from {e any} connection) that
    changes the subscription's answer pushes an extra, asynchronous
    line to the subscribing connection:

    {v push id=<n> seq=<k> rows=<r> added=<v,...> removed=<v,...> v}

    Subscriptions are owned by their connection and are removed when it
    disconnects. A [mut] parses its payload against the named source's
    schema ({!Fusion_delta.Delta.parse}), applies it to the wrapped
    relation, patches or invalidates the shared answer cache, and
    propagates through every subscription. *)

type report = {
  connections : int;  (** connections accepted *)
  received : int;  (** SQL lines taken for processing *)
  rejected : int;  (** lines that failed to parse or optimize, or ran over 64 KiB *)
  stats : Fusion_serve.Server.stats;  (** serving-layer conservation stats *)
  observations : (int * Fusion_net.Meter.totals * float) list;
      (** per-request [(server, meter delta, wall seconds)], the raw
          material for [Fusion_cost.Calibration.fit] *)
}

val sockaddr_to_string : Unix.sockaddr -> string

val sockaddr_of_string : string -> (Unix.sockaddr, string) result
(** Parses ["HOST:PORT"]; the host may be a dotted quad or a name. *)

val serve :
  ?config:Mediator.Config.t ->
  ?policy:Fusion_serve.Server.policy ->
  ?max_inflight:int ->
  ?cache_ttl:float ->
  ?versioned_cache:bool ->
  ?max_queries:int ->
  ?window:float ->
  ?slow_threshold:float ->
  ?admin:Unix.sockaddr ->
  ?admin_on_listen:(Unix.sockaddr -> unit) ->
  ?on_listen:(Unix.sockaddr -> unit) ->
  listen:Unix.sockaddr ->
  Mediator.t ->
  (report, string) result
(** Binds [listen] and serves until [max_queries] statements have been
    responded to (forever when omitted), then flushes every
    connection, closes them, and joins the runtime's worker domains.
    [on_listen] fires with the bound address right after [listen]
    succeeds — with port 0 that is where the kernel-chosen port
    appears (and a test can release a waiting client thread).
    [config.runtime] must be a real-clock backend ([`Domains _]);
    [`Sim] is an error — a socket cannot wait on a simulated clock.
    [policy], [max_inflight], [cache_ttl], [versioned_cache] as in
    {!Fusion_serve.Server.create}.

    {b Observability.} [admin] additionally binds an {!Admin_front}
    listener on the same fibre scheduler ([/metrics], [/healthz],
    [/statusz]; [admin_on_listen] reports its bound address). When no
    {!Fusion_obs.Metrics} registry is installed, one is installed so
    the scrape is never empty; a daemon republishes point-in-time
    runtime/serving gauges every second and before every scrape.
    [/statusz]'s [prepared] object and the [fusion_prepared_*]
    counters report the prepared-plan table
    ({!Mediator.Server.prepared_stats}).
    [window] is the per-tenant sliding-window span in seconds (default
    60) behind the live percentiles; [slow_threshold] enables the
    structured slow-query log ({!Fusion_serve.Slow_log}) surfaced on
    [/statusz], recording every query slower than that many seconds
    with its SQL text, plan shape, per-source breakdown and critical
    path. *)

val client :
  ?retries:int ->
  connect:Unix.sockaddr ->
  string list ->
  (string list, string) result
(** Sends each statement on its own line and collects one response
    line per statement, in arrival order. Connection attempts retry
    [retries] times (default 50) at 100 ms intervals, so a client
    raced against a server that is still binding converges. Blocking
    sockets; needs no runtime. *)

val watch :
  ?retries:int ->
  ?pushes:int ->
  connect:Unix.sockaddr ->
  on_line:(string -> unit) ->
  string ->
  (unit, string) result
(** Subscribes to a standing query: sends [sub <sql>] and hands every
    line the server emits — the [sub] acknowledgement with the initial
    answer, then each asynchronous [push] diff — to [on_line] as it
    arrives. Returns [Ok ()] after [pushes] push lines when
    [pushes > 0] (a deterministic stop for smoke tests), at connection
    close otherwise; an [error] response line is returned as [Error].
    Blocking sockets, like {!client}. *)
