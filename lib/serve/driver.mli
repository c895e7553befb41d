(** Workload drivers: how submissions arrive at a {!Server}.

    Both drivers only {e enqueue} submissions (plus, for the closed
    loop, a completion hook); call {!Server.drain} afterwards to run
    the workload to completion. *)

val open_loop :
  Server.t ->
  prng:Fusion_stats.Prng.t ->
  rate:float ->
  count:int ->
  (int -> Server.job) ->
  unit
(** Poisson arrivals: [count] jobs with Exp([rate]) interarrival gaps
    drawn from [prng], independent of service progress — the driver
    that can push a server past saturation. [make_job i] builds the
    [i]th submission. *)

val closed_loop :
  Server.t -> clients:int -> think:float -> count:int -> (int -> Server.job) -> unit
(** A fixed population of [clients] submits at time 0; each completion
    triggers the next submission [think] after it finishes, until
    [count] jobs have been issued. Concurrency never exceeds the
    population. A shed submission ends its client's stream, so pick
    [clients <= max_inflight] and leave deadlines off for a classic
    closed loop. *)

val collect : Server.t -> unit -> Server.completion list
(** [collect server] registers a completion hook that keeps every
    completion from now on; the returned function lists them in
    completion order. For batch runs and tests that inspect their
    completions afterwards — the server itself keeps none. *)
