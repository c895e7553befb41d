(** The scatter/gather coordinator of the distributed mediator.

    One query, one plan — chosen on the cluster's oracle mediator —
    scattered as {!Fusion_plan.Fragment}s to every shard over the wire
    encoding and executed against the shard's replica groups on one
    shared {!Fusion_rt.Runtime}, one lane per replica. Each shard
    compiles its fragment against replica 0 of every group and runs it
    on an {!Fusion_plan.Exec_async.Engine} whose source call does the
    replica routing: failover through the group within the retry
    budget, and optional hedging. The gather step is
    {!Fusion_plan.Fragment.merge_answers}: exact, because hash
    partitioning makes the shards' slices disjoint on merge ids.

    With one shard, one replica and no hedging the coordinator issues
    exactly the request sequence of the single
    {!Fusion_mediator.Mediator.run} (same plan, same per-source fault
    draws, same retry accounting) — which is what the oracle-equivalence
    property suite in [test/test_dist.ml] pins down. *)

open Fusion_data

module Config : sig
  type t = {
    algo : Fusion_core.Optimizer.algo;
    stats : Fusion_core.Opt_env.stats_mode;
    retries : int;  (** extra attempts beyond one try per replica *)
    on_exhausted : [ `Fail | `Partial ];
    routing : Replica.routing;  (** which replica a request tries first *)
    hedge : float option;
        (** duplicate a request onto the best alternative replica when
            the routed one's predicted finish exceeds [factor ×] the
            alternative's; [None] disables hedging *)
    runtime : Fusion_rt.Runtime.spec;
        (** execution backend: [`Sim] (default) runs on the
            discrete-event clock; [`Domains n] runs fragments as
            concurrent fibres over a real domain pool and the timeline
            measures wall-clock seconds *)
  }

  val default : t
  (** SJA+, exact statistics, no retries ([`Fail]), primary routing, no
      hedging, simulated runtime — the
      oracle-equivalent configuration. *)
end

type shard_report = {
  sr_shard : int;
  sr_answer : Item_set.t;  (** the shard's slice of the answer *)
  sr_cost : float;
  sr_makespan : float;
  sr_busy : float;  (** service time summed over the shard's lanes *)
  sr_requests : int;
  sr_failures : int;  (** timed-out requests (failed attempts) *)
  sr_failovers : int;  (** attempts that switched replica after a failure *)
  sr_hedges : int;
  sr_hedge_wins : int;  (** hedged requests where the alternative answered first *)
  sr_partial : bool;
}

type report = {
  r_shard_count : int;
  r_replica_count : int;  (** the cluster's stride: largest replica group *)
  r_answer : Item_set.t;
  r_optimized : Fusion_core.Optimized.t;
      (** the oracle mediator's plan, scattered to every shard *)
  r_fragments : Fusion_plan.Fragment.t list;  (** as decoded from the wire *)
  r_shards : shard_report list;  (** in shard order *)
  r_total_cost : float;  (** work charged across all replicas of all shards *)
  r_makespan : float;  (** completion of the last request on the shared network *)
  r_failures : int;
  r_failovers : int;
  r_hedges : int;
  r_hedge_wins : int;
  r_partial : bool;
  r_staleness : float;
      (** worst data-age bound among the replicas that actually served
          requests; 0 when every touched replica is fresh *)
  r_per_source : (string * Fusion_net.Meter.totals) list;
      (** per logical source, summed over shards and replicas *)
  r_timeline : Fusion_net.Sim.timeline;
  r_critical_path : Fusion_obs.Analyze.path;
}

val run : ?config:Config.t -> Cluster.t -> Fusion_query.Query.t -> (report, string) result
(** Plan, scatter, execute, gather. Replica meters are reset first, so
    the report accounts just this run. Fails like the single mediator
    on invalid queries, and with ["all replicas unreachable"] when a
    request exhausts every replica and its retry budget under
    [`Fail]. *)

val run_sql : ?config:Config.t -> Cluster.t -> string -> (report, string) result
(** Parses the SQL text against the cluster's schema (union view [U]). *)

val pp_report : Format.formatter -> report -> unit
(** Deterministic, seed-stable rendering: first line
    ["sharded mediation: N shards x K replicas"], then totals,
    per-shard lines and the critical path. *)
