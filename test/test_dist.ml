(* The distributed mediator's oracle-equivalence harness.

   The single-mediator [Mediator.run] is the oracle: for every random
   (catalog, query, shard-count, fault-seed) draw, the sharded
   coordinator must produce the identical item set — fresh (staleness
   0) and complete (not partial) — however the slices, replicas, fault
   draws and hedges fell. The degenerate one-shard one-replica
   configuration must match the oracle's accounting too, not just its
   answer. *)

open Fusion_data
open Fusion_dist
module Workload = Fusion_workload.Workload
module Source = Fusion_source.Source
module Mediator = Fusion_mediator.Mediator
module Reference = Fusion_core.Reference
module Optimized = Fusion_core.Optimized
module Fragment = Fusion_plan.Fragment
module Plan_text = Fusion_plan.Plan_text
module Profile = Fusion_net.Profile
module Prng = Fusion_stats.Prng
module Metrics = Fusion_obs.Metrics
module Prom = Fusion_obs.Prom
module Trace = Fusion_obs.Trace
module Analyze = Fusion_obs.Analyze

let shard_counts = [ 1; 2; 3; 5 ]

let cluster_of ?replicas ?profile_of ?staleness_of ~shards (instance : Workload.instance)
    =
  Helpers.check_ok
    (Cluster.create ?replicas ?profile_of ?staleness_of ~shards
       (Array.to_list instance.Workload.sources))

let truth (instance : Workload.instance) =
  Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query

let coord_run ?config cluster (instance : Workload.instance) =
  Helpers.check_ok (Coordinator.run ?config cluster instance.Workload.query)

(* Fault every replica of the cluster independently, seeds derived from
   one draw the way test_faults seeds per-source injectors. *)
let fault_all_replicas ~probability ~fault_seed cluster =
  for shard = 0 to Cluster.shards cluster - 1 do
    for j = 0 to Cluster.n_sources cluster - 1 do
      let g = Cluster.group cluster ~shard ~source:j in
      for r = 0 to Replica.size g - 1 do
        let lane = Cluster.lane cluster ~shard ~source:j ~replica:r in
        Cluster.set_fault cluster ~shard ~source:j ~replica:r
          (Some { Source.probability; prng = Prng.create (fault_seed + (31 * lane)) })
      done
    done
  done

(* --- the oracle-equivalence property (the ≥200-case suite) --------------- *)

(* 60 random (catalog, query) draws × shard counts {1,2,3,5} = 240
   oracle comparisons per test run. *)
let qcheck_oracle_equivalence =
  Helpers.qtest ~count:60 "coordinator ≡ Mediator.run across shard counts"
    Helpers.spec_gen Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let oracle =
        (Helpers.check_ok (Mediator.run (Mediator.create_exn (Array.to_list instance.Workload.sources)) instance.Workload.query))
          .Mediator.answer
      in
      List.for_all
        (fun shards ->
          let cluster = cluster_of ~shards instance in
          let r = coord_run cluster instance in
          Item_set.equal r.Coordinator.r_answer oracle
          && r.Coordinator.r_staleness = 0.0
          && (not r.Coordinator.r_partial)
          && r.Coordinator.r_failures = 0)
        shard_counts)

let qcheck_oracle_equivalence_with_replicas =
  Helpers.qtest ~count:30 "replicated routing keeps answers exact"
    QCheck2.Gen.(pair Helpers.spec_gen (oneofl [ 2; 3 ]))
    (fun (spec, replicas) -> Helpers.spec_print spec ^ Printf.sprintf " replicas=%d" replicas)
    (fun (spec, replicas) ->
      let instance = Workload.generate spec in
      let expected = truth instance in
      List.for_all
        (fun routing ->
          let cluster = cluster_of ~shards:3 ~replicas instance in
          let config = { Coordinator.Config.default with Coordinator.Config.routing } in
          let r = coord_run ~config cluster instance in
          Item_set.equal r.Coordinator.r_answer expected)
        [ Replica.Primary; Replica.Round_robin; Replica.Least_cost ])

let qcheck_oracle_equivalence_under_faults =
  Helpers.qtest ~count:30 "flaky replicas + retries ≡ clean oracle"
    QCheck2.Gen.(triple Helpers.spec_gen (int_range 0 1_000_000) (oneofl [ 2; 3; 5 ]))
    (fun (spec, fault_seed, shards) ->
      Helpers.spec_print spec ^ Printf.sprintf " fault=%d shards=%d" fault_seed shards)
    (fun (spec, fault_seed, shards) ->
      let instance = Workload.generate spec in
      let expected = truth instance in
      let cluster = cluster_of ~shards ~replicas:2 instance in
      fault_all_replicas ~probability:0.2 ~fault_seed cluster;
      let config =
        { Coordinator.Config.default with Coordinator.Config.retries = 200 }
      in
      let r = coord_run ~config cluster instance in
      Item_set.equal r.Coordinator.r_answer expected
      && (not r.Coordinator.r_partial)
      && r.Coordinator.r_staleness = 0.0)

(* --- the degenerate case must match the oracle's accounting ------------- *)

let test_single_shard_single_replica_pinned () =
  List.iter
    (fun seed ->
      let instance = Workload.generate { Workload.default_spec with seed } in
      let cluster = cluster_of ~shards:1 instance in
      let oracle =
        Helpers.check_ok
          (Mediator.run (Cluster.mediator cluster) instance.Workload.query)
      in
      let r = coord_run cluster instance in
      Alcotest.check Helpers.item_set "same answer" oracle.Mediator.answer
        r.Coordinator.r_answer;
      Alcotest.(check (float 1e-6)) "same actual cost" oracle.Mediator.actual_cost
        r.Coordinator.r_total_cost;
      Alcotest.(check int) "no failures" oracle.Mediator.failures r.Coordinator.r_failures;
      Alcotest.(check bool) "not partial" oracle.Mediator.partial r.Coordinator.r_partial)
    [ 3; 7; 11; 42 ]

let test_single_shard_fault_draws_pinned () =
  (* Identical fault injectors on the oracle's source j and the
     degenerate cluster's replica (0, j, 0): the coordinator issues the
     oracle's exact request sequence, so failures and costs coincide. *)
  let fault_seed = 77 in
  let instance = Workload.generate { Workload.default_spec with seed = 13 } in
  let cluster = cluster_of ~shards:1 instance in
  for j = 0 to Cluster.n_sources cluster - 1 do
    Cluster.set_fault cluster ~shard:0 ~source:j ~replica:0
      (Some { Source.probability = 0.3; prng = Prng.create (fault_seed + (31 * j)) })
  done;
  let config = { Coordinator.Config.default with Coordinator.Config.retries = 100 } in
  let r = coord_run ~config cluster instance in
  Array.iteri
    (fun j s ->
      Source.set_fault s
        (Some { Source.probability = 0.3; prng = Prng.create (fault_seed + (31 * j)) }))
    instance.Workload.sources;
  let oracle =
    Helpers.check_ok
      (Mediator.run
         ~config:{ Mediator.Config.default with Mediator.Config.retries = 100 }
         (Cluster.mediator cluster) instance.Workload.query)
  in
  Array.iter (fun s -> Source.set_fault s None) instance.Workload.sources;
  Alcotest.check Helpers.item_set "same answer" oracle.Mediator.answer
    r.Coordinator.r_answer;
  Alcotest.(check int) "same fault draws" oracle.Mediator.failures
    r.Coordinator.r_failures;
  Alcotest.(check (float 1e-6)) "same cost (failed attempts charged alike)"
    oracle.Mediator.actual_cost r.Coordinator.r_total_cost;
  Alcotest.(check bool) "saw failures" true (r.Coordinator.r_failures > 0)

(* --- churn: dead replicas, dead shards, stragglers ----------------------- *)

(* The churn drills below take the runtime as an input: on [`Domains]
   every fragment runs as its own fibre over a real domain pool. Their
   answers, partial flags and failure counts must not depend on the
   clock; wall-clock timelines are not compared. *)

let test_failover_survives_dead_primaries runtime () =
  let instance = Workload.generate { Workload.default_spec with seed = 17 } in
  let expected = truth instance in
  let run runtime =
    let cluster = cluster_of ~shards:2 ~replicas:2 instance in
    for shard = 0 to 1 do
      for j = 0 to Cluster.n_sources cluster - 1 do
        Cluster.kill cluster ~shard ~source:j ~replica:0
      done
    done;
    coord_run ~config:{ Coordinator.Config.default with Coordinator.Config.runtime }
      cluster instance
  in
  let r = run runtime in
  Alcotest.check Helpers.item_set "failover answer exact" expected
    r.Coordinator.r_answer;
  Alcotest.(check bool) "not partial" false r.Coordinator.r_partial;
  Alcotest.(check bool) "failovers recorded" true (r.Coordinator.r_failovers > 0);
  Alcotest.(check bool) "failures recorded" true (r.Coordinator.r_failures > 0);
  let sim = run `Sim in
  Alcotest.(check int) "failovers as on the simulator" sim.Coordinator.r_failovers
    r.Coordinator.r_failovers;
  Alcotest.(check int) "failures as on the simulator" sim.Coordinator.r_failures
    r.Coordinator.r_failures

let test_replica_killed_mid_scatter () =
  (* The first shard's groups lose their primary, later shards keep
     theirs: only the wounded shard pays failovers, everyone stays
     exact. *)
  let instance = Workload.generate { Workload.default_spec with seed = 19 } in
  let expected = truth instance in
  let cluster = cluster_of ~shards:3 ~replicas:2 instance in
  for j = 0 to Cluster.n_sources cluster - 1 do
    Cluster.kill cluster ~shard:0 ~source:j ~replica:0
  done;
  let r = coord_run cluster instance in
  Alcotest.check Helpers.item_set "exact answer" expected r.Coordinator.r_answer;
  let s0 = List.nth r.Coordinator.r_shards 0 in
  let s1 = List.nth r.Coordinator.r_shards 1 in
  Alcotest.(check bool) "wounded shard failed over" true
    (s0.Coordinator.sr_failovers > 0);
  Alcotest.(check int) "healthy shard did not" 0 s1.Coordinator.sr_failovers

let test_dead_shard_partial_answer runtime () =
  let instance = Workload.generate { Workload.default_spec with seed = 23 } in
  let dead = 1 in
  let cluster = cluster_of ~shards:3 instance in
  Cluster.kill_shard cluster ~shard:dead;
  let config =
    { Coordinator.Config.default with Coordinator.Config.on_exhausted = `Partial; runtime }
  in
  let r = coord_run ~config cluster instance in
  Alcotest.(check bool) "partial flagged" true r.Coordinator.r_partial;
  Alcotest.(check bool) "subset of the truth" true
    (Item_set.subset r.Coordinator.r_answer (truth instance));
  (* Exact on the surviving slices: each alive shard's answer equals the
     reference answer over that shard's replica sources. *)
  let expected_alive =
    List.filter_map
      (fun shard ->
        if shard = dead then None
        else
          Some
            (Reference.answer_query
               ~sources:
                 (Array.init (Cluster.n_sources cluster) (fun j ->
                      Cluster.replica cluster ~shard ~source:j ~replica:0))
               instance.Workload.query))
      [ 0; 1; 2 ]
  in
  Alcotest.check Helpers.item_set "alive slices exact"
    (Fragment.merge_answers expected_alive)
    r.Coordinator.r_answer;
  let dead_report = List.nth r.Coordinator.r_shards dead in
  Alcotest.check Helpers.item_set "dead shard contributes nothing" Item_set.empty
    dead_report.Coordinator.sr_answer;
  Alcotest.(check bool) "dead shard flagged" true dead_report.Coordinator.sr_partial;
  List.iter
    (fun s ->
      if s.Coordinator.sr_shard <> dead then
        Alcotest.(check bool) "alive shard complete" false s.Coordinator.sr_partial)
    r.Coordinator.r_shards;
  Alcotest.(check int) "one failure per request of the dead shard"
    dead_report.Coordinator.sr_requests r.Coordinator.r_failures

let straggler_profile ~shard:_ ~source:_ ~replica profile =
  if replica = 0 then Profile.straggler profile else profile

let test_hedging_beats_stragglers () =
  let instance = Workload.generate { Workload.default_spec with seed = 29 } in
  let expected = truth instance in
  let run_with hedge =
    let cluster =
      cluster_of ~shards:2 ~replicas:2 ~profile_of:straggler_profile instance
    in
    coord_run
      ~config:{ Coordinator.Config.default with Coordinator.Config.hedge }
      cluster instance
  in
  let plain = run_with None in
  let hedged = run_with (Some 1.3) in
  Alcotest.check Helpers.item_set "plain exact" expected plain.Coordinator.r_answer;
  Alcotest.check Helpers.item_set "hedged exact" expected hedged.Coordinator.r_answer;
  Alcotest.(check int) "no hedges without the option" 0 plain.Coordinator.r_hedges;
  Alcotest.(check bool) "hedges fired" true (hedged.Coordinator.r_hedges > 0);
  Alcotest.(check bool) "hedges won" true (hedged.Coordinator.r_hedge_wins > 0);
  Alcotest.(check bool)
    (Printf.sprintf "hedged makespan %.1f < straggler makespan %.1f"
       hedged.Coordinator.r_makespan plain.Coordinator.r_makespan)
    true
    (hedged.Coordinator.r_makespan < plain.Coordinator.r_makespan)

let test_hedging_never_duplicates_answers () =
  (* Shard answers must stay pairwise disjoint even when requests are
     duplicated: the union's cardinality equals the sum of the parts. *)
  let instance = Workload.generate { Workload.default_spec with seed = 31 } in
  let cluster =
    cluster_of ~shards:3 ~replicas:2 ~profile_of:straggler_profile instance
  in
  let r =
    coord_run
      ~config:{ Coordinator.Config.default with Coordinator.Config.hedge = Some 1.3 }
      cluster instance
  in
  let parts = List.map (fun s -> s.Coordinator.sr_answer) r.Coordinator.r_shards in
  let sum = List.fold_left (fun a s -> a + Item_set.cardinal s) 0 parts in
  Alcotest.(check int) "Σ|shard answers| = |∪ shard answers|" sum
    (Item_set.cardinal r.Coordinator.r_answer);
  Alcotest.check Helpers.item_set "still exact" (truth instance) r.Coordinator.r_answer

let test_staleness_surfaces_stale_replicas () =
  let instance = Workload.generate { Workload.default_spec with seed = 37 } in
  let cluster =
    cluster_of ~shards:2 ~replicas:2
      ~staleness_of:(fun ~shard:_ ~source:_ ~replica -> if replica = 0 then 45.0 else 0.0)
      instance
  in
  let r = coord_run cluster instance in
  (* Primary routing touches replica 0 everywhere: the stalest replica
     consulted bounds the report. *)
  Alcotest.(check (float 1e-9)) "staleness bound surfaced" 45.0 r.Coordinator.r_staleness

(* --- determinism --------------------------------------------------------- *)

let test_same_seed_byte_identical_report () =
  let render () =
    let instance = Workload.generate { Workload.default_spec with seed = 41 } in
    let cluster = cluster_of ~shards:3 ~replicas:2 instance in
    fault_all_replicas ~probability:0.15 ~fault_seed:99 cluster;
    let config =
      {
        Coordinator.Config.default with
        Coordinator.Config.retries = 50;
        routing = Replica.Least_cost;
        hedge = Some 2.0;
      }
    in
    Format.asprintf "%a" Coordinator.pp_report (coord_run ~config cluster instance)
  in
  let first = render () and second = render () in
  Alcotest.(check string) "byte-identical report (makespan, busy, path)" first second

(* A sharded run's Step spans carry the shared schedule's request ids,
   replica lanes and dependencies, so a recorded trace rebuilds the
   report's critical path — what [fqcli trace critpath] does with a
   trace file. *)
let test_trace_rebuilds_critical_path () =
  let instance = Workload.generate { Workload.default_spec with seed = 47 } in
  let cluster = cluster_of ~shards:3 ~replicas:2 instance in
  let collector = Trace.create () in
  let r = Trace.with_collector collector (fun () -> coord_run cluster instance) in
  let tasks = Helpers.check_ok (Analyze.tasks_of_spans (Trace.spans collector)) in
  Alcotest.(check int) "one task per request"
    (List.length r.Coordinator.r_timeline.Fusion_net.Sim.events)
    (List.length tasks);
  let expected = r.Coordinator.r_critical_path and path = Analyze.critical_path tasks in
  let hops (p : Analyze.path) =
    List.map
      (fun h ->
        let t = h.Analyze.task in
        let edge =
          match h.Analyze.edge with
          | Analyze.Start -> "start"
          | Analyze.Dep d -> Printf.sprintf "after #%d" d
          | Analyze.Queue q -> Printf.sprintf "queued behind #%d" q
        in
        Printf.sprintf "#%d lane %d %.3f..%.3f %s" t.Analyze.id t.Analyze.server
          t.Analyze.start t.Analyze.finish edge)
      p.Analyze.hops
  in
  Alcotest.(check bool) "a path of several hops" true (List.length (hops expected) > 1);
  Alcotest.(check (float 1e-9)) "length" expected.Analyze.total path.Analyze.total;
  Alcotest.(check (float 1e-9)) "makespan" expected.Analyze.makespan path.Analyze.makespan;
  Alcotest.(check (list string)) "hops" (hops expected) (hops path)

(* --- partitioning and fragments ------------------------------------------ *)

let qcheck_partition_is_a_partition =
  Helpers.qtest ~count:40 "slices are disjoint and lossless"
    QCheck2.Gen.(pair Helpers.spec_gen (oneofl shard_counts))
    (fun (spec, shards) -> Helpers.spec_print spec ^ Printf.sprintf " shards=%d" shards)
    (fun (spec, shards) ->
      let instance = Workload.generate spec in
      Array.for_all
        (fun s ->
          let relation = Source.relation s in
          let slices =
            List.init shards (fun shard -> Partition.slice ~shards ~shard relation)
          in
          let sizes = List.map Relation.cardinality slices in
          List.fold_left ( + ) 0 sizes = Relation.cardinality relation
          &&
          (* Disjoint on merge ids: every tuple's item lands in exactly
             the slice the hash names. *)
          List.for_all2
            (fun shard slice ->
              List.for_all
                (fun tuple ->
                  Partition.shard_of_value ~shards
                    (Relation.intern relation)
                    (Fusion_data.Tuple.item (Relation.schema slice) tuple)
                  = shard)
                (Relation.tuples slice))
            (List.init shards Fun.id) slices)
        instance.Workload.sources)

let test_single_shard_slice_is_identity () =
  let instance = Workload.generate { Workload.default_spec with seed = 43 } in
  Array.iter
    (fun s ->
      let relation = Source.relation s in
      let slice = Partition.slice ~shards:1 ~shard:0 relation in
      Alcotest.(check int) "same cardinality" (Relation.cardinality relation)
        (Relation.cardinality slice);
      Alcotest.(check bool) "same tuples in order" true
        (List.for_all2
           (fun a b -> a = b)
           (Relation.tuples relation) (Relation.tuples slice)))
    instance.Workload.sources

let qcheck_fragment_wire_round_trip =
  Helpers.qtest ~count:40 "fragments survive the wire" Helpers.spec_gen
    Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let med = Mediator.create_exn (Array.to_list instance.Workload.sources) in
      let prepared = Helpers.check_ok (Mediator.plan_for med instance.Workload.query) in
      let plan = prepared.Mediator.prep_optimized.Optimized.plan in
      List.for_all
        (fun shard ->
          let f = Fragment.of_plan ~shard plan in
          match Fragment.ship f with
          | Error _ -> false
          | Ok f' ->
            f'.Fragment.shard = shard
            && Plan_text.to_string f'.Fragment.plan = Plan_text.to_string plan
            && f'.Fragment.conds_used = f.Fragment.conds_used
            && f'.Fragment.sources_used = f.Fragment.sources_used)
        [ 0; 1; 7 ])

(* --- catalog replica groups ---------------------------------------------- *)

let test_catalog_replicas_key () =
  let instance = Workload.generate { Workload.default_spec with Workload.n_sources = 2; seed = 53 } in
  let dir = Filename.temp_file "fusion_dist" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Workload.save ~dir instance;
  let text =
    In_channel.with_open_text (Filename.concat dir "catalog.ini") In_channel.input_all
  in
  (* Give the first source two replicas via the catalog key. *)
  let groups =
    Helpers.check_ok
      (Fusion_source.Catalog.parse_groups ~dir
         (Str_find.replace_first text "[source R1]" "[source R1]\nreplicas = 2"))
  in
  Alcotest.(check (list int)) "replica counts parsed" [ 2; 1 ] (List.map snd groups);
  let cluster = Helpers.check_ok (Cluster.of_groups ~shards:2 groups) in
  Alcotest.(check int) "stride = max group" 2 (Cluster.stride cluster);
  let r = coord_run cluster instance in
  Alcotest.check Helpers.item_set "grouped cluster exact" (truth instance)
    r.Coordinator.r_answer

(* --- serving metrics ------------------------------------------------------ *)

let test_unsharded_serve_metrics_unchanged () =
  (* Served series carry only their own labels. *)
  let instance = Workload.generate { Workload.default_spec with seed = 61 } in
  let registry = Metrics.create () in
  let server =
    Fusion_mediator.Mediator.Server.create
      (Fusion_mediator.Mediator.create_exn (Array.to_list instance.Workload.sources))
  in
  Metrics.with_registry registry (fun () ->
      ignore
        (Helpers.check_ok
           (Fusion_mediator.Mediator.Server.submit server ~at:0.0 instance.Workload.query));
      Fusion_mediator.Mediator.Server.drain server);
  let text = Prom.of_registry registry in
  Alcotest.(check bool) "no shard label" true
    (Option.is_some
       (Str_find.find_substring text "fusion_serve_completed_total{tenant=\"default\"} 1"))

let suite =
  [
    qcheck_oracle_equivalence;
    qcheck_oracle_equivalence_with_replicas;
    qcheck_oracle_equivalence_under_faults;
    Alcotest.test_case "1 shard × 1 replica matches oracle accounting" `Quick
      test_single_shard_single_replica_pinned;
    Alcotest.test_case "1 shard: identical fault draws, identical report" `Quick
      test_single_shard_fault_draws_pinned;
    Alcotest.test_case "failover survives dead primaries" `Quick
      (test_failover_survives_dead_primaries `Sim);
    Alcotest.test_case "failover survives dead primaries (domains:2)" `Quick
      (test_failover_survives_dead_primaries (`Domains 2));
    Alcotest.test_case "replica killed mid-scatter" `Quick test_replica_killed_mid_scatter;
    Alcotest.test_case "dead shard ⇒ partial, alive slices exact" `Quick
      (test_dead_shard_partial_answer `Sim);
    Alcotest.test_case "dead shard ⇒ partial (domains:2)" `Quick
      (test_dead_shard_partial_answer (`Domains 2));
    Alcotest.test_case "hedging beats stragglers" `Quick test_hedging_beats_stragglers;
    Alcotest.test_case "hedging never duplicates answers" `Quick
      test_hedging_never_duplicates_answers;
    Alcotest.test_case "staleness of consulted replicas surfaces" `Quick
      test_staleness_surfaces_stale_replicas;
    Alcotest.test_case "same seed ⇒ byte-identical report" `Quick
      test_same_seed_byte_identical_report;
    Alcotest.test_case "a sharded trace rebuilds the critical path" `Quick
      test_trace_rebuilds_critical_path;
    qcheck_partition_is_a_partition;
    Alcotest.test_case "single-shard slice is the identity" `Quick
      test_single_shard_slice_is_identity;
    qcheck_fragment_wire_round_trip;
    Alcotest.test_case "catalog replicas key builds groups" `Quick
      test_catalog_replicas_key;
    Alcotest.test_case "unsharded serve metrics unchanged" `Quick
      test_unsharded_serve_metrics_unchanged;
  ]
