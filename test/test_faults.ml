(* Failure injection: timeouts, retries, partial answers; and the
   branch-and-bound search (must equal SJA exactly). *)

open Fusion_data
open Fusion_core
open Fusion_plan
module Workload = Fusion_workload.Workload
module Source = Fusion_source.Source
module Prng = Fusion_stats.Prng
module Adaptive = Fusion_lab.Adaptive

let faulty_instance ~probability ~fault_seed seed =
  let instance = Workload.generate { Workload.default_spec with seed } in
  Array.iteri
    (fun j s ->
      Source.set_fault s
        (Some { Source.probability; prng = Prng.create (fault_seed + (31 * j)) }))
    instance.Workload.sources;
  instance

let sja_plan instance =
  let env =
    Opt_env.create ~universe:instance.Workload.spec.Workload.universe
      instance.Workload.sources instance.Workload.query
  in
  (Optimizer.optimize Optimizer.Sja env).Optimized.plan

let run ?(retries = 0) ?(on_exhausted = `Fail) (instance : Workload.instance) plan =
  Array.iter Source.reset_meter instance.Workload.sources;
  Exec.run
    ~policy:{ Exec.retries; on_exhausted }
    ~sources:instance.Workload.sources
    ~conds:(Fusion_query.Query.conditions instance.Workload.query)
    plan

let test_always_failing_raises () =
  let instance = faulty_instance ~probability:1.0 ~fault_seed:1 3 in
  let plan = sja_plan instance in
  Alcotest.(check bool) "timeout raised" true
    (match run instance plan with
    | exception Source.Timeout _ -> true
    | _ -> false)

let test_always_failing_partial_mode () =
  let instance = faulty_instance ~probability:1.0 ~fault_seed:1 3 in
  let plan = sja_plan instance in
  let result = run ~retries:1 ~on_exhausted:`Partial instance plan in
  Alcotest.(check bool) "marked partial" true result.Exec.partial;
  Alcotest.check Helpers.item_set "empty answer (no source reachable)" Item_set.empty
    result.Exec.answer;
  Alcotest.(check bool) "failures counted" true (result.Exec.failures > 0);
  (* Every failed attempt still paid its overhead. *)
  Alcotest.(check bool) "timeouts were charged" true (result.Exec.total_cost > 0.0)

let test_retries_recover_flaky_sources () =
  (* 30% failure probability, generous retries: the answer must be
     complete and correct. *)
  let instance = faulty_instance ~probability:0.3 ~fault_seed:5 7 in
  let plan = sja_plan instance in
  let result = run ~retries:50 instance plan in
  Alcotest.(check bool) "not partial" false result.Exec.partial;
  Alcotest.(check bool) "saw failures" true (result.Exec.failures > 0);
  Array.iter (fun s -> Source.set_fault s None) instance.Workload.sources;
  let clean = run instance plan in
  Alcotest.check Helpers.item_set "same answer as fault-free" clean.Exec.answer
    result.Exec.answer;
  Alcotest.(check bool) "retries cost extra" true
    (result.Exec.total_cost > clean.Exec.total_cost)

let test_partial_answer_is_subset () =
  (* One permanently dead source, partial mode: the answer must be a
     subset of the true answer (conditions can only lose evidence). *)
  let instance = Workload.generate { Workload.default_spec with seed = 11 } in
  Source.set_fault
    instance.Workload.sources.(0)
    (Some { Source.probability = 1.0; prng = Prng.create 9 });
  let plan = sja_plan instance in
  let result = run ~on_exhausted:`Partial instance plan in
  Alcotest.(check bool) "partial" true result.Exec.partial;
  let truth =
    Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query
  in
  Alcotest.(check bool) "subset of the true answer" true
    (Item_set.subset result.Exec.answer truth)

let test_mediator_surfaces_failures () =
  let instance = faulty_instance ~probability:1.0 ~fault_seed:13 17 in
  let mediator = Fusion_mediator.Mediator.create_exn (Array.to_list instance.Workload.sources) in
  (match Fusion_mediator.Mediator.run mediator instance.Workload.query with
  | Error msg ->
    Alcotest.(check bool) ("mentions unreachable: " ^ msg) true
      (Option.is_some (Str_find.find_substring msg "unreachable"))
  | Ok _ -> Alcotest.fail "expected an error");
  match
    Fusion_mediator.Mediator.run
      ~config:
        {
          Fusion_mediator.Mediator.Config.default with
          Fusion_mediator.Mediator.Config.on_exhausted = `Partial;
        }
      mediator instance.Workload.query
  with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
    Alcotest.(check bool) "partial flagged" true report.Fusion_mediator.Mediator.partial

let qcheck_faulty_execution_sound =
  Helpers.qtest ~count:40 "flaky sources + retries keep answers correct"
    QCheck2.Gen.(pair Helpers.spec_gen (int_range 0 1_000_000))
    (fun (spec, fault_seed) -> Helpers.spec_print spec ^ Printf.sprintf " fault=%d" fault_seed)
    (fun (spec, fault_seed) ->
      let instance = Workload.generate spec in
      Array.iteri
        (fun j s ->
          Source.set_fault s
            (Some { Source.probability = 0.2; prng = Prng.create (fault_seed + (31 * j)) }))
        instance.Workload.sources;
      let plan = sja_plan instance in
      let result = run ~retries:200 instance plan in
      Array.iter (fun s -> Source.set_fault s None) instance.Workload.sources;
      (not result.Exec.partial)
      && Item_set.equal result.Exec.answer
           (Reference.answer_query ~sources:instance.Workload.sources
              instance.Workload.query))

(* --- distributed churn --------------------------------------------------- *)

(* The coordinator's failover must absorb whatever replica churn the
   draw deals out — killed primaries and flaky survivors alike — and
   still reproduce the fault-free reference answer. *)
let qcheck_coordinator_survives_replica_churn =
  Helpers.qtest ~count:25 "replica churn: coordinator failover stays exact"
    QCheck2.Gen.(pair Helpers.spec_gen (int_range 0 1_000_000))
    (fun (spec, churn_seed) ->
      Helpers.spec_print spec ^ Printf.sprintf " churn=%d" churn_seed)
    (fun (spec, churn_seed) ->
      let open Fusion_dist in
      let instance = Workload.generate spec in
      let expected =
        Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query
      in
      let cluster =
        Helpers.check_ok
          (Cluster.create ~shards:2 ~replicas:2
             (Array.to_list instance.Workload.sources))
      in
      (* Churn schedule: per replica group, kill one random replica
         half the time; flake the survivor at 20%. *)
      let prng = Prng.create churn_seed in
      for shard = 0 to Cluster.shards cluster - 1 do
        for j = 0 to Cluster.n_sources cluster - 1 do
          let dead = if Prng.bool prng then Some (Prng.int prng 2) else None in
          Option.iter (fun r -> Cluster.kill cluster ~shard ~source:j ~replica:r) dead;
          for r = 0 to 1 do
            if dead <> Some r then
              Cluster.set_fault cluster ~shard ~source:j ~replica:r
                (Some
                   {
                     Source.probability = 0.2;
                     prng = Prng.create (churn_seed + (31 * ((shard * 100) + (2 * j) + r)));
                   })
          done
        done
      done;
      let config =
        { Coordinator.Config.default with Coordinator.Config.retries = 200 }
      in
      match Coordinator.run ~config cluster instance.Workload.query with
      | Error msg -> Alcotest.failf "coordinator failed: %s" msg
      | Ok r ->
        Item_set.equal r.Coordinator.r_answer expected && not r.Coordinator.r_partial)

(* --- branch and bound ---------------------------------------------------- *)

let qcheck_branch_bound_matches_sja =
  Helpers.qtest ~count:60 "branch-and-bound equals SJA's optimum" Helpers.spec_gen
    Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let env =
        Opt_env.create ~universe:spec.Workload.universe instance.Workload.sources
          instance.Workload.query
      in
      let sja = Algorithms.sja env in
      let bb = Branch_bound.sja_bb env in
      Float.abs (sja.Optimized.est_cost -. bb.Optimized.est_cost)
      <= 1e-6 +. (1e-9 *. Float.abs sja.Optimized.est_cost))

let test_branch_bound_prunes () =
  let instance =
    Workload.generate
      {
        Workload.default_spec with
        Workload.n_sources = 6;
        selectivities = [| 0.02; 0.1; 0.2; 0.3; 0.4; 0.5 |];
        seed = 19;
      }
  in
  let env =
    Opt_env.create ~universe:instance.Workload.spec.Workload.universe
      instance.Workload.sources instance.Workload.query
  in
  let visited, total_orderings = Branch_bound.visited_orderings env in
  (* A full enumeration expands m!·(something) prefix nodes; the bound
     must cut a material share. Total prefix nodes of the full tree is
     sum_k m!/(m-k)! ≥ m!; require visited < m!. *)
  Alcotest.(check bool)
    (Printf.sprintf "visited %d < %d prefix nodes" visited total_orderings)
    true
    (visited < total_orderings)

let test_adaptive_retries () =
  let instance = faulty_instance ~probability:0.3 ~fault_seed:21 9 in
  let env =
    Opt_env.create ~universe:instance.Workload.spec.Workload.universe
      instance.Workload.sources instance.Workload.query
  in
  let result = Adaptive.run ~retries:200 env in
  Array.iter (fun s -> Source.set_fault s None) instance.Workload.sources;
  Alcotest.check Helpers.item_set "exact despite flakiness"
    (Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query)
    result.Adaptive.answer

let test_sja_trace () =
  let instance = Workload.generate { Workload.default_spec with seed = 31 } in
  let env =
    Opt_env.create ~universe:instance.Workload.spec.Workload.universe
      instance.Workload.sources instance.Workload.query
  in
  let trace = Algorithms.sja_trace env in
  let m = Fusion_query.Query.m instance.Workload.query in
  Alcotest.(check int) "m! entries" (Perm.count m) (List.length trace);
  (match trace with
  | (_, cheapest) :: rest ->
    Alcotest.(check (float 0.001)) "cheapest = sja" (Algorithms.sja env).Optimized.est_cost
      cheapest;
    List.iter (fun (_, c) -> Alcotest.(check bool) "sorted" true (c >= cheapest)) rest
  | [] -> Alcotest.fail "empty trace");
  (* Orderings are distinct permutations. *)
  let distinct =
    List.sort_uniq compare (List.map (fun (o, _) -> Array.to_list o) trace)
  in
  Alcotest.(check int) "all distinct" (Perm.count m) (List.length distinct)

(* --- iterative improvement ----------------------------------------------- *)

let qcheck_hill_climb_bounds =
  Helpers.qtest ~count:60 "hill climb: ⩽ greedy, ⩾ exact" Helpers.spec_gen
    Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let env =
        Opt_env.create ~universe:spec.Workload.universe instance.Workload.sources
          instance.Workload.query
      in
      let greedy = (Algorithms.greedy_sja env).Optimized.est_cost in
      let hill = (Iterative.sja_hill_climb env).Optimized.est_cost in
      let exact = (Algorithms.sja env).Optimized.est_cost in
      hill <= greedy +. 1e-6 && hill >= exact -. 1e-6)

(* An adversarial cost model where ordering by selectivity is wrong:
   the most selective condition is outrageously expensive to evaluate
   by selection, so it must come second (as cheap semijoins) — greedy
   puts it first; hill climbing recovers the optimum. *)
let test_hill_climb_beats_greedy_on_adversarial_model () =
  let instance =
    Workload.generate
      { Workload.default_spec with n_sources = 3; selectivities = [| 0.05; 0.4 |]; seed = 29 }
  in
  let base = Opt_env.create ~universe:2000 instance.Workload.sources instance.Workload.query in
  let selective = base.Opt_env.conds.(0) in
  let model =
    {
      Fusion_cost.Model.sq_cost =
        (fun _ c -> if Fusion_cond.Cond.equal c selective then 10_000.0 else 100.0);
      sjq_cost = (fun _ _ x -> 10.0 +. (0.1 *. x));
      lq_cost = (fun _ -> infinity);
    }
  in
  let env = { base with Opt_env.model } in
  let greedy = (Algorithms.greedy_sja env).Optimized.est_cost in
  let hill = (Iterative.sja_hill_climb env).Optimized.est_cost in
  let exact = (Algorithms.sja env).Optimized.est_cost in
  Alcotest.(check bool)
    (Printf.sprintf "greedy %.1f > exact %.1f" greedy exact)
    true (greedy > exact +. 1.0);
  Alcotest.(check (float 0.001)) "hill climb finds the optimum" exact hill

let test_branch_bound_plan_sound () =
  let instance = Workload.generate { Workload.default_spec with seed = 23 } in
  let env =
    Opt_env.create ~universe:instance.Workload.spec.Workload.universe
      instance.Workload.sources instance.Workload.query
  in
  let bb = Branch_bound.sja_bb env in
  let result = Helpers.execute_plan instance bb.Optimized.plan in
  Alcotest.check Helpers.item_set "correct answer"
    (Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query)
    result.Exec.answer

let suite =
  [
    Alcotest.test_case "always-failing source raises" `Quick test_always_failing_raises;
    Alcotest.test_case "partial mode on dead federation" `Quick
      test_always_failing_partial_mode;
    Alcotest.test_case "retries recover flaky sources" `Quick
      test_retries_recover_flaky_sources;
    Alcotest.test_case "partial answers are subsets" `Quick test_partial_answer_is_subset;
    Alcotest.test_case "mediator surfaces failures" `Quick test_mediator_surfaces_failures;
    qcheck_faulty_execution_sound;
    qcheck_coordinator_survives_replica_churn;
    Alcotest.test_case "adaptive runtime retries" `Quick test_adaptive_retries;
    Alcotest.test_case "sja search trace" `Quick test_sja_trace;
    qcheck_branch_bound_matches_sja;
    Alcotest.test_case "branch-and-bound prunes" `Quick test_branch_bound_prunes;
    Alcotest.test_case "branch-and-bound plan sound" `Quick test_branch_bound_plan_sound;
    qcheck_hill_climb_bounds;
    Alcotest.test_case "hill climb beats greedy on adversarial costs" `Quick
      test_hill_climb_beats_greedy_on_adversarial_model;
  ]
