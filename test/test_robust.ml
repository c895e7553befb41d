(* Interval robustness analysis and the DOT export. *)

open Fusion_core
open Fusion_plan
module Workload = Fusion_workload.Workload
module Robust = Fusion_lab.Robust

let env_of (instance : Workload.instance) =
  Opt_env.create ~universe:instance.Workload.spec.Workload.universe
    instance.Workload.sources instance.Workload.query

let rounds_of env (optimized : Optimized.t) =
  match Plan.rounds ~n:(Opt_env.n env) optimized.Optimized.plan with
  | Ok rs ->
    ( Array.of_list (List.map (fun r -> r.Plan.cond) rs),
      Array.of_list (List.map (fun r -> r.Plan.actions) rs) )
  | Error msg -> Alcotest.failf "not round shaped: %s" msg

let test_zero_uncertainty_collapses () =
  let instance = Workload.generate { Workload.default_spec with seed = 3 } in
  let env = env_of instance in
  let sja = Algorithms.sja env in
  let ordering, decisions = rounds_of env sja in
  let interval = Robust.plan_cost_interval env ~uncertainty:0.0 ordering decisions in
  Alcotest.(check (float 0.01)) "lo = recurrence" sja.Optimized.est_cost interval.Robust.lo;
  Alcotest.(check (float 0.01)) "hi = recurrence" sja.Optimized.est_cost interval.Robust.hi

let qcheck_interval_brackets_point_estimate =
  Helpers.qtest ~count:60 "cost interval brackets the point estimate" Helpers.spec_gen
    Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let env = env_of instance in
      let sja = Algorithms.sja env in
      let ordering, decisions = rounds_of env sja in
      let i = Robust.plan_cost_interval env ~uncertainty:0.5 ordering decisions in
      i.Robust.lo <= sja.Optimized.est_cost +. 1e-6
      && sja.Optimized.est_cost <= i.Robust.hi +. 1e-6
      && i.Robust.lo >= 0.0)

let qcheck_interval_widens_with_uncertainty =
  Helpers.qtest ~count:60 "larger uncertainty, wider interval" Helpers.spec_gen
    Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let env = env_of instance in
      let sja = Algorithms.sja env in
      let ordering, decisions = rounds_of env sja in
      let narrow = Robust.plan_cost_interval env ~uncertainty:0.2 ordering decisions in
      let wide = Robust.plan_cost_interval env ~uncertainty:0.8 ordering decisions in
      wide.Robust.lo <= narrow.Robust.lo +. 1e-6 && narrow.Robust.hi <= wide.Robust.hi +. 1e-6)

let qcheck_robust_plan_sound_and_bounded =
  Helpers.qtest ~count:40 "robust plans execute correctly; worst case bounds nominal"
    Helpers.spec_gen Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let env = env_of instance in
      let robust = Robust.sja_robust env ~uncertainty:0.5 in
      let result = Helpers.execute_plan instance robust.Optimized.plan in
      let sja = Algorithms.sja env in
      Fusion_data.Item_set.equal result.Exec.answer
        (Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query)
      (* The robust optimum's upper bound can't beat the worst case of
         the nominal optimum evaluated robustly. *)
      &&
      let ordering, decisions = rounds_of env sja in
      let nominal_hi =
        (Robust.plan_cost_interval env ~uncertainty:0.5 ordering decisions).Robust.hi
      in
      robust.Optimized.est_cost <= nominal_hi +. 1e-6)

(* --- robustness of the distributed runtime ------------------------------- *)

(* Straggling replicas are a performance hazard, not a correctness one:
   wherever the slow replica lands, the coordinator's answer must stay
   exact, and routing around it (least-cost) must never finish later
   than insisting on the straggler as primary. *)
let qcheck_coordinator_robust_to_stragglers =
  Helpers.qtest ~count:25 "coordinator exact under random straggler placement"
    QCheck2.Gen.(triple Helpers.spec_gen (int_range 0 3) (int_range 0 1))
    (fun (spec, shard, replica) ->
      Helpers.spec_print spec ^ Printf.sprintf " straggler=(s%d,#%d)" shard replica)
    (fun (spec, slow_shard, slow_replica) ->
      let open Fusion_dist in
      let instance = Workload.generate spec in
      let expected =
        Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query
      in
      let shards = 4 in
      let profile_of ~shard ~source:_ ~replica profile =
        if shard = slow_shard && replica = slow_replica then
          Fusion_net.Profile.straggler profile
        else profile
      in
      let run routing =
        let cluster =
          Helpers.check_ok
            (Cluster.create ~shards ~replicas:2 ~profile_of
               (Array.to_list instance.Workload.sources))
        in
        match
          Coordinator.run
            ~config:{ Coordinator.Config.default with Coordinator.Config.routing }
            cluster instance.Workload.query
        with
        | Error msg -> Alcotest.failf "coordinator failed: %s" msg
        | Ok r -> r
      in
      let primary = run Replica.Primary in
      let least_cost = run Replica.Least_cost in
      Fusion_data.Item_set.equal primary.Coordinator.r_answer expected
      && Fusion_data.Item_set.equal least_cost.Coordinator.r_answer expected
      && least_cost.Coordinator.r_makespan <= primary.Coordinator.r_makespan +. 1e-6)

(* --- DOT export ---------------------------------------------------------- *)

let test_dot_renders () =
  let instance = Workload.generate { Workload.default_spec with seed = 5 } in
  let env = env_of instance in
  let plus = Optimizer.optimize Optimizer.Sja_plus env in
  let dot = Plan_dot.to_string plus.Optimized.plan in
  let has needle =
    Alcotest.(check bool) ("contains " ^ needle) true
      (Option.is_some (Str_find.find_substring dot needle))
  in
  has "digraph plan";
  has "answer";
  has "shape=box";
  has "->";
  (* One node per op. *)
  let ops = List.length (Plan.ops plus.Optimized.plan) in
  let node_count =
    List.length
      (List.filter (fun line -> Option.is_some (Str_find.find_substring line "[label="))
         (String.split_on_char '\n' dot))
  in
  Alcotest.(check int) "one node per op" ops node_count;
  has "doublecircle"

let test_dot_rebinding_unique_nodes () =
  let plan =
    Plan.create
      ~ops:
        [
          Op.Select { dst = "X"; cond = 0; source = 0 };
          Op.Select { dst = "Y"; cond = 1; source = 0 };
          Op.Inter { dst = "X"; args = [ "X"; "Y" ] };
        ]
      ~output:"X"
  in
  let dot = Plan_dot.to_string plan in
  (* The rebound X must reference the first X's node: edge n0 -> n2. *)
  Alcotest.(check bool) "edge from first binding" true
    (Option.is_some (Str_find.find_substring dot "n0 -> n2"))

let suite =
  [
    Alcotest.test_case "zero uncertainty collapses" `Quick test_zero_uncertainty_collapses;
    qcheck_interval_brackets_point_estimate;
    qcheck_interval_widens_with_uncertainty;
    qcheck_robust_plan_sound_and_bounded;
    qcheck_coordinator_robust_to_stragglers;
    Alcotest.test_case "dot renders" `Quick test_dot_renders;
    Alcotest.test_case "dot rebinding nodes" `Quick test_dot_rebinding_unique_nodes;
  ]
