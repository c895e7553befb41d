(* The discrete-event simulator and the parallel plan executor. *)

open Fusion_core
open Fusion_plan
module Sim = Fusion_net.Sim
module Workload = Fusion_workload.Workload
module Parallel_exec = Fusion_lab.Parallel_exec
module Response_time = Fusion_lab.Response_time

let task id server duration deps = { Sim.id; server; duration; deps }

let test_independent_tasks_overlap () =
  let timeline =
    Sim.run ~servers:2 [ task 0 0 10.0 []; task 1 1 7.0 [] ]
  in
  Alcotest.(check (float 0.001)) "makespan = slowest" 10.0 timeline.Sim.makespan

let test_same_server_serializes () =
  let timeline = Sim.run ~servers:1 [ task 0 0 10.0 []; task 1 0 7.0 [] ] in
  Alcotest.(check (float 0.001)) "makespan = sum" 17.0 timeline.Sim.makespan

let test_dependencies_respected () =
  let timeline = Sim.run ~servers:2 [ task 0 0 10.0 []; task 1 1 5.0 [ 0 ] ] in
  Alcotest.(check (float 0.001)) "chain" 15.0 timeline.Sim.makespan;
  match timeline.Sim.events with
  | [ first; second ] ->
    Alcotest.(check (float 0.001)) "dep starts at parent's finish" first.Sim.finish
      second.Sim.start
  | _ -> Alcotest.fail "expected two events"

let test_diamond () =
  (* 0 -> {1, 2} -> 3, all on distinct servers. *)
  let timeline =
    Sim.run ~servers:4
      [ task 0 0 4.0 []; task 1 1 6.0 [ 0 ]; task 2 2 2.0 [ 0 ]; task 3 3 1.0 [ 1; 2 ] ]
  in
  Alcotest.(check (float 0.001)) "critical path" 11.0 timeline.Sim.makespan

let test_fifo_on_contended_server () =
  (* Two ready tasks on one server: the lower id goes first. *)
  let timeline = Sim.run ~servers:1 [ task 5 0 3.0 []; task 2 0 4.0 [] ] in
  match timeline.Sim.events with
  | [ first; _ ] -> Alcotest.(check int) "id 2 first" 2 first.Sim.task.Sim.id
  | _ -> Alcotest.fail "expected two events"

let test_errors () =
  Alcotest.(check bool) "cycle" true
    (match Sim.run ~servers:1 [ task 0 0 1.0 [ 1 ]; task 1 0 1.0 [ 0 ] ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "dangling dep" true
    (match Sim.run ~servers:1 [ task 0 0 1.0 [ 9 ] ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad server" true
    (match Sim.run ~servers:1 [ task 0 3 1.0 [] ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- parallel plan execution ------------------------------------------ *)

let instance_and_run algo seed =
  let instance = Workload.generate { Workload.default_spec with seed } in
  let env =
    Opt_env.create ~universe:instance.Workload.spec.Workload.universe
      instance.Workload.sources instance.Workload.query
  in
  let optimized = Optimizer.optimize algo env in
  let result = Helpers.execute_plan instance optimized.Optimized.plan in
  (instance, optimized.Optimized.plan, result)

let test_tasks_extracted_per_source_query () =
  let _, plan, result = instance_and_run Optimizer.Sja 3 in
  let tasks = Parallel_exec.tasks_of plan result in
  Alcotest.(check int) "one task per source query" (Plan.source_query_count plan)
    (List.length tasks)

let test_filter_plan_fully_parallel () =
  let instance, plan, result = instance_and_run Optimizer.Filter 5 in
  let n = Array.length instance.Workload.sources in
  let unconstrained = Parallel_exec.makespan ~serialize_sources:false ~n plan result in
  (* No dependencies between selection queries: critical path = slowest
     single query. *)
  let slowest =
    List.fold_left
      (fun acc s -> if Op.is_source_query s.Exec.op then Float.max acc s.Exec.cost else acc)
      0.0 result.Exec.steps
  in
  Alcotest.(check (float 0.001)) "critical path = slowest query" slowest unconstrained;
  (* With one-at-a-time sources, each source serializes its m queries. *)
  let serialized = Parallel_exec.makespan ~serialize_sources:true ~n plan result in
  Alcotest.(check bool) "serialization can only slow down" true
    (serialized >= unconstrained -. 1e-6)

let test_agrees_with_analytic_response_time () =
  (* With infinitely concurrent sources, the simulator's makespan on a
     round-shaped plan equals the analytic critical-path model. *)
  List.iter
    (fun seed ->
      let instance, plan, result = instance_and_run Optimizer.Sja seed in
      let n = Array.length instance.Workload.sources in
      match Response_time.of_result ~n plan result with
      | None -> Alcotest.fail "SJA plan must be round-shaped"
      | Some analytic ->
        let simulated = Parallel_exec.makespan ~serialize_sources:false ~n plan result in
        Alcotest.(check bool)
          (Printf.sprintf "simulated %.1f ≤ analytic %.1f (seed %d)" simulated analytic seed)
          true
          (simulated <= analytic +. 1e-6))
    [ 1; 2; 3; 4; 5 ]

let qcheck_sja_plus_simulates =
  Helpers.qtest ~count:40 "SJA+ plans simulate (diff chains, loads)" Helpers.spec_gen
    Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let env =
        Opt_env.create ~universe:spec.Workload.universe instance.Workload.sources
          instance.Workload.query
      in
      let plus = Optimizer.optimize Optimizer.Sja_plus env in
      let result = Helpers.execute_plan instance plus.Optimized.plan in
      let n = Array.length instance.Workload.sources in
      let serialized = Parallel_exec.makespan ~serialize_sources:true ~n plus.Optimized.plan result in
      let parallel = Parallel_exec.makespan ~serialize_sources:false ~n plus.Optimized.plan result in
      parallel <= serialized +. 1e-6
      && serialized <= result.Exec.total_cost +. 1e-6
      && parallel >= 0.0)

let suite =
  [
    Alcotest.test_case "independent tasks overlap" `Quick test_independent_tasks_overlap;
    Alcotest.test_case "same server serializes" `Quick test_same_server_serializes;
    Alcotest.test_case "dependencies respected" `Quick test_dependencies_respected;
    Alcotest.test_case "diamond critical path" `Quick test_diamond;
    Alcotest.test_case "FIFO on contended server" `Quick test_fifo_on_contended_server;
    Alcotest.test_case "input validation" `Quick test_errors;
    Alcotest.test_case "tasks per source query" `Quick test_tasks_extracted_per_source_query;
    Alcotest.test_case "filter plans fully parallel" `Quick test_filter_plan_fully_parallel;
    Alcotest.test_case "simulator vs analytic response model" `Quick
      test_agrees_with_analytic_response_time;
    qcheck_sja_plus_simulates;
  ]
