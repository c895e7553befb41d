(* The parallel response-time model and its optimizer. *)

open Fusion_data
open Fusion_core
open Fusion_plan
module Workload = Fusion_workload.Workload
module Response_opt = Fusion_lab.Response_opt
module Response_time = Fusion_lab.Response_time

let env_of (instance : Workload.instance) =
  Opt_env.create ~universe:instance.Workload.spec.Workload.universe
    instance.Workload.sources instance.Workload.query

let measure (instance : Workload.instance) plan =
  let result = Helpers.execute_plan instance plan in
  (result, Response_time.of_result ~n:(Array.length instance.Workload.sources) plan result)

let test_filter_response_is_slowest_query () =
  (* A filter plan has no dependencies: response = the costliest single
     query. *)
  let instance = Workload.generate { Workload.default_spec with seed = 2 } in
  let env = env_of instance in
  let filter = Algorithms.filter env in
  let result, response = measure instance filter.Optimized.plan in
  let response = Option.get response in
  let slowest =
    List.fold_left
      (fun acc s ->
        if Op.is_source_query s.Exec.op then Float.max acc s.Exec.cost else acc)
      0.0 result.Exec.steps
  in
  Alcotest.(check (float 0.001)) "response = slowest query" slowest response

let test_semijoin_rounds_serialize () =
  (* A pure semijoin second round must wait for round one: response ≥
     round-1 span + round-2 span, and > the slowest single query if both
     rounds cost something. *)
  let instance = Workload.generate { Workload.default_spec with seed = 4 } in
  let n = Array.length instance.Workload.sources in
  let decisions =
    [|
      Array.make n Plan.By_select;
      Array.make n Plan.By_semijoin;
      Array.make n Plan.By_select;
    |]
  in
  let plan = Builder.round_shaped ~ordering:[| 0; 1; 2 |] ~decisions in
  let result, response = measure instance plan in
  let response = Option.get response in
  let round_span pred =
    List.fold_left
      (fun acc s -> if pred s.Exec.op then Float.max acc s.Exec.cost else acc)
      0.0 result.Exec.steps
  in
  let r1 = round_span (fun op -> match op with Op.Select { cond = 0; _ } -> true | _ -> false) in
  let r2 = round_span (fun op -> match op with Op.Semijoin _ -> true | _ -> false) in
  Alcotest.(check bool)
    (Printf.sprintf "response %.1f ≥ %.1f + %.1f" response r1 r2)
    true
    (response >= r1 +. r2 -. 1e-6)

let test_non_round_shaped_is_none () =
  let instance = Workload.fig1 () in
  let plan =
    Plan.create
      ~ops:
        [
          Op.Select { dst = "A"; cond = 0; source = 0 };
          Op.Select { dst = "B"; cond = 1; source = 1 };
          Op.Diff { dst = "C"; left = "A"; right = "B" };
        ]
      ~output:"C"
  in
  let result = Helpers.execute_plan instance plan in
  Alcotest.(check bool) "not round shaped" true
    (Response_time.of_result ~n:3 plan result = None);
  Alcotest.(check (float 0.001)) "sequential = total" result.Exec.total_cost
    (Response_time.sequential result)

let qcheck_response_bounded_by_work =
  Helpers.qtest ~count:60 "response time ≤ total work for SJA plans" Helpers.spec_gen
    Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let env = env_of instance in
      let sja = Algorithms.sja env in
      let result, response = measure instance sja.Optimized.plan in
      match response with
      | None -> QCheck2.Test.fail_report "SJA plan must be round-shaped"
      | Some r -> r <= result.Exec.total_cost +. 1e-6 && r >= 0.0)

let qcheck_sja_rt_sound =
  Helpers.qtest ~count:60 "SJA-RT plans compute the reference answer" Helpers.spec_gen
    Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let env = env_of instance in
      let rt = Response_opt.sja_rt env in
      let result = Helpers.execute_plan instance rt.Optimized.plan in
      Item_set.equal result.Exec.answer
        (Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query))

let qcheck_sja_rt_estimated_response_not_worse =
  Helpers.qtest ~count:60 "SJA-RT estimated response ≤ SJA's estimated response"
    Helpers.spec_gen Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let env = env_of instance in
      let sja = Algorithms.sja env in
      let rt = Response_opt.sja_rt env in
      (* Score SJA's plan under the response metric via its rounds. *)
      match Plan.rounds ~n:(Opt_env.n env) sja.Optimized.plan with
      | Error msg -> QCheck2.Test.fail_reportf "SJA not round-shaped: %s" msg
      | Ok rounds_list ->
        let ordering = Array.of_list (List.map (fun r -> r.Plan.cond) rounds_list) in
        let decisions = Array.of_list (List.map (fun r -> r.Plan.actions) rounds_list) in
        let sja_response = Response_opt.estimate_response env ordering decisions in
        rt.Optimized.est_cost <= sja_response +. 1e-6)

let suite =
  [
    Alcotest.test_case "filter response = slowest query" `Quick
      test_filter_response_is_slowest_query;
    Alcotest.test_case "semijoin rounds serialize" `Quick test_semijoin_rounds_serialize;
    Alcotest.test_case "non-round plans have no response model" `Quick
      test_non_round_shaped_is_none;
    qcheck_response_bounded_by_work;
    qcheck_sja_rt_sound;
    qcheck_sja_rt_estimated_response_not_worse;
  ]
