(* Adaptive runtime: soundness, early exit, feedback quality. *)

open Fusion_data
open Fusion_core
module Workload = Fusion_workload.Workload
module Adaptive = Fusion_lab.Adaptive

let env_of (instance : Workload.instance) =
  Opt_env.create ~universe:instance.Workload.spec.Workload.universe
    instance.Workload.sources instance.Workload.query

let reference (instance : Workload.instance) =
  Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query

let qcheck_adaptive_sound =
  Helpers.qtest ~count:60 "adaptive runtime computes the reference answer"
    Helpers.spec_gen Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let result = Adaptive.run (env_of instance) in
      Item_set.equal result.Adaptive.answer (reference instance))

let qcheck_adaptive_cost_matches_meters =
  Helpers.qtest ~count:40 "adaptive cost equals metered cost" Helpers.spec_gen
    Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let result = Adaptive.run (env_of instance) in
      let metered =
        Array.fold_left
          (fun acc s -> acc +. (Fusion_source.Source.totals s).Fusion_net.Meter.cost)
          0.0 instance.Workload.sources
      in
      Float.abs (result.Adaptive.total_cost -. metered) < 1e-6)

let test_rounds_cover_conditions () =
  let instance = Workload.generate { Workload.default_spec with seed = 3 } in
  let result = Adaptive.run (env_of instance) in
  let conds = List.map (fun r -> r.Adaptive.cond) result.Adaptive.rounds in
  Alcotest.(check (list int)) "all conditions, each once" [ 0; 1; 2 ]
    (List.sort compare conds)

let test_first_round_is_selections () =
  let instance = Workload.generate { Workload.default_spec with seed = 5 } in
  let result = Adaptive.run (env_of instance) in
  match result.Adaptive.rounds with
  | first :: _ ->
    Alcotest.(check bool) "all selects" true
      (Array.for_all (fun a -> a = Fusion_plan.Plan.By_select) first.Adaptive.decisions)
  | [] -> Alcotest.fail "no rounds"

let test_early_exit_on_empty () =
  let instance =
    Workload.generate
      { Workload.default_spec with selectivities = [| 0.0; 0.3; 0.4 |]; seed = 7 }
  in
  let result = Adaptive.run (env_of instance) in
  Alcotest.check Helpers.item_set "empty answer" Item_set.empty result.Adaptive.answer;
  Alcotest.(check int) "stopped after one round" 1 (List.length result.Adaptive.rounds)

let test_candidates_monotone () =
  let instance = Workload.generate { Workload.default_spec with seed = 9 } in
  let result = Adaptive.run (env_of instance) in
  let sizes = List.map (fun r -> r.Adaptive.candidates) result.Adaptive.rounds in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "candidate sets shrink" true (decreasing sizes)

let test_beats_static_on_entity_correlated_world () =
  let spec =
    {
      Workload.default_spec with
      Workload.n_sources = 16;
      universe = 1000;
      item_skew = 1.1;
      entity_correlation = 0.9;
      tuples_per_source = (300, 500);
      selectivities = [| 0.02; 0.3; 0.4 |];
      seed = 21;
    }
  in
  let instance = Workload.generate spec in
  let env = env_of instance in
  let adaptive = Adaptive.run env in
  let sja = Algorithms.sja env in
  Array.iter Fusion_source.Source.reset_meter instance.Workload.sources;
  let static =
    Fusion_plan.Exec.run ~sources:instance.Workload.sources
      ~conds:(Fusion_query.Query.conditions instance.Workload.query)
      sja.Optimized.plan
  in
  Alcotest.check Helpers.item_set "same answer" static.Fusion_plan.Exec.answer
    adaptive.Adaptive.answer;
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %.1f ≤ static %.1f" adaptive.Adaptive.total_cost
       static.Fusion_plan.Exec.total_cost)
    true
    (adaptive.Adaptive.total_cost <= static.Fusion_plan.Exec.total_cost +. 1e-6)

let suite =
  [
    qcheck_adaptive_sound;
    qcheck_adaptive_cost_matches_meters;
    Alcotest.test_case "rounds cover all conditions" `Quick test_rounds_cover_conditions;
    Alcotest.test_case "first round is selections" `Quick test_first_round_is_selections;
    Alcotest.test_case "early exit on empty candidates" `Quick test_early_exit_on_empty;
    Alcotest.test_case "candidate sets shrink" `Quick test_candidates_monotone;
    Alcotest.test_case "beats static SJA under entity correlation" `Quick
      test_beats_static_on_entity_correlated_world;
  ]
