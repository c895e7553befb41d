(* The optimizer suite: soundness on random worlds, the paper's
   dominance claims, classification invariants, brute-force agreement. *)

open Fusion_data
open Fusion_core
open Fusion_plan
module Workload = Fusion_workload.Workload
module Brute = Fusion_oracle.Brute

let env_of (instance : Workload.instance) =
  Opt_env.create ~universe:instance.Workload.spec.Workload.universe
    instance.Workload.sources instance.Workload.query

let optimize algo instance = Optimizer.optimize algo (env_of instance)

let run_plan instance plan =
  (Helpers.execute_plan instance plan).Exec.answer

let reference (instance : Workload.instance) =
  Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query

(* -- Soundness: every algorithm's plan computes the fusion answer. ---- *)

let qcheck_soundness algo =
  Helpers.qtest ~count:60
    (Printf.sprintf "%s plans compute the reference answer" (Optimizer.name algo))
    Helpers.spec_gen Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let optimized = optimize algo instance in
      Item_set.equal (run_plan instance optimized.Optimized.plan) (reference instance))

(* -- Structure: each algorithm stays in its plan class. ---------------- *)

let qcheck_class_invariants =
  Helpers.qtest ~count:60 "algorithms respect their plan classes" Helpers.spec_gen
    Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let n = Array.length instance.Workload.sources in
      let m = Fusion_query.Query.m instance.Workload.query in
      let check algo pred =
        let optimized = optimize algo instance in
        (match Plan.validate ~m ~n optimized.Optimized.plan with
        | Ok () -> ()
        | Error msg -> QCheck2.Test.fail_reportf "%s invalid: %s" (Optimizer.name algo) msg);
        pred optimized.Optimized.plan
      in
      check Optimizer.Filter Plan.is_filter
      && check Optimizer.Filter (Plan.is_semijoin ~n)
      && check Optimizer.Sj (Plan.is_semijoin ~n)
      && check Optimizer.Sja (Plan.is_semijoin_adaptive ~n)
      && check Optimizer.Sja Plan.is_simple
      && check Optimizer.Greedy_sj (Plan.is_semijoin ~n)
      && check Optimizer.Greedy_sja (Plan.is_semijoin_adaptive ~n))

(* -- Dominance: larger plan spaces can only help. ---------------------- *)

let qcheck_dominance =
  Helpers.qtest ~count:80 "est cost: SJA ≤ SJ ≤ FILTER and SJA ≤ greedy-SJA"
    Helpers.spec_gen Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let cost algo = (optimize algo instance).Optimized.est_cost in
      let filter = cost Optimizer.Filter
      and sj = cost Optimizer.Sj
      and sja = cost Optimizer.Sja
      and greedy_sj = cost Optimizer.Greedy_sj
      and greedy_sja = cost Optimizer.Greedy_sja in
      let eps = 1e-6 in
      sja <= sj +. eps && sj <= filter +. eps && sja <= greedy_sja +. eps
      && greedy_sja <= greedy_sj +. eps && sj <= greedy_sj +. eps)

(* SJA+ must not be worse than SJA under the whole-plan estimator. *)
let qcheck_sja_plus_dominates =
  Helpers.qtest ~count:80 "Plan_cost: SJA+ ≤ SJA" Helpers.spec_gen Helpers.spec_print
    (fun spec ->
      let instance = Workload.generate spec in
      let env = env_of instance in
      let whole_plan_cost (optimized : Optimized.t) =
        (Plan_cost.estimate ~model:env.Opt_env.model ~est:env.Opt_env.est
           ~sources:env.Opt_env.sources ~conds:env.Opt_env.conds optimized.Optimized.plan)
          .Plan_cost.total
      in
      let sja = Optimizer.optimize Optimizer.Sja env in
      let sja_plus = Optimizer.optimize Optimizer.Sja_plus env in
      whole_plan_cost sja_plus <= whole_plan_cost sja +. 1e-6
      && sja_plus.Optimized.est_cost <= whole_plan_cost sja +. 1e-6)

(* -- Brute force agreement on tiny instances. -------------------------- *)

let tiny_spec_gen =
  QCheck2.Gen.(
    let* n_sources = int_range 1 3 in
    let* m = int_range 1 3 in
    let* sels = array_repeat m (float_range 0.05 0.6) in
    let* no_semijoin = oneofl [ 0.0; 0.5 ] in
    let* seed = int_range 0 100_000 in
    return
      {
        Workload.default_spec with
        n_sources;
        universe = 60;
        tuples_per_source = (10, 40);
        selectivities = sels;
        heterogeneity = { Workload.homogeneous with Workload.no_semijoin };
        seed;
      })

let qcheck_sja_matches_brute_force =
  Helpers.qtest ~count:40 "SJA = brute-force optimum over its space" tiny_spec_gen
    Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let env = env_of instance in
      let sja = Algorithms.sja env in
      let _, best = Brute.best_estimated env in
      Float.abs (sja.Optimized.est_cost -. best) <= 1e-6 +. (1e-9 *. Float.abs best))

let qcheck_sj_never_beats_brute =
  Helpers.qtest ~count:40 "SJ within brute-force space bounds" tiny_spec_gen
    Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let env = env_of instance in
      let sj = Algorithms.sj env in
      let _, best = Brute.best_estimated env in
      sj.Optimized.est_cost >= best -. 1e-6)

(* -- Deterministic scenario tests. ------------------------------------- *)

let heterogeneous_instance () =
  Workload.generate
    {
      Workload.default_spec with
      n_sources = 6;
      selectivities = [| 0.02; 0.4; 0.5 |];
      heterogeneity = { Workload.homogeneous with Workload.no_semijoin = 0.5 };
      seed = 7;
    }

let test_sja_adapts_per_source () =
  (* With half the sources semijoin-less and a very selective first
     condition, SJA should mix strategies within some round. *)
  let instance = heterogeneous_instance () in
  let optimized = optimize Optimizer.Sja instance in
  let rounds =
    Helpers.check_ok
      (Plan.rounds ~n:(Array.length instance.Workload.sources) optimized.Optimized.plan)
  in
  let mixed =
    List.exists
      (fun r ->
        Array.exists (fun a -> a = Plan.By_select) r.Plan.actions
        && Array.exists (fun a -> a = Plan.By_semijoin) r.Plan.actions)
      rounds
  in
  Alcotest.(check bool) "some round mixes strategies" true mixed;
  let sj_cost = (optimize Optimizer.Sj instance).Optimized.est_cost in
  Alcotest.(check bool) "strictly better than SJ here" true
    (optimized.Optimized.est_cost < sj_cost)

let test_semijoins_win_on_selective_first_condition () =
  let instance =
    Workload.generate
      {
        Workload.default_spec with
        n_sources = 6;
        universe = 5000;
        tuples_per_source = (800, 1000);
        selectivities = [| 0.01; 0.5 |];
        seed = 3;
      }
  in
  let sja = optimize Optimizer.Sja instance in
  let has_semijoin =
    List.exists
      (fun op -> match op with Op.Semijoin _ -> true | _ -> false)
      (Plan.ops sja.Optimized.plan)
  in
  Alcotest.(check bool) "uses semijoins" true has_semijoin;
  let filter_cost = (optimize Optimizer.Filter instance).Optimized.est_cost in
  Alcotest.(check bool) "beats filter" true (sja.Optimized.est_cost < filter_cost)

let test_ordering_prefers_selective_condition_first () =
  let instance =
    Workload.generate
      {
        Workload.default_spec with
        n_sources = 4;
        universe = 5000;
        tuples_per_source = (800, 1000);
        selectivities = [| 0.6; 0.01; 0.3 |];
        seed = 11;
      }
  in
  let sja = optimize Optimizer.Sja instance in
  Alcotest.(check int) "c2 (selective) first" 1 sja.Optimized.ordering.(0)

let test_filter_cost_is_sum_of_selections () =
  let instance = Workload.fig1 () in
  let env = env_of instance in
  let filter = Algorithms.filter env in
  let expected =
    Array.fold_left
      (fun acc c ->
        Array.fold_left
          (fun acc s -> acc +. env.Opt_env.model.Fusion_cost.Model.sq_cost s c)
          acc env.Opt_env.sources)
      0.0 env.Opt_env.conds
  in
  Alcotest.(check (float 0.001)) "mn selections" expected filter.Optimized.est_cost

let test_greedy_equals_exact_on_uniform_world () =
  (* Homogeneous sources, clearly ranked selectivities: the greedy
     ordering (most selective first) is the exact optimum. *)
  let instance =
    Workload.generate
      {
        Workload.default_spec with
        n_sources = 5;
        selectivities = [| 0.4; 0.05; 0.2 |];
        seed = 13;
      }
  in
  let exact = (optimize Optimizer.Sja instance).Optimized.est_cost in
  let greedy = (optimize Optimizer.Greedy_sja instance).Optimized.est_cost in
  Alcotest.(check (float 0.001)) "same cost" exact greedy

let test_single_condition_all_algorithms_agree () =
  let instance =
    Workload.generate
      { Workload.default_spec with selectivities = [| 0.2 |]; seed = 17 }
  in
  (* With m = 1 every plan is the same mn-selection round. *)
  let costs = List.map (fun a -> (optimize a instance).Optimized.est_cost) Optimizer.all in
  match costs with
  | first :: rest ->
    List.iter (fun c -> Alcotest.(check (float 0.001)) "equal" first c) rest
  | [] -> Alcotest.fail "no algorithms"

let test_perm_count_and_iter () =
  Alcotest.(check int) "3!" 6 (Perm.count 3);
  Alcotest.(check int) "0!" 1 (Perm.count 0);
  let seen = Hashtbl.create 16 in
  Perm.iter 4 (fun p -> Hashtbl.replace seen (Array.to_list p) ());
  Alcotest.(check int) "all 24 distinct" 24 (Hashtbl.length seen)

let test_optimizer_names () =
  List.iter
    (fun algo ->
      match Optimizer.of_name (Optimizer.name algo) with
      | Ok a -> Alcotest.(check bool) "round trip" true (a = algo)
      | Error msg -> Alcotest.fail msg)
    Optimizer.all;
  ignore (Helpers.check_err "unknown" (Optimizer.of_name "magic"))

(* -- Shared statistics: exact statistics belong to the source and
   outlive the statement, so domains optimizing at once share them. Two
   domains walking the same statements (in opposite orders) must choose
   exactly what a sequential run over a fresh copy of the world
   chooses. *)

let test_statistics_shared_across_domains () =
  let spec = { Workload.default_spec with Workload.seed = 41; n_sources = 5 } in
  let statements (instance : Workload.instance) =
    let conds = Array.to_list (Fusion_query.Query.conditions instance.Workload.query) in
    List.init 24 (fun i ->
        Fusion_query.Query.create_exn
          (List.map
             (function
               | Fusion_cond.Cond.Cmp (a, op, Value.Int v) ->
                 Fusion_cond.Cond.Cmp (a, op, Value.Int (v + (37 * i)))
               | c -> c)
             conds))
  in
  let choose sources query =
    let o = Optimizer.optimize Optimizer.Sja_plus (Opt_env.create sources query) in
    (Plan.ops o.Optimized.plan, Plan.output o.Optimized.plan, o.Optimized.est_cost)
  in
  let sequential =
    let instance = Workload.generate spec in
    List.map (choose instance.Workload.sources) (statements instance)
  in
  let shared = Workload.generate spec in
  let stmts = statements shared in
  let forward = Domain.spawn (fun () -> List.map (choose shared.Workload.sources) stmts) in
  let backward =
    Domain.spawn (fun () ->
        List.rev (List.map (choose shared.Workload.sources) (List.rev stmts)))
  in
  let forward = Domain.join forward and backward = Domain.join backward in
  Alcotest.(check bool) "forward domain = sequential" true (forward = sequential);
  Alcotest.(check bool) "backward domain = sequential" true (backward = sequential)

let suite =
  [
    Alcotest.test_case "statistics shared across domains" `Quick
      test_statistics_shared_across_domains;
    qcheck_soundness Optimizer.Filter;
    qcheck_soundness Optimizer.Sj;
    qcheck_soundness Optimizer.Sja;
    qcheck_soundness Optimizer.Sja_plus;
    qcheck_soundness Optimizer.Greedy_sj;
    qcheck_soundness Optimizer.Greedy_sja;
    qcheck_class_invariants;
    qcheck_dominance;
    qcheck_sja_plus_dominates;
    qcheck_sja_matches_brute_force;
    qcheck_sj_never_beats_brute;
    Alcotest.test_case "SJA adapts per source" `Quick test_sja_adapts_per_source;
    Alcotest.test_case "semijoins win on selective first condition" `Quick
      test_semijoins_win_on_selective_first_condition;
    Alcotest.test_case "selective condition ordered first" `Quick
      test_ordering_prefers_selective_condition_first;
    Alcotest.test_case "filter cost = sum of mn selections" `Quick
      test_filter_cost_is_sum_of_selections;
    Alcotest.test_case "greedy matches exact on uniform world" `Quick
      test_greedy_equals_exact_on_uniform_world;
    Alcotest.test_case "single condition: all agree" `Quick
      test_single_condition_all_algorithms_agree;
    Alcotest.test_case "permutations" `Quick test_perm_count_and_iter;
    Alcotest.test_case "algorithm names" `Quick test_optimizer_names;
  ]
