(* The live concurrent executor: agreement with the sequential executor
   (answers, costs, fault draws), makespan bounds, request coalescing,
   the per-query deadline, and cache composition. *)

open Fusion_data
open Fusion_core
open Fusion_plan
module Workload = Fusion_workload.Workload
module Source = Fusion_source.Source
module Prng = Fusion_stats.Prng

let conds (instance : Workload.instance) =
  Fusion_query.Query.conditions instance.Workload.query

let run_seq ?cache ?policy (instance : Workload.instance) plan =
  Array.iter Source.reset_meter instance.Workload.sources;
  Exec.run ?cache ?policy ~sources:instance.Workload.sources ~conds:(conds instance)
    plan

let run_async ?cache ?policy ?deadline (instance : Workload.instance) plan =
  Array.iter Source.reset_meter instance.Workload.sources;
  Exec_async.run ?cache ?policy ?deadline ~sources:instance.Workload.sources
    ~conds:(conds instance) plan

(* --- agreement properties ------------------------------------------------- *)

let plan_gen =
  QCheck2.Gen.(pair Helpers.spec_gen (int_range 0 (List.length Optimizer.all - 1)))

let plan_print (spec, i) =
  Printf.sprintf "%s %s" (Optimizer.name (List.nth Optimizer.all i)) (Helpers.spec_print spec)

let instance_and_plan (spec, i) =
  let instance = Workload.generate spec in
  let env =
    Opt_env.create ~universe:spec.Workload.universe instance.Workload.sources
      instance.Workload.query
  in
  (instance, (Optimizer.optimize (List.nth Optimizer.all i) env).Optimized.plan)

(* The async executor sends each source exactly the request sequence the
   sequential one does, so answer and work agree; the clock only ever
   shortens: makespan ≤ the sequential elapsed time (= total cost). *)
let agreement input =
  let instance, plan = instance_and_plan input in
  let seq = run_seq instance plan in
  let par = run_async instance plan in
  Item_set.equal seq.Exec.answer par.Exec_async.answer
  && Float.abs (seq.Exec.total_cost -. par.Exec_async.total_cost) < 1e-6
  && List.for_all2
       (fun (a : Exec.step) (b : Exec_async.step) ->
         Float.abs (a.Exec.cost -. b.Exec_async.cost) < 1e-6
         && a.Exec.result_size = b.Exec_async.result_size)
       seq.Exec.steps par.Exec_async.steps
  && par.Exec_async.makespan <= par.Exec_async.total_cost +. 1e-6
  && Float.abs
       (Array.fold_left ( +. ) 0.0 par.Exec_async.busy -. par.Exec_async.total_cost)
     < 1e-6

let async_agrees_with_seq =
  Helpers.qtest ~count:80 "async executor matches the sequential one" plan_gen
    plan_print agreement

(* Same, under fault injection: identical request sequences mean
   identical per-source PRNG draws, so even the failures line up. *)
let faulty_gen = QCheck2.Gen.(triple plan_gen (oneofl [ 0.2; 0.5 ]) (int_range 0 9999))

let faulty_print (input, p, seed) =
  Printf.sprintf "p=%.1f fault_seed=%d %s" p seed (plan_print input)

let set_faults (instance : Workload.instance) ~probability ~fault_seed =
  Array.iteri
    (fun j s ->
      Source.set_fault s
        (Some { Source.probability; prng = Prng.create (fault_seed + (31 * j)) }))
    instance.Workload.sources

let async_agrees_under_faults =
  Helpers.qtest ~count:60 "async executor matches under fault injection" faulty_gen
    faulty_print
    (fun (input, probability, fault_seed) ->
      let instance, plan = instance_and_plan input in
      let policy = { Exec.retries = 3; on_exhausted = `Partial } in
      set_faults instance ~probability ~fault_seed;
      let seq = run_seq ~policy instance plan in
      set_faults instance ~probability ~fault_seed;
      let par = run_async ~policy instance plan in
      Item_set.equal seq.Exec.answer par.Exec_async.answer
      && Float.abs (seq.Exec.total_cost -. par.Exec_async.total_cost) < 1e-6
      && seq.Exec.failures = par.Exec_async.failures
      && seq.Exec.partial = par.Exec_async.partial
      && par.Exec_async.makespan <= par.Exec_async.total_cost +. 1e-6)

(* --- unit tests ----------------------------------------------------------- *)

let slow_mirror_instance () =
  let base =
    Workload.generate
      {
        Workload.default_spec with
        Workload.n_sources = 5;
        universe = 1500;
        tuples_per_source = (200, 300);
        selectivities = [| 0.1; 0.3 |];
        seed = 77;
      }
  in
  let sources =
    Array.mapi
      (fun j s ->
        if j = 0 then
          Source.create
            ~capability:(Source.capability s)
            ~profile:(Fusion_net.Profile.scale 10.0 (Source.profile s))
            (Source.relation s)
        else s)
      base.Workload.sources
  in
  { base with Workload.sources = sources }

let test_slow_mirror_overlaps () =
  (* A 10x mirror among fast sources: concurrency must hide the fast
     sources' work behind the slow one, so makespan < total work. *)
  let instance = slow_mirror_instance () in
  let env =
    Opt_env.create ~universe:instance.Workload.spec.Workload.universe
      instance.Workload.sources instance.Workload.query
  in
  let plan = (Optimizer.optimize Optimizer.Filter env).Optimized.plan in
  let par = run_async instance plan in
  Alcotest.(check bool) "makespan strictly below sequential elapsed" true
    (par.Exec_async.makespan < par.Exec_async.total_cost);
  (* The slow mirror is the critical resource: its busy time bounds the
     makespan from below. *)
  Alcotest.(check bool) "slow source dominates" true
    (par.Exec_async.makespan >= par.Exec_async.busy.(0))

let test_duplicate_selects_coalesce () =
  let instance = Workload.fig1 () in
  let plan =
    Plan.create
      ~ops:
        [
          Op.Select { dst = "X1"; cond = 0; source = 0 };
          Op.Select { dst = "X2"; cond = 0; source = 0 };
          Op.Union { dst = "X"; args = [ "X1"; "X2" ] };
        ]
      ~output:"X"
  in
  let seq = run_seq instance plan in
  let par = run_async instance plan in
  let second = List.nth par.Exec_async.steps 1 in
  Alcotest.(check bool) "second select joined the in-flight request" true
    second.Exec_async.coalesced;
  Alcotest.(check (float 1e-9)) "coalesced step is free" 0.0 second.Exec_async.cost;
  Alcotest.check Helpers.item_set "same answer as sequential" seq.Exec.answer
    par.Exec_async.answer;
  Alcotest.(check bool) "one request instead of two" true
    (par.Exec_async.total_cost < seq.Exec.total_cost)

let test_semijoin_joins_inflight_select () =
  (* Source 0 is slow: its selection is still in flight when the
     semijoin on the same condition becomes ready, so the semijoin joins
     the request and intersects locally. *)
  let instance = slow_mirror_instance () in
  let plan =
    Plan.create
      ~ops:
        [
          Op.Select { dst = "F"; cond = 0; source = 0 };
          Op.Select { dst = "P"; cond = 1; source = 1 };
          Op.Semijoin { dst = "Y"; cond = 0; source = 0; input = "P" };
          Op.Inter { dst = "X"; args = [ "F"; "Y" ] };
        ]
      ~output:"X"
  in
  let seq = run_seq instance plan in
  let par = run_async instance plan in
  let sj = List.nth par.Exec_async.steps 2 in
  Alcotest.(check bool) "semijoin coalesced with the selection" true
    sj.Exec_async.coalesced;
  Alcotest.check Helpers.item_set "derived answer agrees with a real semijoin"
    seq.Exec.answer par.Exec_async.answer

let test_deadline_caps_retries () =
  let instance = Workload.fig1 () in
  Array.iteri
    (fun j s ->
      Source.set_fault s (Some { Source.probability = 1.0; prng = Prng.create (j + 1) }))
    instance.Workload.sources;
  let env =
    Opt_env.create ~universe:instance.Workload.spec.Workload.universe
      instance.Workload.sources instance.Workload.query
  in
  let plan = (Optimizer.optimize Optimizer.Sja env).Optimized.plan in
  let policy = { Exec.retries = 100; on_exhausted = `Partial } in
  (* A deadline below one request overhead: every query gives up after
     its first failed attempt instead of burning its 100 retries. *)
  let par = run_async ~policy ~deadline:1e-9 instance plan in
  Alcotest.(check bool) "partial" true par.Exec_async.partial;
  Alcotest.(check int) "one attempt per source query"
    (Plan.source_query_count plan)
    par.Exec_async.failures

let test_cache_composes () =
  let instance = Workload.generate { Workload.default_spec with Workload.seed = 21 } in
  let env =
    Opt_env.create ~universe:instance.Workload.spec.Workload.universe
      instance.Workload.sources instance.Workload.query
  in
  let plan = (Optimizer.optimize Optimizer.Sja env).Optimized.plan in
  let cache = Exec.Query_cache.create () in
  let cold = run_async ~cache instance plan in
  let warm = run_async ~cache instance plan in
  Alcotest.check Helpers.item_set "same answer warm" cold.Exec_async.answer
    warm.Exec_async.answer;
  Alcotest.(check (float 1e-9)) "warm run is free" 0.0 warm.Exec_async.total_cost;
  Alcotest.(check (float 1e-9)) "warm run is instant" 0.0 warm.Exec_async.makespan;
  Alcotest.(check bool) "cache recorded hits" true
    ((Exec.Query_cache.stats cache).Exec.Query_cache.hits > 0)

let test_to_exec_steps () =
  let instance = Workload.fig1 () in
  let env =
    Opt_env.create ~universe:instance.Workload.spec.Workload.universe
      instance.Workload.sources instance.Workload.query
  in
  let plan = (Optimizer.optimize Optimizer.Sja env).Optimized.plan in
  let par = run_async instance plan in
  let steps = Exec_async.to_exec_steps par.Exec_async.steps in
  Alcotest.(check int) "same length" (List.length par.Exec_async.steps)
    (List.length steps);
  List.iter2
    (fun (a : Exec_async.step) (b : Exec.step) ->
      Alcotest.(check (float 1e-9)) "cost preserved" a.Exec_async.cost b.Exec.cost)
    par.Exec_async.steps steps

(* An invalid plan fails before any source is contacted, with the
   interpreter's exception: out-of-range indices and undefined
   variables alike. *)
let test_invalid_plan_raises () =
  let instance = Workload.fig1 () in
  let raises plan =
    match run_async instance plan with
    | _ -> false
    | exception Exec.Runtime_error _ -> true
  in
  List.iter
    (fun (label, ops) ->
      Alcotest.(check bool) label true (raises (Plan.create ~ops ~output:"X")))
    [
      ("undefined variable", [ Op.Union { dst = "X"; args = [ "nope" ] } ]);
      ("source out of range", [ Op.Select { dst = "X"; cond = 0; source = 99 } ]);
      ("condition out of range", [ Op.Select { dst = "X"; cond = 99; source = 0 } ]);
    ];
  Array.iter
    (fun s ->
      Alcotest.(check int) "no request issued" 0
        (Source.totals s).Fusion_net.Meter.requests)
    instance.Workload.sources

let suite =
  [
    async_agrees_with_seq;
    async_agrees_under_faults;
    Alcotest.test_case "slow mirror: makespan < total work" `Quick
      test_slow_mirror_overlaps;
    Alcotest.test_case "duplicate selections coalesce" `Quick
      test_duplicate_selects_coalesce;
    Alcotest.test_case "semijoin joins an in-flight selection" `Quick
      test_semijoin_joins_inflight_select;
    Alcotest.test_case "deadline caps the retry budget" `Quick test_deadline_caps_retries;
    Alcotest.test_case "query cache composes with concurrency" `Quick test_cache_composes;
    Alcotest.test_case "to_exec_steps preserves the step data" `Quick test_to_exec_steps;
    Alcotest.test_case "invalid plan raises Runtime_error" `Quick test_invalid_plan_raises;
  ]
