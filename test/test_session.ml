(* Query cache, Explain, Axioms, Catalog — the session-level features. *)

open Fusion_data
open Fusion_core
open Fusion_plan
module Workload = Fusion_workload.Workload
module Mediator = Fusion_mediator.Mediator
module Cache = Exec.Query_cache
module Axioms = Fusion_oracle.Axioms

let dmv_sql =
  "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"

let test_cache_second_run_free () =
  let instance = Workload.fig1 () in
  let mediator = Mediator.create_exn (Array.to_list instance.Workload.sources) in
  let cache = Cache.create () in
  let first = Helpers.check_ok (Mediator.run_sql
      ~config:
        {
          Mediator.Config.default with
          Mediator.Config.algo = Optimizer.Filter;
          cache = Some cache;
        }
      mediator dmv_sql) in
  let second = Helpers.check_ok (Mediator.run_sql
      ~config:
        {
          Mediator.Config.default with
          Mediator.Config.algo = Optimizer.Filter;
          cache = Some cache;
        }
      mediator dmv_sql) in
  Alcotest.check Helpers.item_set "same answer" first.Mediator.answer second.Mediator.answer;
  Alcotest.(check (float 0.001)) "second run free" 0.0 second.Mediator.actual_cost;
  let stats = Cache.stats cache in
  Alcotest.(check int) "6 misses (2 conds × 3 sources)" 6 stats.Cache.misses;
  Alcotest.(check int) "6 hits on replay" 6 stats.Cache.hits;
  Alcotest.(check (float 0.001)) "saved = first run's cost" first.Mediator.actual_cost
    stats.Cache.saved_cost

let test_cache_shared_condition_across_queries () =
  let instance = Workload.fig1 () in
  let mediator = Mediator.create_exn (Array.to_list instance.Workload.sources) in
  let cache = Cache.create () in
  ignore (Helpers.check_ok (Mediator.run_sql
      ~config:
        {
          Mediator.Config.default with
          Mediator.Config.algo = Optimizer.Filter;
          cache = Some cache;
        }
      mediator dmv_sql));
  (* A different query sharing the dui condition. *)
  let other = "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.D < 1995" in
  let report = Helpers.check_ok (Mediator.run_sql
      ~config:
        {
          Mediator.Config.default with
          Mediator.Config.algo = Optimizer.Filter;
          cache = Some cache;
        }
      mediator other) in
  let stats = Cache.stats cache in
  Alcotest.(check int) "dui answers reused at 3 sources" 3 stats.Cache.hits;
  (* Answer must match an uncached run. *)
  let fresh = Helpers.check_ok (Mediator.run_sql
      ~config:{ Mediator.Config.default with Mediator.Config.algo = Optimizer.Filter }
      mediator other) in
  Alcotest.check Helpers.item_set "cached = fresh" fresh.Mediator.answer report.Mediator.answer

let test_cache_serves_semijoins () =
  let instance = Workload.fig1 () in
  let sources = instance.Workload.sources in
  let conds = Fusion_query.Query.conditions instance.Workload.query in
  let cache = Cache.create () in
  (* Warm the cache with a selection, then run a semijoin on the same
     (condition, source): it must execute locally at zero cost. *)
  let warm =
    Plan.create ~ops:[ Op.Select { dst = "X"; cond = 1; source = 0 } ] ~output:"X"
  in
  ignore (Exec.run ~cache ~sources ~conds warm);
  let probe_plan =
    Plan.create
      ~ops:
        [
          Op.Select { dst = "Y"; cond = 0; source = 1 };
          Op.Semijoin { dst = "Z"; cond = 1; source = 0; input = "Y" };
        ]
      ~output:"Z"
  in
  let result = Exec.run ~cache ~sources ~conds probe_plan in
  let semijoin_step =
    List.find (fun s -> match s.Exec.op with Op.Semijoin _ -> true | _ -> false)
      result.Exec.steps
  in
  Alcotest.(check (float 0.001)) "semijoin free" 0.0 semijoin_step.Exec.cost;
  (* Same answer as uncached execution. *)
  let uncached = Exec.run ~sources ~conds probe_plan in
  Alcotest.check Helpers.item_set "same answer" uncached.Exec.answer result.Exec.answer

let qcheck_cache_transparent =
  Helpers.qtest ~count:40 "cached sessions return uncached answers" Helpers.spec_gen
    Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let mediator = Mediator.create_exn (Array.to_list instance.Workload.sources) in
      let cache = Cache.create () in
      let with_cache =
        Helpers.check_ok (Mediator.run
          ~config:
            {
              Mediator.Config.default with
              Mediator.Config.algo = Optimizer.Sja;
              cache = Some cache;
            }
          mediator instance.Workload.query)
      in
      let replay =
        Helpers.check_ok (Mediator.run
          ~config:
            {
              Mediator.Config.default with
              Mediator.Config.algo = Optimizer.Sja;
              cache = Some cache;
            }
          mediator instance.Workload.query)
      in
      let fresh = Helpers.check_ok (Mediator.run
          ~config:{ Mediator.Config.default with Mediator.Config.algo = Optimizer.Sja }
          mediator instance.Workload.query) in
      Item_set.equal with_cache.Mediator.answer fresh.Mediator.answer
      && Item_set.equal replay.Mediator.answer fresh.Mediator.answer
      && replay.Mediator.actual_cost <= with_cache.Mediator.actual_cost +. 1e-6)

(* --- Explain ----------------------------------------------------------- *)

let test_explain_alignment () =
  let instance = Workload.generate { Workload.default_spec with seed = 13 } in
  let env =
    Opt_env.create ~universe:instance.Workload.spec.Workload.universe
      instance.Workload.sources instance.Workload.query
  in
  let sja = Optimizer.optimize Optimizer.Sja env in
  let result = Helpers.execute_plan instance sja.Optimized.plan in
  let explain =
    Explain.analyze ~model:env.Opt_env.model ~est:env.Opt_env.est
      ~sources:env.Opt_env.sources ~conds:env.Opt_env.conds sja.Optimized.plan
      result.Exec.steps
  in
  Alcotest.(check int) "one line per op" (List.length (Plan.ops sja.Optimized.plan))
    (List.length explain.Explain.lines);
  Alcotest.(check (float 0.001)) "actual total matches" result.Exec.total_cost
    explain.Explain.actual_total;
  Alcotest.(check (float 0.001)) "estimated total matches recurrence" sja.Optimized.est_cost
    explain.Explain.est_total;
  (* Exact statistics: estimated sq costs equal actual sq costs. *)
  List.iter
    (fun line ->
      match line.Explain.op with
      | Op.Select _ ->
        Alcotest.(check (float 0.001)) "sq est = actual" line.Explain.actual_cost
          line.Explain.est_cost
      | _ -> ())
    explain.Explain.lines;
  (* It renders. *)
  let text = Format.asprintf "%a" (Explain.pp ?source_name:None) explain in
  Alcotest.(check bool) "non-empty rendering" true (String.length text > 100)

let test_explain_rejects_mismatch () =
  let instance = Workload.fig1 () in
  let env = Opt_env.create instance.Workload.sources instance.Workload.query in
  let plan_a =
    Plan.create ~ops:[ Op.Select { dst = "X"; cond = 0; source = 0 } ] ~output:"X"
  in
  let plan_b =
    Plan.create
      ~ops:
        [
          Op.Select { dst = "X"; cond = 0; source = 0 };
          Op.Union { dst = "Y"; args = [ "X" ] };
        ]
      ~output:"Y"
  in
  let result = Helpers.execute_plan instance plan_a in
  Alcotest.(check bool) "length mismatch detected" true
    (match
       Explain.analyze ~model:env.Opt_env.model ~est:env.Opt_env.est
         ~sources:env.Opt_env.sources ~conds:env.Opt_env.conds plan_b
         result.Exec.steps
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Axioms ------------------------------------------------------------ *)

let test_internet_model_passes_axioms () =
  let instance = Workload.generate { Workload.default_spec with seed = 17 } in
  let env =
    Opt_env.create ~universe:instance.Workload.spec.Workload.universe
      instance.Workload.sources instance.Workload.query
  in
  Alcotest.(check int) "no violations" 0
    (List.length
       (Axioms.check env.Opt_env.model ~sources:env.Opt_env.sources
          ~conds:env.Opt_env.conds))

let test_axioms_catch_bad_model () =
  let instance = Workload.fig1 () in
  let env = Opt_env.create instance.Workload.sources instance.Workload.query in
  (* A model that rewards splitting semijoin sets: overhead is negative
     per item — superadditive and non-monotone. *)
  let bad =
    {
      Fusion_cost.Model.sq_cost = (fun _ _ -> 1.0);
      sjq_cost = (fun _ _ x -> x *. x);
      lq_cost = (fun _ -> -5.0);
    }
  in
  let violations =
    Axioms.check bad ~sources:env.Opt_env.sources ~conds:env.Opt_env.conds
  in
  Alcotest.(check bool) "violations found" true (List.length violations > 0);
  Alcotest.(check bool) "negative lq reported" true
    (List.exists
       (fun v ->
         String.length v.Axioms.description >= 2
         && String.sub v.Axioms.description 0 2 = "lq")
       violations)

(* --- Catalog ------------------------------------------------------------ *)

let write_demo_csv dir name =
  let relation =
    Helpers.abc_relation ~name [ Helpers.abc_row "k1" 1 "x"; Helpers.abc_row "k2" 2 "y" ]
  in
  Csv_io.write_file relation (Filename.concat dir (name ^ ".csv"))

let with_temp_dir f =
  let dir = Filename.temp_file "fusion_catalog" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun entry -> Sys.remove (Filename.concat dir entry)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_catalog_parse () =
  with_temp_dir (fun dir ->
      write_demo_csv dir "alpha";
      write_demo_csv dir "beta";
      let text =
        "# two sources\n\
         [source alpha]\n\
         file = alpha.csv\n\
         capability = no-semijoin\n\
         overhead = 100 # dial-up\n\
         \n\
         [source beta]\n\
         file = beta.csv\n\
         scale = 2.0\n"
      in
      let sources = Helpers.check_ok (Fusion_source.Catalog.parse ~dir text) in
      Alcotest.(check int) "two sources" 2 (List.length sources);
      let alpha = List.nth sources 0 in
      Alcotest.(check string) "name" "alpha" (Fusion_source.Source.name alpha);
      Alcotest.(check bool) "no native semijoin" false
        (Fusion_source.Source.capability alpha).Fusion_source.Capability.native_semijoin;
      Alcotest.(check (float 0.001)) "overhead" 100.0
        (Fusion_source.Source.profile alpha).Fusion_net.Profile.request_overhead;
      let beta = List.nth sources 1 in
      Alcotest.(check (float 0.001)) "scaled overhead"
        (2.0 *. Fusion_net.Profile.default.Fusion_net.Profile.request_overhead)
        (Fusion_source.Source.profile beta).Fusion_net.Profile.request_overhead)

let test_catalog_errors () =
  with_temp_dir (fun dir ->
      let err text = Helpers.check_err "catalog" (Fusion_source.Catalog.parse ~dir text) in
      ignore (err "");
      ignore (err "[source a]\ncapability = full\n");
      ignore (err "file = a.csv\n");
      ignore (err "[source a]\nfile = a.csv\nwhat = 3\n");
      ignore (err "[source a]\nfile = a.csv\ncapability = psychic\n");
      ignore (err "[source a]\nfile = missing.csv\n");
      ignore (err "[source a]\nfile = a.csv\noverhead = -3\n");
      write_demo_csv dir "a";
      ignore (err "[source a]\nfile = a.csv\n[source a]\nfile = a.csv\n"))

let suite =
  [
    Alcotest.test_case "cache: replay is free" `Quick test_cache_second_run_free;
    Alcotest.test_case "cache: shared condition across queries" `Quick
      test_cache_shared_condition_across_queries;
    Alcotest.test_case "cache: serves semijoins from selections" `Quick
      test_cache_serves_semijoins;
    qcheck_cache_transparent;
    Alcotest.test_case "explain: alignment and rendering" `Quick test_explain_alignment;
    Alcotest.test_case "explain: rejects mismatched execution" `Quick
      test_explain_rejects_mismatch;
    Alcotest.test_case "axioms: internet model passes" `Quick
      test_internet_model_passes_axioms;
    Alcotest.test_case "axioms: bad model caught" `Quick test_axioms_catch_bad_model;
    Alcotest.test_case "catalog: parse and build" `Quick test_catalog_parse;
    Alcotest.test_case "catalog: errors" `Quick test_catalog_errors;
  ]
