(* A mediator session: repeated analyst queries over one federation,
   exercising the session-level features — the selection cache (shared
   conditions answered locally after the first query), EXPLAIN-style
   estimated-vs-actual reporting, and the runtime-adaptive executor. *)

open Fusion_data
open Fusion_core
open Fusion_plan
module Workload = Fusion_workload.Workload
module Mediator = Fusion_mediator.Mediator
module Cache = Exec.Query_cache
module Adaptive = Fusion_lab.Adaptive

let () =
  let instance =
    Workload.generate
      {
        Workload.default_spec with
        Workload.n_sources = 6;
        universe = 3000;
        tuples_per_source = (400, 600);
        selectivities = [| 0.05; 0.2; 0.3 |];
        seed = 7;
      }
  in
  let mediator = Mediator.create_exn (Array.to_list instance.Workload.sources) in
  let queries =
    [
      "SELECT u1.M FROM U u1, U u2 WHERE u1.M = u2.M AND u1.A1 < 50 AND u2.A2 < 200";
      "SELECT u1.M FROM U u1, U u2 WHERE u1.M = u2.M AND u1.A1 < 50 AND u2.A3 < 300";
      "SELECT u1.M FROM U u1, U u2, U u3 \
       WHERE u1.M = u2.M AND u2.M = u3.M \
       AND u1.A1 < 50 AND u2.A2 < 200 AND u3.A3 < 300";
    ]
  in
  (* 1. The session cache across three related queries. *)
  let cache = Cache.create () in
  Format.printf "=== session with a shared cache ===@.";
  List.iteri
    (fun i sql ->
      match Mediator.run_sql
          ~config:
            {
              Mediator.Config.default with
              Mediator.Config.algo = Optimizer.Sja;
              cache = Some cache;
            }
          mediator sql with
      | Ok report ->
        Format.printf "query %d: cost %8.1f, %3d answers@." (i + 1)
          report.Mediator.actual_cost
          (Item_set.cardinal report.Mediator.answer)
      | Error msg -> Format.printf "query %d failed: %s@." (i + 1) msg)
    queries;
  let stats = Cache.stats cache in
  Format.printf "cache: %d hits, %d misses, %.1f cost saved@.@." stats.Cache.hits
    stats.Cache.misses stats.Cache.saved_cost;
  (* 2. EXPLAIN ANALYZE for the last query. *)
  let query =
    match
      Fusion_query.Sql.parse_fusion ~schema:(Mediator.schema mediator) ~union:"U"
        (List.nth queries 2)
    with
    | Ok q -> q
    | Error msg -> failwith msg
  in
  let env = Opt_env.create (Mediator.sources mediator) query in
  let optimized = Optimizer.optimize Optimizer.Sja env in
  Array.iter Fusion_source.Source.reset_meter (Mediator.sources mediator);
  let result =
    Exec.run ~sources:(Mediator.sources mediator) ~conds:env.Opt_env.conds
      optimized.Optimized.plan
  in
  let explain =
    Explain.analyze ~model:env.Opt_env.model ~est:env.Opt_env.est
      ~sources:env.Opt_env.sources ~conds:env.Opt_env.conds optimized.Optimized.plan
      result.Exec.steps
  in
  Format.printf "=== explain analyze (SJA, estimated / actual) ===@.%a@.@."
    (Explain.pp ?source_name:None)
    explain;
  (* 3. The adaptive runtime on the same query. *)
  let adaptive = Adaptive.run env in
  Format.printf "=== adaptive runtime ===@.";
  List.iteri
    (fun i round ->
      Format.printf "round %d: c%d, cost %8.1f, %4d candidates left@." (i + 1)
        (round.Adaptive.cond + 1) round.Adaptive.cost round.Adaptive.candidates)
    adaptive.Adaptive.rounds;
  Format.printf "adaptive total %.1f vs static SJA %.1f (same answer: %b)@."
    adaptive.Adaptive.total_cost result.Exec.total_cost
    (Item_set.equal adaptive.Adaptive.answer result.Exec.answer)
