(* X14 — extension: planning under estimate uncertainty.

   The optimizer's statistics are a snapshot; autonomous sources drift.
   We optimize on the snapshot, then let every source grow by a factor
   before executing — so all matching counts the optimizer believed are
   low by that factor. Compared: the nominal SJA plan, the
   worst-case-minimizing robust plan (interval uncertainty matching the
   drift), and what an oracle that saw the drifted data would have
   picked. Also shown: the predicted cost interval vs the realized
   cost of the nominal plan. *)

open Fusion_data
open Fusion_core
module Workload = Fusion_workload.Workload
module Prng = Fusion_stats.Prng
module Robust = Fusion_lab.Robust

let base_spec seed =
  {
    Workload.default_spec with
    Workload.n_sources = 6;
    universe = 4000;
    tuples_per_source = (300, 500);
    selectivities = [| 0.02; 0.3; 0.4 |];
    seed;
  }

(* Append [factor]x more tuples drawn like the generator's. *)
let grow instance factor seed =
  let prng = Prng.create seed in
  Array.iter
    (fun source ->
      let relation = Fusion_source.Source.relation source in
      let schema = Relation.schema relation in
      let extra = int_of_float (float_of_int (Relation.cardinality relation) *. factor) in
      for _ = 1 to extra do
        let item = Value.String (Printf.sprintf "I%06d" (Prng.int prng 4000)) in
        let attrs = List.init 3 (fun _ -> Value.Int (Prng.int prng 1000)) in
        Relation.insert relation (Tuple.create_exn schema (item :: attrs))
      done)
    instance.Workload.sources

let run () =
  let rows =
    List.concat_map
      (fun drift ->
        List.map
          (fun seed ->
            let instance = Workload.generate (base_spec seed) in
            let env = Runner.env_of instance in
            (* Plans decided on the snapshot. *)
            let nominal = Algorithms.sja env in
            let robust = Robust.sja_robust env ~uncertainty:drift in
            let ordering, decisions =
              match
                Fusion_plan.Plan.rounds ~n:(Opt_env.n env) nominal.Optimized.plan
              with
              | Ok rs ->
                ( Array.of_list (List.map (fun r -> r.Fusion_plan.Plan.cond) rs),
                  Array.of_list (List.map (fun r -> r.Fusion_plan.Plan.actions) rs) )
              | Error msg -> failwith msg
            in
            let predicted =
              Robust.plan_cost_interval env ~uncertainty:drift ordering decisions
            in
            (* The world drifts, then both plans execute. *)
            grow instance drift (seed * 17);
            let nominal_cost = Runner.actual_cost instance nominal.Optimized.plan in
            let robust_cost = Runner.actual_cost instance robust.Optimized.plan in
            (* Hindsight: replan with fresh statistics. *)
            let oracle_env = Runner.env_of instance in
            let oracle = Algorithms.sja oracle_env in
            let oracle_cost = Runner.actual_cost instance oracle.Optimized.plan in
            [
              Printf.sprintf "%.0f%%" (100.0 *. drift);
              Tables.i seed;
              Tables.f1 nominal_cost;
              Tables.f1 robust_cost;
              Tables.f1 oracle_cost;
              Printf.sprintf "[%.0f, %.0f]" predicted.Robust.lo predicted.Robust.hi;
              (if nominal_cost <= predicted.Robust.hi +. 1e-6 then "yes" else "NO");
            ])
          Runner.seeds)
      [ 0.5; 1.0 ]
  in
  Tables.print
    ~title:
      "X14: plans under data drift — nominal vs robust vs hindsight (actual cost after growth)"
    ~header:
      [ "drift"; "seed"; "nominal"; "robust"; "hindsight"; "predicted interval"; "hi bound held" ]
    rows
