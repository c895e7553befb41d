(* X9 — extension: runtime feedback vs static plans.

   Static SJA commits to strategies using estimated candidate-set
   sizes; under entity-level overlap (the same entities observed by
   many sources) the independence estimate overshoots |X_i| badly and
   static plans fall back to selections. The adaptive runtime re-prices
   after every round with the actual |X_i|.

   Also shown: the early-exit case — when no entity satisfies the first
   condition anywhere, the adaptive runtime answers ∅ after one round
   and skips the rest, which no static plan can do. *)

open Fusion_core
module Workload = Fusion_workload.Workload
module Adaptive = Fusion_lab.Adaptive

let spec ~entity_correlation n =
  {
    Workload.default_spec with
    Workload.n_sources = n;
    universe = 1200;
    item_skew = 1.1;
    entity_correlation;
    tuples_per_source = (400, 700);
    selectivities = [| 0.02; 0.3; 0.4 |];
    heterogeneity = { Workload.homogeneous with Workload.no_semijoin = 0.3 };
    seed = 0;
  }

let adaptive_cost spec seed =
  let instance = Workload.generate { spec with Workload.seed = seed } in
  let env = Runner.env_of instance in
  (Adaptive.run env).Adaptive.total_cost

let mean f = List.fold_left (fun acc s -> acc +. f s) 0.0 Runner.seeds
             /. float_of_int (List.length Runner.seeds)

let run () =
  let rows =
    List.concat_map
      (fun entity_correlation ->
        List.map
          (fun n ->
            let spec = spec ~entity_correlation n in
            let sja = Runner.mean_over_seeds spec Runner.seeds Optimizer.Sja in
            let sja_plus = Runner.mean_over_seeds spec Runner.seeds Optimizer.Sja_plus in
            let adaptive = mean (adaptive_cost spec) in
            [
              Tables.f1 entity_correlation;
              Tables.i n;
              Tables.f1 sja;
              Tables.f1 sja_plus;
              Tables.f1 adaptive;
              Tables.ratio sja adaptive;
            ])
          [ 8; 32; 64 ])
      [ 0.0; 0.9 ]
  in
  Tables.print
    ~title:"X9: static plans vs the adaptive runtime (actual cost, mean of 3 seeds)"
    ~header:[ "entity corr"; "n"; "sja"; "sja+"; "adaptive"; "sja/adaptive" ]
    rows;
  (* Early exit: an impossible first condition. *)
  let impossible =
    {
      (spec ~entity_correlation:0.0 8) with
      Workload.selectivities = [| 0.0; 0.3; 0.4 |];
    }
  in
  let instance = Workload.generate { impossible with Workload.seed = 101 } in
  let env = Runner.env_of instance in
  let adaptive = Adaptive.run env in
  let _, static_cost = Runner.run_algo instance Optimizer.Sja in
  Tables.print ~title:"X9b: early exit on an empty candidate set (n=8)"
    ~header:[ "strategy"; "cost"; "rounds executed" ]
    [
      [ "static sja"; Tables.f1 static_cost; Tables.i 3 ];
      [
        "adaptive";
        Tables.f1 adaptive.Adaptive.total_cost;
        Tables.i (List.length adaptive.Adaptive.rounds);
      ];
    ]
