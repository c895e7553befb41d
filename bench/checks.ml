(* Executable claims: every headline finding of EXPERIMENTS.md as a
   pass/fail assertion over quick, deterministic workloads. Run with

     dune exec bench/main.exe -- check

   Exit code 1 if any claim fails — the reproduction's regression gate. *)

open Fusion_core
open Fusion_plan
module Workload = Fusion_workload.Workload
module Brute = Fusion_oracle.Brute
module Adaptive = Fusion_lab.Adaptive
module Robust = Fusion_lab.Robust

let env_of ?stats (instance : Workload.instance) =
  Opt_env.create ?stats ~universe:instance.Workload.spec.Workload.universe
    instance.Workload.sources instance.Workload.query

let base_spec seed =
  {
    Workload.default_spec with
    Workload.n_sources = 8;
    universe = 4000;
    tuples_per_source = (400, 700);
    selectivities = [| 0.02; 0.3; 0.4 |];
    heterogeneity = { Workload.homogeneous with Workload.no_semijoin = 0.3 };
    seed;
  }

let est_cost algo instance = (Optimizer.optimize algo (env_of instance)).Optimized.est_cost

let actual algo instance =
  let optimized = Optimizer.optimize algo (env_of instance) in
  Runner.actual_cost instance optimized.Optimized.plan

let check_fig1 () =
  let instance = Workload.fig1 () in
  let answer =
    Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query
  in
  let expected =
    Fusion_data.Item_set.of_list [ Fusion_data.Value.String "J55"; Fusion_data.Value.String "T21" ]
  in
  ( Fusion_data.Item_set.equal answer expected,
    Format.asprintf "answer %a" Fusion_data.Item_set.pp answer )

let check_dominance () =
  let ok = ref true and detail = Buffer.create 64 in
  List.iter
    (fun seed ->
      let instance = Workload.generate (base_spec seed) in
      let filter = est_cost Optimizer.Filter instance in
      let sj = est_cost Optimizer.Sj instance in
      let sja = est_cost Optimizer.Sja instance in
      if not (sja <= sj +. 1e-6 && sj <= filter +. 1e-6) then ok := false;
      Buffer.add_string detail (Printf.sprintf "[%d: %.0f≤%.0f≤%.0f] " seed sja sj filter))
    Runner.seeds;
  (!ok, Buffer.contents detail)

let check_sja_plus () =
  let ok = ref true and detail = Buffer.create 64 in
  List.iter
    (fun seed ->
      let instance = Workload.generate (base_spec seed) in
      let sja = actual Optimizer.Sja instance in
      let plus = actual Optimizer.Sja_plus instance in
      if plus > sja +. 1e-6 then ok := false;
      Buffer.add_string detail (Printf.sprintf "[%d: %.0f≤%.0f] " seed plus sja))
    Runner.seeds;
  (!ok, Buffer.contents detail)

let check_heterogeneity_gap () =
  let spec =
    { (base_spec 101) with
      Workload.n_sources = 10;
      heterogeneity = { Workload.homogeneous with Workload.no_semijoin = 0.5 } }
  in
  let instance = Workload.generate spec in
  let sj = actual Optimizer.Sj instance and sja = actual Optimizer.Sja instance in
  (sj >= 1.15 *. sja, Printf.sprintf "sj/sja = %.2f (want ≥ 1.15)" (sj /. sja))

let check_crossover () =
  let with_sel1 sel1 =
    Workload.generate { (base_spec 101) with Workload.selectivities = [| sel1; 0.3; 0.4 |];
                        heterogeneity = Workload.homogeneous }
  in
  let selective = with_sel1 0.01 in
  let unselective = with_sel1 0.4 in
  let ratio_selective = actual Optimizer.Filter selective /. actual Optimizer.Sja selective in
  let ratio_unselective =
    actual Optimizer.Filter unselective /. actual Optimizer.Sja unselective
  in
  ( ratio_selective >= 1.5 && ratio_unselective <= 1.15,
    Printf.sprintf "filter/sja: %.2f at sel=0.01 (want ≥1.5), %.2f at sel=0.4 (want ≤1.15)"
      ratio_selective ratio_unselective )

let check_loading () =
  let spec =
    { (base_spec 101) with
      Workload.universe = 300; tuples_per_source = (4, 10);
      selectivities = [| 0.3; 0.4; 0.5 |]; n_sources = 4;
      heterogeneity = Workload.homogeneous }
  in
  let instance = Workload.generate spec in
  let sja = actual Optimizer.Sja instance and plus = actual Optimizer.Sja_plus instance in
  (sja >= 1.2 *. plus, Printf.sprintf "sja/sja+ = %.2f on tiny sources (want ≥ 1.2)" (sja /. plus))

let check_linear_in_n () =
  let time n =
    let spec = { (base_spec 7) with Workload.n_sources = n; tuples_per_source = (50, 80) } in
    let env = env_of (Workload.generate spec) in
    ignore (Optimizer.optimize Optimizer.Sja env);
    Runner.time_median (fun () -> Optimizer.optimize Optimizer.Sja env)
  in
  let ratio = time 128 /. time 16 in
  (ratio >= 3.0 && ratio <= 24.0, Printf.sprintf "t(128)/t(16) = %.1f (want ~8, accept 3-24)" ratio)

let check_brute_force () =
  let ok = ref true and detail = Buffer.create 64 in
  List.iter
    (fun seed ->
      let spec =
        { Workload.default_spec with
          Workload.n_sources = 3; universe = 200; tuples_per_source = (20, 60);
          selectivities = [| 0.1; 0.3 |]; seed }
      in
      let env = env_of (Workload.generate spec) in
      let sja = (Algorithms.sja env).Optimized.est_cost in
      let _, best = Brute.best_estimated env in
      if Float.abs (sja -. best) > 1e-6 then ok := false;
      Buffer.add_string detail (Printf.sprintf "[%d: %.1f=%.1f] " seed sja best))
    Runner.seeds;
  (!ok, Buffer.contents detail)

let check_two_phase () =
  let instance = Workload.generate { (base_spec 101) with Workload.selectivities = [| 0.05; 0.3 |] } in
  let widened =
    Array.map
      (fun s ->
        Fusion_source.Source.create
          ~capability:(Fusion_source.Source.capability s)
          ~profile:(Fusion_net.Profile.make ~recv_per_tuple:32.0 ())
          (Fusion_source.Source.relation s))
      instance.Workload.sources
  in
  let mediator = Fusion_mediator.Mediator.create_exn (Array.to_list widened) in
  match Fusion_mediator.Mediator.two_phase mediator instance.Workload.query with
  | Error msg -> (false, msg)
  | Ok (report, records) ->
    let two = report.Fusion_mediator.Mediator.actual_cost +. records.Fusion_mediator.Mediator.fetch_cost in
    let single = Fusion_mediator.Mediator.single_phase_cost mediator instance.Workload.query in
    (single >= 3.0 *. two, Printf.sprintf "single/two = %.2f at width 32 (want ≥ 3)" (single /. two))

let check_adaptive () =
  let spec =
    { (base_spec 0) with
      Workload.n_sources = 32; universe = 1200; item_skew = 1.1; entity_correlation = 0.9 }
  in
  let instance = Workload.generate spec in
  let sja = actual Optimizer.Sja instance in
  let adaptive = (Adaptive.run (env_of instance)).Adaptive.total_cost in
  (adaptive <= sja +. 1e-6, Printf.sprintf "adaptive %.0f ≤ sja %.0f" adaptive sja)

let check_search_variants () =
  let instance = Workload.generate (base_spec 101) in
  let env = env_of instance in
  let sja = (Algorithms.sja env).Optimized.est_cost in
  let bb = (Branch_bound.sja_bb env).Optimized.est_cost in
  let greedy = (Algorithms.greedy_sja env).Optimized.est_cost in
  let hill = (Iterative.sja_hill_climb env).Optimized.est_cost in
  ( Float.abs (bb -. sja) <= 1e-6 && hill <= greedy +. 1e-6 && hill >= sja -. 1e-6,
    Printf.sprintf "sja %.1f = b&b %.1f; sja ≤ hill %.1f ≤ greedy %.1f" sja bb hill greedy )

let check_cache () =
  let instance = Workload.generate (base_spec 101) in
  let mediator = Fusion_mediator.Mediator.create_exn (Array.to_list instance.Workload.sources) in
  let cache = Exec.Query_cache.create () in
  let run () =
    match Fusion_mediator.Mediator.run
      ~config:
        {
          Fusion_mediator.Mediator.Config.default with
          Fusion_mediator.Mediator.Config.algo = Optimizer.Sja;
          cache = Some cache;
        }
      mediator instance.Workload.query with
    | Ok r -> r.Fusion_mediator.Mediator.actual_cost
    | Error msg -> failwith msg
  in
  let first = run () in
  let second = run () in
  (second <= 0.01 *. first, Printf.sprintf "replay %.1f after first run %.1f (want ~0)" second first)

let check_calibration () =
  let instance = Workload.generate (base_spec 303) in
  let conds = Array.to_list (Fusion_query.Query.conditions instance.Workload.query) in
  let fitted =
    Array.map
      (fun s ->
        match Fusion_cost.Calibration.fit_source s conds with
        | Ok p ->
          Fusion_source.Source.reset_meter s;
          Fusion_source.Source.create ~capability:(Fusion_source.Source.capability s)
            ~profile:p (Fusion_source.Source.relation s)
        | Error msg -> failwith msg)
      instance.Workload.sources
  in
  let plan_from srcs =
    let env = Opt_env.create ~universe:instance.Workload.spec.Workload.universe srcs
        instance.Workload.query in
    (Optimizer.optimize Optimizer.Sja env).Optimized.plan
  in
  let cost plan = Runner.actual_cost instance plan in
  let oracle = cost (plan_from instance.Workload.sources) in
  let calibrated = cost (plan_from fitted) in
  (calibrated <= 1.02 *. oracle, Printf.sprintf "calibrated %.1f vs oracle %.1f (want ≤ +2%%)" calibrated oracle)

let check_faults () =
  let instance = Workload.generate (base_spec 101) in
  Array.iteri
    (fun j s ->
      Fusion_source.Source.set_fault s
        (Some { Fusion_source.Source.probability = 0.2;
                prng = Fusion_stats.Prng.create (7 + (31 * j)) }))
    instance.Workload.sources;
  let env = env_of instance in
  let plan = (Optimizer.optimize Optimizer.Sja env).Optimized.plan in
  Array.iter Fusion_source.Source.reset_meter instance.Workload.sources;
  let result =
    Exec.run
      ~policy:{ Exec.retries = 500; on_exhausted = `Fail }
      ~sources:instance.Workload.sources ~conds:env.Opt_env.conds plan
  in
  Array.iter (fun s -> Fusion_source.Source.set_fault s None) instance.Workload.sources;
  let truth =
    Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query
  in
  ( (not result.Exec.partial) && Fusion_data.Item_set.equal result.Exec.answer truth
    && result.Exec.failures > 0,
    Printf.sprintf "%d timeouts retried, answer exact" result.Exec.failures )

let check_robust_interval () =
  let instance = Workload.generate (base_spec 202) in
  let env = env_of instance in
  let sja = Algorithms.sja env in
  match Fusion_plan.Plan.rounds ~n:(Opt_env.n env) sja.Optimized.plan with
  | Error msg -> (false, msg)
  | Ok rs ->
    let ordering = Array.of_list (List.map (fun r -> r.Fusion_plan.Plan.cond) rs) in
    let decisions = Array.of_list (List.map (fun r -> r.Fusion_plan.Plan.actions) rs) in
    let interval = Robust.plan_cost_interval env ~uncertainty:0.5 ordering decisions in
    let actual = Runner.actual_cost instance sja.Optimized.plan in
    ( interval.Robust.lo <= actual +. 1e-6 && actual <= interval.Robust.hi +. 1e-6,
      Printf.sprintf "actual %.1f in [%.1f, %.1f]" actual interval.Robust.lo
        interval.Robust.hi )

let claims =
  [
    ("X1: Figure 1 answer is {J55, T21}", check_fig1);
    ("X2: est cost SJA ≤ SJ ≤ FILTER", check_dominance);
    ("X5: actual cost SJA+ ≤ SJA", check_sja_plus);
    ("X3: SJA ≥ 1.15x better under 50% heterogeneity", check_heterogeneity_gap);
    ("X4: crossover — semijoins win when c1 selective, not when loose", check_crossover);
    ("X5b: loading wins ≥ 1.2x on tiny sources", check_loading);
    ("X6: SJA roughly linear in n", check_linear_in_n);
    ("X7: SJA equals brute-force optimum (m=2, n=3)", check_brute_force);
    ("X8: two-phase ≥ 3x cheaper at tuple width 32", check_two_phase);
    ("X9: adaptive ≤ static SJA under entity correlation", check_adaptive);
    ("X6d/X6e: b&b exact; sja ≤ hill ≤ greedy", check_search_variants);
    ("X11: cached replay is (nearly) free", check_cache);
    ("X12: calibrated plans within 2% of oracle", check_calibration);
    ("X13: retries keep flaky federations exact", check_faults);
    ("X14: cost interval brackets the realized cost", check_robust_interval);
  ]

let run () =
  let failures = ref 0 in
  List.iter
    (fun (name, check) ->
      let passed, detail =
        try check () with exn -> (false, Printexc.to_string exn)
      in
      if not passed then incr failures;
      Printf.printf "%s %-60s %s\n%!" (if passed then "PASS" else "FAIL") name detail)
    claims;
  Printf.printf "\n%d/%d claims hold\n" (List.length claims - !failures) (List.length claims);
  if !failures > 0 then exit 1
