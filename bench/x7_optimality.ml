(* X7 — Section 3's optimality conditions, verified empirically.

   The paper (via [24]) proves the best semijoin-adaptive plan is the
   best simple plan when m = 2 or when conditions are independent. We
   (a) confirm SJA's estimated cost equals the brute-force optimum of
   its plan space on tiny instances, and (b) measure how far SJA's
   plan is from the best *actual* execution cost in that space as
   condition correlation grows — the regime where the independence
   assumption inside the estimator goes wrong and SJA degrades into
   (the paper's words) "as good a guess as we can make". *)

open Fusion_core
module Workload = Fusion_workload.Workload
module Brute = Fusion_oracle.Brute

let spec ~m ~correlation seed =
  {
    Workload.default_spec with
    Workload.n_sources = 3;
    universe = 300;
    tuples_per_source = (60, 100);
    selectivities = Array.init m (fun i -> 0.1 +. (0.15 *. float_of_int i));
    correlation;
    seed;
  }

let seeds = [ 11; 22; 33; 44; 55 ]

let run () =
  (* (a) estimated-cost optimality within the space *)
  let est_rows =
    List.map
      (fun m ->
        let matches =
          List.length
            (List.filter
               (fun seed ->
                 let instance = Workload.generate (spec ~m ~correlation:0.0 seed) in
                 let env = Runner.env_of instance in
                 let sja = Algorithms.sja env in
                 let _, best = Brute.best_estimated env in
                 Float.abs (sja.Optimized.est_cost -. best) <= 1e-6)
               seeds)
        in
        [ Tables.i m; Printf.sprintf "%d/%d" matches (List.length seeds) ])
      [ 1; 2; 3 ]
  in
  Tables.print
    ~title:"X7a: SJA matches the brute-force estimated optimum of its space (n=3)"
    ~header:[ "m"; "exact matches" ] est_rows;
  (* (b) actual-cost regret vs correlation *)
  let actual_rows =
    List.map
      (fun correlation ->
        let regrets =
          List.map
            (fun seed ->
              let instance = Workload.generate (spec ~m:3 ~correlation seed) in
              let env = Runner.env_of instance in
              let sja = Algorithms.sja env in
              let sja_actual = Runner.actual_cost instance sja.Optimized.plan in
              let _, best_actual = Brute.best_actual env in
              if best_actual = 0.0 then 1.0 else sja_actual /. best_actual)
            seeds
        in
        let mean = List.fold_left ( +. ) 0.0 regrets /. float_of_int (List.length regrets) in
        let worst = List.fold_left Float.max 0.0 regrets in
        [ Tables.f2 correlation; Tables.f3 mean; Tables.f3 worst ])
      [ 0.0; 0.5; 1.0 ]
  in
  Tables.print
    ~title:
      "X7b: SJA actual cost / best-in-space actual cost vs condition correlation (m=3, n=3)"
    ~header:[ "correlation"; "mean regret"; "worst regret" ]
    actual_rows
