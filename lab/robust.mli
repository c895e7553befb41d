(** Robustness analysis under selectivity uncertainty.

    The paper leans on the independence assumption because "when dealing
    with autonomous sources over the Internet, we often have no
    information about the dependence of conditions". This module
    quantifies the exposure: propagate a ± factor of uncertainty on
    every matching-count estimate through the SJA recurrence with
    interval arithmetic, yielding cost bounds for a plan, and compare
    candidate plans by their worst case.

    Interval recurrence: [|X_i|] bounds scale the shrink factor by the
    uncertainty; selection costs inherit the answer-size uncertainty;
    semijoin costs take the candidate-set bounds. All cost functions are
    monotone in the sizes (the model's axioms), so evaluating at the
    interval endpoints bounds the true range under the model. *)

open Fusion_core

type interval = { lo : float; hi : float }

val plan_cost_interval :
  Opt_env.t -> uncertainty:float -> int array -> Fusion_plan.Plan.action array array ->
  interval
(** Cost bounds of a round-shaped plan (ordering + decisions) when every
    matching-count estimate may be off by a factor in
    [[1/(1+u), 1+u]]. [uncertainty] = 0 collapses to the recurrence. *)

val sja_robust : Opt_env.t -> uncertainty:float -> Optimized.t
(** Minimizes the {e worst-case} cost over all orderings (per-source
    decisions are made against the worst case too). [Optimized.est_cost]
    is the chosen plan's upper bound. *)
