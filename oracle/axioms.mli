(** Numeric checks of the cost-model axioms (Section 2.4).

    The optimality arguments behind SJ/SJA assume (1) non-negative
    source-query costs and (2) subadditivity of semijoin cost in the
    semijoin set — "there is no benefit in splitting a semijoin set".
    Any user-supplied {!Model.t} can be spot-checked here before being
    handed to the optimizers; the built-in Internet model satisfies both
    by construction (and by the property tests). *)

open Fusion_cond
open Fusion_source
open Fusion_cost

type violation = {
  source : string;
  cond : Cond.t;
  description : string;
}

val check :
  ?set_sizes:float list ->
  Model.t ->
  sources:Source.t array ->
  conds:Cond.t array ->
  violation list
(** Evaluates non-negativity of [sq]/[lq] and, for every pair drawn from
    [set_sizes] (default [0; 1; 10; 100; 1000]), subadditivity
    [sjq(x+y) ≤ sjq(x) + sjq(y)] and monotonicity [x ≤ y ⇒ sjq(x) ≤
    sjq(y)] at every (source, condition). Infinite costs (unsupported
    operations) are exempt from the comparisons. Returns all violations
    found (empty = model passes). *)
