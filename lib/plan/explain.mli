(** EXPLAIN-style reporting: the optimizer's view of a plan next to what
    actually happened when it ran — estimated vs actual cost and
    cardinality per step, plus totals. The fusion-query analogue of a
    database's [EXPLAIN ANALYZE]. *)

open Fusion_cond
open Fusion_source

type line = {
  op : Op.t;
  est_cost : float;
  actual_cost : float;
  est_size : float;
  actual_size : int;
}

type t = {
  lines : line list;  (** one per plan operation, in execution order *)
  est_total : float;
  actual_total : float;
}

val analyze :
  model:Fusion_cost.Model.t ->
  est:Fusion_cost.Estimator.t ->
  sources:Source.t array ->
  conds:Cond.t array ->
  Plan.t ->
  Exec.step list ->
  t
(** Pairs {!Plan_cost} estimates with an execution's steps, in plan
    order; the actual total is their cost sum. The steps must be of
    the same plan (checked by length). *)

val pp : ?source_name:(int -> string) -> Format.formatter -> t -> unit
(** Renders an aligned table:
    {v  1) X1_1 := sq(c1, R1)     cost  62.0/ 62.0   rows  12.0/12 v} *)
