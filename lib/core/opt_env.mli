(** The optimizer's working context: the query's conditions, the
    participating sources, and the cost machinery built from statistics. *)

open Fusion_cond
open Fusion_source

type t = {
  sources : Source.t array;
  conds : Cond.t array;
  model : Fusion_cost.Model.t;
  est : Fusion_cost.Estimator.t;
}

type stats_mode =
  | Exact
      (** oracle statistics (full scans), reused across statements:
          each source's {!Source.stats} *)
  | Sampled of int * Fusion_stats.Prng.t  (** sample size and generator *)
  | Histogram of int  (** per-attribute equi-width histograms; buckets *)

val create :
  ?stats:stats_mode -> ?universe:int -> Source.t array -> Fusion_query.Query.t -> t
(** Gathers per-source statistics (default [Exact]), the estimator and
    the Internet cost model. [Exact] reuses each source's persistent
    {!Source.stats}, so only conditions (or relation versions) not seen
    before cost a scan; [Sampled] and [Histogram] build fresh
    statistics for this call. [universe] as in
    {!Fusion_cost.Estimator.create}. *)

val m : t -> int
(** Number of conditions. *)

val n : t -> int
(** Number of sources. *)
