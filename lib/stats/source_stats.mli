(** Per-source statistics used by cost estimation.

    The paper assumes cost functions "can use whatever information is
    available at query optimization time" and points to query-sampling
    techniques [25] for gathering it. We provide two providers with the
    same interface: an exact oracle (full scan — the best possible
    statistics) and a sampling estimator (a fixed-size uniform sample of
    the source's tuples, as an autonomous Internet source would realistically
    allow).

    {b Memo lifetime.} Estimates are memoized per condition, keyed
    structurally on {!Cond.t}. A value lives as long as its relation
    version: every lookup first compares {!Relation.version} with the
    version the memo reflects and, on a change, drops the whole memo
    (and re-samples or rebuilds histograms). So a value can outlive the
    statement that computed it — {!Fusion_source.Source} keeps one
    exact provider per source for every statement over it — and still
    equal what a fresh provider would compute now. The exact provider
    counts with compiled {!Cond_vec} scans of its own, one per
    condition, which stay valid across versions. Both tables are
    flushed whole when they hold 1024 conditions, which bounds a
    server that never sees a condition twice.

    {b Domains.} A mutex guards the memo, the provider and the scans'
    scratch, so several domains may estimate over one provider at once;
    scans of one provider serialize. Mutating the relation concurrently
    with an estimate is not supported (the estimate may reflect either
    state, or a torn one). *)

open Fusion_data
open Fusion_cond

type t

val exact : Relation.t -> t

val sampled : sample_size:int -> Prng.t -> Relation.t -> t
(** Reservoir-samples [sample_size] tuples. Cardinality and distinct-item
    counts are taken as published by the source (exact); only condition
    selectivities are estimated from the sample. *)

val histogram : ?buckets:int -> Relation.t -> t
(** Estimates from per-attribute equi-width histograms (default 20
    buckets) built once over the integer attributes, as a source might
    publish them. Comparisons and ranges interpolate within buckets;
    conjunctions assume independence; conditions over non-integer
    attributes fall back to textbook default selectivities (1/10 for
    equality, 1/4 for prefix). Histogram weights are tuple counts, so
    items with several matching tuples are overcounted — estimates are
    capped at the published distinct-item count. *)

val cardinality : t -> int
(** Number of tuples in the source relation. *)

val distinct_items : t -> int
(** Number of distinct merge-attribute values. *)

val matching_items : t -> Cond.t -> float
(** Estimated number of distinct items with at least one tuple
    satisfying the condition. *)

val item_selectivity : t -> Cond.t -> float
(** [matching_items / distinct_items] (0 if the source is empty). *)

val is_exact : t -> bool
(** True only for the {!exact} provider. *)
