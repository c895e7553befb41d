open Fusion_cond
open Fusion_source

type t = {
  sources : Source.t array;
  conds : Cond.t array;
  model : Fusion_cost.Model.t;
  est : Fusion_cost.Estimator.t;
}

type stats_mode = Exact | Sampled of int * Fusion_stats.Prng.t | Histogram of int

let create ?(stats = Exact) ?universe sources query =
  let stats_of source =
    match stats with
    | Exact -> Source.stats source
    | Sampled (size, prng) ->
      Fusion_stats.Source_stats.sampled ~sample_size:size prng (Source.relation source)
    | Histogram buckets ->
      Fusion_stats.Source_stats.histogram ~buckets (Source.relation source)
  in
  let entries = Array.to_list (Array.map (fun s -> (s, stats_of s)) sources) in
  let est = Fusion_cost.Estimator.create ?universe entries in
  {
    sources;
    conds = Fusion_query.Query.conditions query;
    model = Fusion_cost.Model.internet est;
    est;
  }

let m t = Array.length t.conds
let n t = Array.length t.sources
