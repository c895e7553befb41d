(** Workload-level aggregation: many runs in, percentile latency/cost
    and predicted-vs-observed cost drift out.

    Percentiles are computed through {!Fusion_stats.Histogram} (runs
    bucketed into an equi-width histogram, percentile = interpolated
    inverse CDF), so they agree with what a dashboard would read off a
    bucketed exposition; they are approximate to within one bucket
    width. *)

type run = {
  plan : string;  (** grouping key for drift, usually the algorithm name *)
  cost : float;
  response_time : float;
  est_cost : float option;  (** the optimizer's prediction, when known *)
}

type t

val create : ?buckets:int -> unit -> t
(** [buckets] (default 128) sets percentile resolution. *)

val add :
  t -> ?plan:string -> ?est_cost:float -> cost:float -> response_time:float ->
  unit -> unit

val count : t -> int
val runs : t -> run list
(** In insertion order. *)

type percentiles = {
  p50 : float;
  p90 : float;
  p99 : float;
  mean : float;
  max : float;
  n : int;
}

val empty_percentiles : percentiles

val percentiles_of : buckets:int -> float list -> percentiles
(** The percentile computation underlying {!cost_percentiles} and
    {!latency_percentiles}, over a bare value list: non-finite values
    are dropped, negative finite ones clamped to zero, then the values
    are bucketed into an equi-width histogram over [0, ceil max] and
    read back through the interpolated inverse CDF. Exposed so other
    aggregators ({!Window}) provably agree with summary numbers. *)

val cost_percentiles : t -> percentiles
val latency_percentiles : t -> percentiles
(** Over [response_time]. All-zero on an empty summary. *)

type drift = {
  plan : string;
  runs : int;
  mean_est : float;
  mean_actual : float;
  ratio : float;  (** mean actual / mean estimated; 1 = the model is honest *)
  flagged : bool;  (** |ratio - 1| exceeded the tolerance *)
}

val default_tolerance : float
(** 0.2: flag plans whose executed cost strays more than 20% from the
    estimate. *)

val drift : ?tolerance:float -> t -> drift list
(** One entry per plan key that has runs with estimates, in key
    order. *)

val pp_percentiles : Format.formatter -> percentiles -> unit
val pp : Format.formatter -> t -> unit
