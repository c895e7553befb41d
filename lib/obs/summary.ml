(* Workload-level aggregation: many runs in, percentile latency/cost
   and predicted-vs-observed cost drift out.

   Percentiles go through [Fusion_stats.Histogram] — runs are bucketed
   into an equi-width histogram over [0, max] and the percentile is the
   histogram's interpolated inverse CDF — so the numbers a dashboard
   would read off a bucketed exposition agree with what this module
   reports. Drift is grouped per plan key (usually the algorithm name):
   a plan whose mean executed cost strays from the optimizer's estimate
   beyond the tolerance is flagged, which is the signal that the cost
   model needs recalibration (see lib/cost/calibration). *)

module Histogram = Fusion_stats.Histogram

type run = {
  plan : string;
  cost : float;
  response_time : float;
  est_cost : float option;
}

type t = {
  mutable runs : run list; (* newest first *)
  buckets : int;
}

let create ?(buckets = 128) () =
  if buckets <= 0 then invalid_arg "Summary.create: buckets must be positive";
  { runs = []; buckets }

let add t ?(plan = "") ?est_cost ~cost ~response_time () =
  t.runs <- { plan; cost; response_time; est_cost } :: t.runs

let count t = List.length t.runs
let runs t = List.rev t.runs

type percentiles = {
  p50 : float;
  p90 : float;
  p99 : float;
  mean : float;
  max : float;
  n : int;
}

let empty_percentiles = { p50 = 0.0; p90 = 0.0; p99 = 0.0; mean = 0.0; max = 0.0; n = 0 }

let percentiles_of ~buckets values =
  (* Non-finite observations would poison the histogram bounds and
     every derived number; drop them rather than report NaN. Negative
     finite ones (a real clock stepping backwards mid-measurement) are
     clamped to zero so the [0, max] histogram never sees an
     out-of-range bucket. *)
  let values =
    List.filter_map
      (fun v -> if Float.is_finite v then Some (Float.max 0.0 v) else None)
      values
  in
  match values with
  | [] -> empty_percentiles
  | _ ->
    let n = List.length values in
    let top = List.fold_left Float.max 0.0 values in
    let mean = List.fold_left ( +. ) 0.0 values /. float_of_int n in
    let hi = max 1 (int_of_float (Float.ceil top)) in
    let h =
      Histogram.build ~buckets ~lo:0 ~hi
        ~values:(List.map (fun v -> (int_of_float (Float.round v), 1)) values)
    in
    let p q =
      match Histogram.percentile_opt h q with
      | Some v -> Float.min v top
      | None -> 0.0 (* unreachable: [values] is non-empty *)
    in
    { p50 = p 0.5; p90 = p 0.9; p99 = p 0.99; mean; max = top; n }

let cost_percentiles t = percentiles_of ~buckets:t.buckets (List.map (fun r -> r.cost) t.runs)

let latency_percentiles t =
  percentiles_of ~buckets:t.buckets (List.map (fun r -> r.response_time) t.runs)

type drift = {
  plan : string;
  runs : int;
  mean_est : float;
  mean_actual : float;
  ratio : float;  (** mean actual / mean estimated; 1 = the model is honest *)
  flagged : bool;
}

let default_tolerance = 0.2

let drift ?(tolerance = default_tolerance) (t : t) =
  let keys =
    List.sort_uniq compare
      (List.filter_map
         (fun r -> if r.est_cost = None then None else Some r.plan)
         t.runs)
  in
  List.map
    (fun key ->
      let mine =
        List.filter_map
          (fun r ->
            match r.est_cost with
            | Some est when r.plan = key -> Some (est, r.cost)
            | _ -> None)
          t.runs
      in
      let n = float_of_int (List.length mine) in
      let mean_est = List.fold_left (fun acc (e, _) -> acc +. e) 0.0 mine /. n in
      let mean_actual = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 mine /. n in
      let ratio = if mean_est > 0.0 then mean_actual /. mean_est else Float.nan in
      let flagged =
        (not (Float.is_nan ratio)) && Float.abs (ratio -. 1.0) > tolerance
      in
      { plan = key; runs = List.length mine; mean_est; mean_actual; ratio; flagged })
    keys

let pp_percentiles ppf p =
  Format.fprintf ppf "p50 %.1f  p90 %.1f  p99 %.1f  mean %.1f  max %.1f  (%d runs)"
    p.p50 p.p90 p.p99 p.mean p.max p.n

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "latency:  %a@,cost:     %a" pp_percentiles
    (latency_percentiles t) pp_percentiles (cost_percentiles t);
  List.iter
    (fun d ->
      Format.fprintf ppf "@,drift %-10s est %.1f -> actual %.1f  (x%.2f)%s"
        (if d.plan = "" then "(all)" else d.plan)
        d.mean_est d.mean_actual d.ratio
        (if d.flagged then "  DRIFTED" else ""))
    (drift t);
  Format.fprintf ppf "@]"
