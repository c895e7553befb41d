
type line = {
  op : Op.t;
  est_cost : float;
  actual_cost : float;
  est_size : float;
  actual_size : int;
}

type t = { lines : line list; est_total : float; actual_total : float }

let analyze ~model ~est ~sources ~conds plan (steps : Exec.step list) =
  if List.length (Plan.ops plan) <> List.length steps then
    invalid_arg "Explain.analyze: execution does not match the plan";
  let estimate = Plan_cost.estimate ~model ~est ~sources ~conds plan in
  (* Plan_cost.sizes only keeps final bindings; recover per-step size
     estimates by replaying the ops with a fresh estimate of each
     prefix. Cheaper: re-run estimate and read op-aligned sizes — we
     instead recompute sizes per step from the steps' own order, using
     the fact that [Plan_cost.estimate]'s op_costs align and sizes for
     non-rebound variables are exact. For rebound variables the final
     estimate is reported on each of their bindings. *)
  let size_of var = Option.value ~default:0.0 (List.assoc_opt var estimate.Plan_cost.sizes) in
  let lines =
    List.mapi
      (fun i step ->
        {
          op = step.Exec.op;
          est_cost = estimate.Plan_cost.op_costs.(i);
          actual_cost = step.Exec.cost;
          est_size = size_of (Op.dst step.Exec.op);
          actual_size = step.Exec.result_size;
        })
      steps
  in
  {
    lines;
    est_total = estimate.Plan_cost.total;
    actual_total = List.fold_left (fun acc step -> acc +. step.Exec.cost) 0.0 steps;
  }

let pp ?source_name ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i line ->
      Format.fprintf ppf "%2d) %-38s cost %8.1f /%8.1f   rows %8.1f /%6d@," (i + 1)
        (Format.asprintf "%a" (Op.pp ?source_name) line.op)
        line.est_cost line.actual_cost line.est_size line.actual_size)
    t.lines;
  Format.fprintf ppf "total%43.1f /%8.1f@]" t.est_total t.actual_total
