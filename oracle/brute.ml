open Fusion_plan
open Fusion_core

let space_size ~m ~n =
  let orderings = Perm.count m in
  let bits = n * (m - 1) in
  if bits > 24 || orderings > 1 lsl 24 then
    invalid_arg "Brute.space_size: instance too large to enumerate";
  let total = orderings * (1 lsl bits) in
  if total > 1 lsl 24 then invalid_arg "Brute.space_size: instance too large to enumerate";
  total

let enumerate (env : Opt_env.t) =
  let m = Opt_env.m env and n = Opt_env.n env in
  ignore (space_size ~m ~n);
  let plans = ref [] in
  Perm.iter m (fun ordering ->
      let ordering = Array.copy ordering in
      let bits = n * (m - 1) in
      for mask = 0 to (1 lsl bits) - 1 do
        let decisions =
          Array.init m (fun r ->
              Array.init n (fun j ->
                  if r = 0 then Plan.By_select
                  else
                    let bit = ((r - 1) * n) + j in
                    if mask land (1 lsl bit) <> 0 then Plan.By_semijoin else Plan.By_select))
        in
        let cost = Recurrence.cost_of env ordering decisions in
        plans := (Builder.round_shaped ~ordering ~decisions, cost) :: !plans
      done);
  List.rev !plans

let best_by candidates =
  match candidates with
  | [] -> invalid_arg "Brute: empty plan space"
  | first :: rest ->
    List.fold_left
      (fun ((_, best_cost) as best) ((_, cost) as candidate) ->
        if cost < best_cost then candidate else best)
      first rest

let best_estimated env = best_by (enumerate env)

let best_actual (env : Opt_env.t) =
  let reset () = Array.iter Fusion_source.Source.reset_meter env.sources in
  let run_cost (plan, _) =
    reset ();
    match Exec.run ~sources:env.sources ~conds:env.conds plan with
    | { Exec.total_cost; _ } -> Some (plan, total_cost)
    | exception Fusion_source.Source.Unsupported _ -> None
  in
  let executed = List.filter_map run_cost (enumerate env) in
  reset ();
  best_by executed
