open Fusion_plan

let sequential (result : Exec.result) = result.Exec.total_cost

let of_result ~n plan (result : Exec.result) =
  match Plan.rounds ~n plan with
  | Error _ -> None
  | Ok rounds_list ->
    (* Recover each source query's actual cost, in operation order. The
       round analyzer accepted the plan, so queries appear grouped by
       round with n queries each. *)
    let query_costs =
      List.filter_map
        (fun step ->
          match step.Exec.op with
          | Op.Select _ -> Some (`Select, step.Exec.cost)
          | Op.Semijoin _ -> Some (`Semijoin, step.Exec.cost)
          | _ -> None)
        result.Exec.steps
    in
    let rec take k list acc =
      if k = 0 then (List.rev acc, list)
      else
        match list with
        | [] -> invalid_arg "Response_time: fewer queries than rounds require"
        | x :: rest -> take (k - 1) rest (x :: acc)
    in
    let completion =
      List.fold_left
        (fun (comp_prev, remaining) (round : Plan.round) ->
          let round_queries, rest = take n remaining [] in
          let max_by kind =
            List.fold_left
              (fun acc (k, cost) -> if k = kind then Float.max acc cost else acc)
              0.0 round_queries
          in
          let select_span = max_by `Select in
          let semijoin_span = max_by `Semijoin in
          let has_semijoin =
            Array.exists (fun a -> a = Plan.By_semijoin) round.Plan.actions
          in
          let comp =
            Float.max comp_prev
              (Float.max select_span
                 (if has_semijoin then comp_prev +. semijoin_span else 0.0))
          in
          (comp, rest))
        (0.0, query_costs) rounds_list
      |> fst
    in
    Some completion
