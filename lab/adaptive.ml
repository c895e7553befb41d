open Fusion_data
open Fusion_source
open Fusion_plan
open Fusion_core
module Model = Fusion_cost.Model
module Estimator = Fusion_cost.Estimator

type round = {
  cond : int;
  decisions : Plan.action array;
  cost : float;
  candidates : int;
  response : float;
}

type result = {
  answer : Item_set.t;
  total_cost : float;
  response_time : float;
  rounds : round list;
}

(* Price a condition given the actual candidate-set size, choosing the
   best strategy per source. *)
let price (env : Opt_env.t) cond_index x =
  let c = env.conds.(cond_index) in
  let n = Opt_env.n env in
  let decisions = Array.make n Plan.By_select in
  let total = ref 0.0 in
  for j = 0 to n - 1 do
    let sel = env.model.Model.sq_cost env.sources.(j) c in
    let sjq = env.model.Model.sjq_cost env.sources.(j) c x in
    if sjq < sel then begin
      decisions.(j) <- Plan.By_semijoin;
      total := !total +. sjq
    end
    else total := !total +. sel
  done;
  (!total, decisions)

let with_retries retries f =
  let rec attempt budget =
    try f () with Source.Timeout _ when budget > 0 -> attempt (budget - 1)
  in
  attempt retries

(* Execute one round: selections first, then semijoins over the pruned
   running difference set (the SJA+ rewrite applied at runtime). *)
let execute_round ~retries (env : Opt_env.t) cond_index decisions x =
  let c = env.conds.(cond_index) in
  let n = Opt_env.n env in
  let cost = ref 0.0 in
  let select_span = ref 0.0 in
  let semijoin_chain = ref 0.0 in
  let confirmed = ref Item_set.empty in
  for j = 0 to n - 1 do
    if decisions.(j) = Plan.By_select then begin
      let answer, step_cost =
        with_retries retries (fun () -> Source.select_query env.sources.(j) c)
      in
      cost := !cost +. step_cost;
      select_span := Float.max !select_span step_cost;
      confirmed := Item_set.union !confirmed answer
    end
  done;
  (* [confirmed] may contain items outside X; only the intersection is
     settled, and only that is safe to prune from the semijoin sets. *)
  let remaining = ref (match x with None -> None | Some x -> Some (Item_set.diff x !confirmed)) in
  for j = 0 to n - 1 do
    if decisions.(j) = Plan.By_semijoin then begin
      let probe =
        match !remaining with
        | Some r -> r
        | None -> invalid_arg "Adaptive: semijoin decision in the first round"
      in
      let answer, step_cost =
        with_retries retries (fun () -> Source.semijoin_query env.sources.(j) c probe)
      in
      cost := !cost +. step_cost;
      semijoin_chain := !semijoin_chain +. step_cost;
      confirmed := Item_set.union !confirmed answer;
      remaining := Some (Item_set.diff probe answer)
    end
  done;
  let next =
    match x with None -> !confirmed | Some x -> Item_set.inter x !confirmed
  in
  (next, !cost, !select_span +. !semijoin_chain)

let run ?(retries = 0) (env : Opt_env.t) =
  Array.iter Source.reset_meter env.sources;
  let m = Opt_env.m env in
  let all_conds = List.init m (fun i -> i) in
  (* Round 1: selections only; pick the condition expected to produce
     the smallest candidate set. *)
  let first =
    List.fold_left
      (fun best c ->
        let size = Estimator.first_round_size env.est env.conds.(c) in
        match best with
        | Some (_, best_size) when best_size <= size -> best
        | _ -> Some (c, size))
      None all_conds
    |> Option.get |> fst
  in
  let n = Opt_env.n env in
  let first_decisions = Array.make n Plan.By_select in
  let x1, cost1, response1 = execute_round ~retries env first first_decisions None in
  let rounds =
    ref
      [
        {
          cond = first;
          decisions = first_decisions;
          cost = cost1;
          candidates = Item_set.cardinal x1;
          response = response1;
        };
      ]
  in
  let total = ref cost1 in
  let response_total = ref response1 in
  let x = ref x1 in
  let remaining = ref (List.filter (fun c -> c <> first) all_conds) in
  while !remaining <> [] && not (Item_set.is_empty !x) do
    (* Choose the cheapest next condition under the ACTUAL |X|. *)
    let size = float_of_int (Item_set.cardinal !x) in
    let cond, (_, decisions) =
      List.fold_left
        (fun best c ->
          let ((cost, _) as priced) = price env c size in
          match best with
          | Some (_, (best_cost, _)) when best_cost <= cost -> best
          | _ -> Some (c, priced))
        None !remaining
      |> Option.get
    in
    let x', cost, response = execute_round ~retries env cond decisions (Some !x) in
    rounds :=
      { cond; decisions; cost; candidates = Item_set.cardinal x'; response } :: !rounds;
    total := !total +. cost;
    response_total := !response_total +. response;
    x := x';
    remaining := List.filter (fun c -> c <> cond) !remaining
  done;
  (* If we stopped early on an empty candidate set, the answer is empty
     and the skipped conditions cost nothing — a saving no static plan
     can realize. *)
  let answer = if !remaining <> [] then Item_set.empty else !x in
  {
    answer;
    total_cost = !total;
    response_time = !response_total;
    rounds = List.rev !rounds;
  }
