open Fusion_plan
open Fusion_core
module Model = Fusion_cost.Model
module Estimator = Fusion_cost.Estimator

(* Completion-time bookkeeping for one round: selections span from time
   zero, semijoins from the previous round's completion. *)
let round_completion ~comp_prev ~select_span ~semijoin_span ~has_semijoin =
  Float.max comp_prev
    (Float.max select_span (if has_semijoin then comp_prev +. semijoin_span else 0.0))

let estimate_response (env : Opt_env.t) ordering decisions =
  let n = Opt_env.n env in
  let model = env.model and est = env.est in
  let comp = ref 0.0 in
  let x = ref 0.0 in
  Array.iteri
    (fun r cond_index ->
      let c = env.conds.(cond_index) in
      let select_span = ref 0.0 and semijoin_span = ref 0.0 and has_semijoin = ref false in
      for j = 0 to n - 1 do
        match decisions.(r).(j) with
        | Plan.By_select ->
          select_span := Float.max !select_span (model.Model.sq_cost env.sources.(j) c)
        | Plan.By_semijoin ->
          has_semijoin := true;
          semijoin_span :=
            Float.max !semijoin_span (model.Model.sjq_cost env.sources.(j) c !x)
      done;
      comp :=
        round_completion ~comp_prev:!comp ~select_span:!select_span
          ~semijoin_span:!semijoin_span ~has_semijoin:!has_semijoin;
      x := (if r = 0 then Estimator.first_round_size est c else Estimator.shrink est c !x))
    ordering;
  !comp

(* Candidate strategies for a round under the response metric. *)
let round_strategies (env : Opt_env.t) cond_index x =
  let n = Opt_env.n env in
  let c = env.conds.(cond_index) in
  let all_select = Array.make n Plan.By_select in
  let all_semijoin = Array.make n Plan.By_semijoin in
  let greedy = Array.make n Plan.By_select in
  for j = 0 to n - 1 do
    if
      env.model.Model.sjq_cost env.sources.(j) c x
      < env.model.Model.sq_cost env.sources.(j) c
    then greedy.(j) <- Plan.By_semijoin
  done;
  [ all_select; all_semijoin; greedy ]

let sja_rt (env : Opt_env.t) =
  let m = Opt_env.m env and n = Opt_env.n env in
  let model = env.model and est = env.est in
  let best = ref None in
  Perm.iter m (fun ordering ->
      let decisions = Array.init m (fun _ -> Array.make n Plan.By_select) in
      let comp = ref 0.0 in
      let x = ref 0.0 in
      Array.iteri
        (fun r cond_index ->
          let c = env.conds.(cond_index) in
          if r = 0 then begin
            let span =
              Array.fold_left
                (fun acc s -> Float.max acc (model.Model.sq_cost s c))
                0.0 env.sources
            in
            comp := round_completion ~comp_prev:!comp ~select_span:span ~semijoin_span:0.0
                      ~has_semijoin:false;
            x := Estimator.first_round_size est c
          end
          else begin
            (* Try the three strategies; keep the best completion. *)
            let best_round = ref None in
            List.iter
              (fun strategy ->
                let select_span = ref 0.0
                and semijoin_span = ref 0.0
                and has_semijoin = ref false in
                for j = 0 to n - 1 do
                  match strategy.(j) with
                  | Plan.By_select ->
                    select_span :=
                      Float.max !select_span (model.Model.sq_cost env.sources.(j) c)
                  | Plan.By_semijoin ->
                    has_semijoin := true;
                    semijoin_span :=
                      Float.max !semijoin_span (model.Model.sjq_cost env.sources.(j) c !x)
                done;
                let completion =
                  round_completion ~comp_prev:!comp ~select_span:!select_span
                    ~semijoin_span:!semijoin_span ~has_semijoin:!has_semijoin
                in
                match !best_round with
                | Some (best_completion, _) when best_completion <= completion -> ()
                | _ -> best_round := Some (completion, Array.copy strategy))
              (round_strategies env cond_index !x);
            let completion, strategy = Option.get !best_round in
            decisions.(r) <- strategy;
            comp := completion;
            x := Estimator.shrink est c !x
          end)
        ordering;
      match !best with
      | Some (best_comp, _, _) when best_comp <= !comp -> ()
      | _ -> best := Some (!comp, Array.copy ordering, Array.map Array.copy decisions));
  let comp, ordering, decisions = Option.get !best in
  { Optimized.plan = Builder.round_shaped ~ordering ~decisions; est_cost = comp; ordering }
