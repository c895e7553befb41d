open Fusion_plan
open Fusion_core
module Model = Fusion_cost.Model
module Estimator = Fusion_cost.Estimator

type interval = { lo : float; hi : float }

let scale_down u v = v /. (1.0 +. u)
let scale_up u v = v *. (1.0 +. u)

(* Cost of one round under the interval semantics. The model's cost
   functions are monotone in the estimated set size (axiom-checked), so
   endpoint evaluation bounds the range. Matching-count uncertainty
   also perturbs sq answers, which we fold into the sq bound by scaling
   the receive-dependent part — conservatively approximated by scaling
   the whole sq cost. *)
let round_cost_interval (env : Opt_env.t) ~uncertainty ~first cond_index x decisions =
  let n = Opt_env.n env in
  let c = env.conds.(cond_index) in
  let lo = ref 0.0 and hi = ref 0.0 in
  for j = 0 to n - 1 do
    let by_select = first || decisions.(j) = Plan.By_select in
    if by_select then begin
      let sq = env.model.Model.sq_cost env.sources.(j) c in
      lo := !lo +. scale_down uncertainty sq;
      hi := !hi +. scale_up uncertainty sq
    end
    else begin
      lo := !lo +. env.model.Model.sjq_cost env.sources.(j) c x.lo;
      hi := !hi +. env.model.Model.sjq_cost env.sources.(j) c x.hi
    end
  done;
  { lo = !lo; hi = !hi }

let shrink_interval (env : Opt_env.t) ~uncertainty cond_index x =
  let c = env.conds.(cond_index) in
  let s = Estimator.sel_somewhere env.est c in
  {
    lo = x.lo *. Float.max 0.0 (scale_down uncertainty s);
    hi = x.hi *. Float.min 1.0 (scale_up uncertainty s);
  }

let first_interval (env : Opt_env.t) ~uncertainty cond_index =
  let size = Estimator.first_round_size env.est env.conds.(cond_index) in
  { lo = scale_down uncertainty size; hi = scale_up uncertainty size }

let plan_cost_interval env ~uncertainty ordering decisions =
  let total = ref { lo = 0.0; hi = 0.0 } in
  let x = ref { lo = 0.0; hi = 0.0 } in
  Array.iteri
    (fun r cond_index ->
      let first = r = 0 in
      let cost =
        round_cost_interval env ~uncertainty ~first cond_index !x
          (if first then [||] else decisions.(r))
      in
      total := { lo = !total.lo +. cost.lo; hi = !total.hi +. cost.hi };
      x :=
        (if first then first_interval env ~uncertainty cond_index
         else shrink_interval env ~uncertainty cond_index !x))
    ordering;
  !total

(* Worst-case-minimizing search: per (condition, source) pick the
   strategy with the smaller upper bound; per ordering accumulate upper
   bounds; keep the ordering with the least worst case. *)
let sja_robust (env : Opt_env.t) ~uncertainty =
  let m = Opt_env.m env and n = Opt_env.n env in
  let best = ref None in
  Perm.iter m (fun ordering ->
      let decisions = Array.init m (fun _ -> Array.make n Plan.By_select) in
      let hi_total = ref 0.0 in
      let x = ref { lo = 0.0; hi = 0.0 } in
      Array.iteri
        (fun r cond_index ->
          let c = env.conds.(cond_index) in
          if r = 0 then begin
            for j = 0 to n - 1 do
              hi_total :=
                !hi_total +. scale_up uncertainty (env.model.Model.sq_cost env.sources.(j) c)
            done;
            x := first_interval env ~uncertainty cond_index
          end
          else begin
            for j = 0 to n - 1 do
              let sq_hi = scale_up uncertainty (env.model.Model.sq_cost env.sources.(j) c) in
              let sjq_hi = env.model.Model.sjq_cost env.sources.(j) c !x.hi in
              if sjq_hi < sq_hi then begin
                decisions.(r).(j) <- Plan.By_semijoin;
                hi_total := !hi_total +. sjq_hi
              end
              else hi_total := !hi_total +. sq_hi
            done;
            x := shrink_interval env ~uncertainty cond_index !x
          end)
        ordering;
      match !best with
      | Some (best_hi, _, _) when best_hi <= !hi_total -> ()
      | _ -> best := Some (!hi_total, Array.copy ordering, Array.map Array.copy decisions));
  let hi, ordering, decisions = Option.get !best in
  { Optimized.plan = Builder.round_shaped ~ordering ~decisions; est_cost = hi; ordering }
