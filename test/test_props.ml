(* Property suites: item-set algebra (including the set identity that
   justifies SJA+'s difference-based pruning) and the Plan_text
   serialization as an exact inverse pair. *)

open Fusion_data
open Fusion_core
open Fusion_plan
module Workload = Fusion_workload.Workload

let set_gen =
  QCheck2.Gen.(
    map
      (fun l -> Item_set.of_list (List.map (fun i -> Value.Int i) l))
      (list_size (int_range 0 15) (int_range 0 9)))

let set_print s = Format.asprintf "%a" Item_set.pp s

let qset ?(count = 300) name prop =
  Helpers.qtest ~count name
    QCheck2.Gen.(triple set_gen set_gen set_gen)
    (fun (a, b, c) -> Printf.sprintf "a=%s b=%s c=%s" (set_print a) (set_print b) (set_print c))
    prop

let item_set_identities =
  qset "item-set identities" (fun (a, b, _) ->
      Item_set.equal (Item_set.union a Item_set.empty) a
      && Item_set.equal (Item_set.inter a Item_set.empty) Item_set.empty
      && Item_set.equal (Item_set.diff a Item_set.empty) a
      && Item_set.equal (Item_set.diff a a) Item_set.empty
      && Item_set.equal (Item_set.union a a) a
      && Item_set.equal (Item_set.inter a a) a
      && Item_set.equal (Item_set.diff a b) (Item_set.diff a (Item_set.inter a b)))

let item_set_commutativity =
  qset "item-set commutativity and associativity" (fun (a, b, c) ->
      Item_set.equal (Item_set.union a b) (Item_set.union b a)
      && Item_set.equal (Item_set.inter a b) (Item_set.inter b a)
      && Item_set.equal
           (Item_set.union a (Item_set.union b c))
           (Item_set.union (Item_set.union a b) c)
      && Item_set.equal
           (Item_set.inter a (Item_set.inter b c))
           (Item_set.inter (Item_set.inter a b) c))

(* SJA+ prunes the probe of the second fragment by what the first
   fragment already answered: with answer fragments F1, F2 and probe P,

     (F1 ∩ P) ∪ (F2 ∩ (P − (F1 ∩ P)))  =  (F1 ∪ F2) ∩ P

   i.e. shrinking the second semijoin's input by the difference loses
   nothing — the identity Section 4's postoptimization relies on. *)
let sja_plus_pruning_invariant =
  qset "difference-based pruning loses no answers" (fun (f1, f2, p) ->
      let first = Item_set.inter f1 p in
      let second = Item_set.inter f2 (Item_set.diff p first) in
      Item_set.equal
        (Item_set.union first second)
        (Item_set.inter (Item_set.union f1 f2) p))

(* --- plans over random workloads ----------------------------------------- *)

(* A random optimized plan: random small world, random algorithm. *)
let plan_gen =
  QCheck2.Gen.(pair Helpers.spec_gen (int_range 0 (List.length Optimizer.all - 1)))

let plan_print (spec, i) =
  Printf.sprintf "%s %s" (Optimizer.name (List.nth Optimizer.all i)) (Helpers.spec_print spec)

let instance_and_plan (spec, i) =
  let instance = Workload.generate spec in
  let env =
    Opt_env.create ~universe:spec.Workload.universe instance.Workload.sources
      instance.Workload.query
  in
  (instance, (Optimizer.optimize (List.nth Optimizer.all i) env).Optimized.plan)

let plan_text_round_trip =
  Helpers.qtest ~count:80 "plan text round-trips exactly" plan_gen plan_print
    (fun input ->
      let _, plan = instance_and_plan input in
      match Plan_text.of_string (Plan_text.to_string plan) with
      | Ok plan' -> plan' = plan
      | Error msg -> QCheck2.Test.fail_reportf "reparse failed: %s" msg)

let suite =
  [
    item_set_identities;
    item_set_commutativity;
    sja_plus_pruning_invariant;
    plan_text_round_trip;
  ]
