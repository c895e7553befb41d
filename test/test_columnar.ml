(* Oracle equivalence for the columnar data plane.

   Three layers, each checked against an independent reference:
   - the struct-of-arrays {!Relation} against {!Relation_ref} (the
     boxed-row implementation it replaced) under mixed insert/delete
     workloads — every observable: tuples, items, probes, predicates;
   - {!Cond_vec} compiled column scans against [Cond.eval] row by row,
     including reuse of one compiled scan across mutations;
   - {!Plan_compile} against {!Exec.run} over random optimized plan
     DAGs — answers, step lists, costs, cache hit/miss protocol — and
     a compiled plan reused across deltas against fresh full runs
     (the PR-9 incremental-equals-full property, on columnar). *)

open Fusion_data
open Fusion_cond
open Fusion_core
open Fusion_plan
module Source = Fusion_source.Source
module Workload = Fusion_workload.Workload
module Prng = Fusion_stats.Prng
module Query = Fusion_query.Query
module Delta = Fusion_delta.Delta
module Maintained = Fusion_delta.Maintained
module Item_set_ref = Fusion_oracle.Item_set_ref
module Relation_ref = Fusion_oracle.Relation_ref

(* --- columnar Relation ≡ Relation_ref ------------------------------------ *)

(* A mixed workload over the abc schema: tuples drawn from a small
   universe so inserts collide, deletes hit both present and absent
   tuples, and duplicate rows exercise the multi-position index. *)
let abc_tuple_gen =
  QCheck2.Gen.(
    let* k = int_range 0 7 in
    let* a = oneof [ return Value.Null; map (fun a -> Value.Int a) (int_range (-3) 6) ] in
    let* b = string_size ~gen:(char_range 'a' 'c') (int_range 0 2) in
    return
      (Tuple.create_exn Helpers.abc_schema
         [ Value.String (Printf.sprintf "k%d" k); a; Value.String b ]))

type wop = Insert of Tuple.t | Remove of Tuple.t

let wop_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun t -> Insert t) abc_tuple_gen;
        map (fun t -> Remove t) abc_tuple_gen;
      ])

let wop_print = function
  | Insert t -> "+" ^ Format.asprintf "%a" Tuple.pp t
  | Remove t -> "-" ^ Format.asprintf "%a" Tuple.pp t

let sorted_rows tuples = List.sort Tuple.compare tuples

(* Conditions over the abc schema that touch every node kind the
   compiler distinguishes: the N_eq fast path, memoized comparisons on
   both columns, Between / In_list / Prefix classes, null tests. *)
let abc_cond_gen : Cond.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let cmp = oneofl [ Cond.Eq; Ne; Lt; Le; Gt; Ge ] in
  let leaf =
    oneof
      [
        return Cond.True;
        map2 (fun op v -> Cond.Cmp ("A", op, Value.Int v)) cmp (int_range (-4) 7);
        map2
          (fun lo len -> Cond.Between ("A", Value.Int lo, Value.Int (lo + len)))
          (int_range (-4) 4) (int_range 0 6);
        map
          (fun vs -> Cond.In_list ("A", List.map (fun v -> Value.Int v) vs))
          (list_size (int_range 1 4) (int_range (-2) 6));
        map (fun s -> Cond.Prefix ("B", s))
          (string_size ~gen:(char_range 'a' 'c') (int_range 0 2));
        return (Cond.Is_null "A");
        map2 (fun op s -> Cond.Cmp ("B", op, Value.String s)) cmp
          (string_size ~gen:(char_range 'a' 'c') (int_range 0 2));
        map (fun k -> Cond.Cmp ("M", Eq, Value.String (Printf.sprintf "k%d" k)))
          (int_range 0 8);
      ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      oneof
        [
          leaf;
          map2 (fun a b -> Cond.And (a, b)) (tree (depth - 1)) (tree (depth - 1));
          map2 (fun a b -> Cond.Or (a, b)) (tree (depth - 1)) (tree (depth - 1));
          map (fun a -> Cond.Not a) (tree (depth - 1));
        ]
  in
  tree 2

let probe_gen =
  QCheck2.Gen.(
    map
      (fun ks ->
        Item_set.of_list (List.map (fun k -> Value.String (Printf.sprintf "k%d" k)) ks))
      (list_size (int_range 0 6) (int_range 0 9)))

let workload_gen =
  QCheck2.Gen.(
    triple
      (list_size (int_range 0 40) wop_gen)
      abc_cond_gen probe_gen)

let workload_print (ops, cond, probe) =
  Printf.sprintf "ops=[%s] cond=%s probe=%s"
    (String.concat "; " (List.map wop_print ops))
    (Cond.to_string cond)
    (Format.asprintf "%a" Item_set.pp probe)

let relation_matches_ref =
  Helpers.qtest ~count:300 "columnar relation ≡ boxed-row reference" workload_gen
    workload_print (fun (ops, cond, probe) ->
      let col = Relation.create ~name:"R" Helpers.abc_schema in
      let ref_ = Relation_ref.create ~name:"R" Helpers.abc_schema in
      let pred = Cond.compile Helpers.abc_schema cond in
      let ok = ref true in
      let agree () =
        ok :=
          !ok
          && Relation.cardinality col = Relation_ref.cardinality ref_
          && sorted_rows (Relation.tuples col) = sorted_rows (Relation_ref.tuples ref_)
          && Item_set.equal (Relation.items col) (Relation_ref.items ref_)
          && Relation.distinct_item_count col = Relation_ref.distinct_item_count ref_
          && Item_set.equal (Relation.select_items col pred)
               (Relation_ref.select_items ref_ pred)
          && Item_set.equal
               (Relation.semijoin_items col pred probe)
               (Relation_ref.semijoin_items ref_ pred probe)
          && Relation.count_matching col pred = Relation_ref.count_matching ref_ pred
          && sorted_rows (Relation.select_tuples col pred)
             = sorted_rows (Relation_ref.select_tuples ref_ pred)
      in
      agree ();
      List.iter
        (fun op ->
          (match op with
          | Insert t ->
            Relation.insert col t;
            Relation_ref.insert ref_ t
          | Remove t ->
            let a = Relation.remove col t and b = Relation_ref.remove ref_ t in
            ok := !ok && a = b);
          (* per-item evidence agrees for every live item *)
          Item_set.iter
            (fun item ->
              ok :=
                !ok
                && sorted_rows (Relation.tuples_of_item col item)
                   = sorted_rows (Relation_ref.tuples_of_item ref_ item))
            (Relation.items col);
          agree ())
        ops;
      !ok)

(* --- Cond_vec ≡ Cond.eval ------------------------------------------------ *)

(* The compiled scan must agree with per-row interpretation on the same
   relation — including after further inserts and deletes, since a
   compiled scan's lifetime spans mutations (wrappers and maintained
   queries cache them). *)
let cond_vec_matches_eval =
  Helpers.qtest ~count:300 "compiled column scan ≡ row-by-row eval" workload_gen
    workload_print (fun (ops, cond, probe) ->
      let rel = Relation.create ~name:"R" Helpers.abc_schema in
      let vec = Cond_vec.compile rel cond in
      let schema = Helpers.abc_schema in
      let reference_select () =
        Relation.select_items rel (fun t -> Cond.eval schema cond t)
      in
      let reference_semijoin () =
        Relation.semijoin_items rel (fun t -> Cond.eval schema cond t) probe
      in
      let reference_count () =
        Relation.fold
          (fun acc t -> if Cond.eval schema cond t then acc + 1 else acc)
          0 rel
      in
      let ok = ref true in
      let agree () =
        ok :=
          !ok
          && Item_set.equal (Cond_vec.select_items vec) (reference_select ())
          && Item_set.equal (Cond_vec.semijoin_items vec probe) (reference_semijoin ())
          && Cond_vec.count_rows vec = reference_count ()
          && Cond_vec.count_items vec = Item_set.cardinal (reference_select ())
      in
      agree ();
      List.iter
        (fun op ->
          (match op with
          | Insert t -> Relation.insert rel t
          | Remove t -> ignore (Relation.remove rel t));
          agree ())
        ops;
      !ok)

(* --- Plan_compile ≡ Exec over random plan DAGs --------------------------- *)

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

let same_steps (a : Exec.step list) (b : Exec.step list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Exec.step) (y : Exec.step) ->
         x.Exec.op = y.Exec.op
         && Float.abs (x.Exec.cost -. y.Exec.cost) < 1e-9
         && x.Exec.result_size = y.Exec.result_size)
       a b

let same_result (a : Exec.result) (b : Exec.result) =
  Item_set.equal a.Exec.answer b.Exec.answer
  && Float.abs (a.Exec.total_cost -. b.Exec.total_cost) < 1e-6
  && a.Exec.failures = b.Exec.failures
  && a.Exec.partial = b.Exec.partial
  && same_steps a.Exec.steps b.Exec.steps

let run_interp instance plan ?cache () =
  Array.iter Source.reset_meter instance.Workload.sources;
  Exec.run ?cache ~sources:instance.Workload.sources
    ~conds:(Query.conditions instance.Workload.query)
    plan

let compiled_equals_interpreted =
  Helpers.qtest ~count:80 "compiled plan ≡ interpreted execution" plan_gen plan_print
    (fun input ->
      let instance, plan = instance_and_plan input in
      let conds = Query.conditions instance.Workload.query in
      match Plan_compile.compile ~sources:instance.Workload.sources ~conds plan with
      | Error msg -> QCheck2.Test.fail_reportf "compile failed: %s" msg
      | Ok cp ->
        let reference = run_interp instance plan () in
        Array.iter Source.reset_meter instance.Workload.sources;
        let compiled = Plan_compile.run cp in
        (* and again: the compiled form holds mutable scratch — reuse
           must be invisible *)
        Array.iter Source.reset_meter instance.Workload.sources;
        let again = Plan_compile.run cp in
        Array.iter Source.reset_meter instance.Workload.sources;
        let answer_only = Plan_compile.answer cp in
        same_result reference compiled
        && same_result compiled again
        && Item_set.equal answer_only reference.Exec.answer)

(* The session cache is served by the engine walking the compiled
   plan; the interpreter is the protocol's reference. *)
let compiled_cache_protocol =
  Helpers.qtest ~count:60 "compiled plan follows the cache protocol" plan_gen
    plan_print (fun input ->
      let instance, plan = instance_and_plan input in
      let conds = Query.conditions instance.Workload.query in
      let ci = Exec.Query_cache.create () and cc = Exec.Query_cache.create () in
      (* cold then warm, on both executors: answers, steps, costs and
         the hit/miss accounting must track each other run for run *)
      let ok = ref true in
      for _round = 1 to 2 do
        let ri = run_interp instance plan ~cache:ci () in
        Array.iter Source.reset_meter instance.Workload.sources;
        let ra = Exec_async.run ~cache:cc ~sources:instance.Workload.sources ~conds plan in
        let rc =
          {
            Exec.answer = ra.Exec_async.answer;
            steps = Exec_async.to_exec_steps ra.Exec_async.steps;
            total_cost = ra.Exec_async.total_cost;
            failures = ra.Exec_async.failures;
            partial = ra.Exec_async.partial;
          }
        in
        let si = Exec.Query_cache.stats ci and sc = Exec.Query_cache.stats cc in
        ok :=
          !ok && same_result ri rc
          && si.Exec.Query_cache.hits = sc.Exec.Query_cache.hits
          && si.Exec.Query_cache.misses = sc.Exec.Query_cache.misses
          && Float.abs (si.Exec.Query_cache.saved_cost -. sc.Exec.Query_cache.saved_cost)
             < 1e-6
      done;
      !ok)

(* --- compiled plan reused across deltas ---------------------------------- *)

(* The serving layer keeps one compiled plan per cached query and reruns
   it as sources mutate: compiled scans must track the data. After each
   random insert/delete batch, rerunning the *same* compiled plan must
   equal a fresh interpreted run, and the maintained incremental answer
   must equal both (incremental ≡ full, on the columnar plane). *)
let mutation_gen =
  QCheck2.Gen.(
    triple Helpers.spec_gen
      (int_range 0 (List.length Optimizer.all - 1))
      (int_range 1 3))

let mutation_print (spec, i, rounds) =
  Printf.sprintf "%s, %d rounds, %s"
    (Optimizer.name (List.nth Optimizer.all i))
    rounds (Helpers.spec_print spec)

let random_delta prng instance rel =
  let spec = instance.Workload.spec in
  let m = Query.m instance.Workload.query in
  let existing = Relation.tuples rel in
  let n_del = Prng.int prng 4 and n_ins = Prng.int prng 4 in
  let deletes = List.filteri (fun i _ -> i < n_del) existing in
  let inserts =
    List.init n_ins (fun _ ->
        let item =
          Printf.sprintf "I%06d" (Prng.int prng (max 1 spec.Workload.universe))
        in
        Tuple.create_exn instance.Workload.schema
          (Value.String item
          :: List.init m (fun _ -> Value.Int (Prng.int prng 1500))))
  in
  Delta.make ~inserts ~deletes

let compiled_tracks_deltas =
  Helpers.qtest ~count:30 "compiled plan + maintained answer track deltas"
    mutation_gen mutation_print (fun (spec, algo_i, rounds) ->
      let instance, plan = instance_and_plan (spec, algo_i) in
      let conds = Query.conditions instance.Workload.query in
      match Plan_compile.compile ~sources:instance.Workload.sources ~conds plan with
      | Error msg -> QCheck2.Test.fail_reportf "compile failed: %s" msg
      | Ok cp ->
        let m =
          Helpers.check_ok
            (Maintained.create ~query:instance.Workload.query
               ~sources:(Array.to_list instance.Workload.sources)
               plan)
        in
        let prng = Prng.create (spec.Workload.seed + 67) in
        let n = Array.length instance.Workload.sources in
        let ok = ref true in
        let agree () =
          let full = (run_interp instance plan ()).Exec.answer in
          Array.iter Source.reset_meter instance.Workload.sources;
          let compiled = Plan_compile.answer cp in
          ok :=
            !ok && Item_set.equal compiled full
            && Item_set.equal (Maintained.answer m) full
        in
        agree ();
        for _round = 1 to rounds do
          let j = Prng.int prng n in
          let rel = Source.relation instance.Workload.sources.(j) in
          ignore (Maintained.mutate m ~source:j (random_delta prng instance rel));
          agree ()
        done;
        !ok)

(* The statistics kernel counts without building the answer: once the
   scan is warm (scratch grown, dictionary classes evaluated) a count
   allocates a constant handful of words — the binding closures — and
   nothing per row or per item. *)
let test_count_items_allocates_constant () =
  let rel =
    Helpers.abc_relation
      (List.init 5000 (fun i ->
           Helpers.abc_row (Printf.sprintf "k%04d" (i mod 2500)) (i mod 100) "x"))
  in
  let cond =
    Cond.And (Cond.Cmp ("A", Cond.Lt, Value.Int 60), Cond.Prefix ("B", "x"))
  in
  let vec = Cond_vec.compile rel cond in
  let expected = Item_set.cardinal (Cond_vec.select_items vec) in
  Alcotest.(check int) "cold count" expected (Cond_vec.count_items vec);
  (* Minor plus direct major allocation: an answer-sized array would
     bypass the minor heap. *)
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = allocated () in
  let n = Cond_vec.count_items vec in
  let words = allocated () -. w0 in
  Alcotest.(check int) "warm count" expected n;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words allocated for %d matching items" words expected)
    true (words < 64.0)

let suite =
  [
    relation_matches_ref;
    cond_vec_matches_eval;
    Alcotest.test_case "count_items allocates O(1) on a warm scan" `Quick
      test_count_items_allocates_constant;
    compiled_equals_interpreted;
    compiled_cache_protocol;
    compiled_tracks_deltas;
  ]
