(* The incremental subsystem: sym_diff kernels against the reference
   implementation, Relation.remove, delta parsing and application, the
   candidate-set delta rules, incremental-equals-full over randomized
   mutation batches, the version-vector answer cache, and standing-query
   subscriptions end to end. *)

open Fusion_data
open Fusion_core
module Workload = Fusion_workload.Workload
module Source = Fusion_source.Source
module Prng = Fusion_stats.Prng
module Query = Fusion_query.Query
module Delta = Fusion_delta.Delta
module Change = Fusion_delta.Change
module Maintained = Fusion_delta.Maintained
module Serve = Fusion_serve.Server
module Mediator = Fusion_mediator.Mediator
module Answer_cache = Fusion_plan.Answer_cache
module Metrics = Fusion_obs.Metrics
module Item_set_ref = Fusion_oracle.Item_set_ref

(* --- sym_diff: flat kernels against the reference ------------------------ *)

let dense_int_gen =
  QCheck2.Gen.(
    let* off = int_range 0 200 in
    map (fun i -> Value.Int (off + i)) (int_range 0 300))

let sparse_value_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_range 0 10_000);
        map (fun s -> Value.String s) (string_size (int_range 1 3));
      ])

let sym_diff_agrees name value_gen =
  Helpers.qtest ~count:200 name
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 400) value_gen)
        (list_size (int_range 0 400) value_gen))
    (fun (a, b) -> Printf.sprintf "|a|=%d |b|=%d" (List.length a) (List.length b))
    (fun (la, lb) ->
      let fa = Item_set.of_list la and fb = Item_set.of_list lb in
      let ra = Item_set_ref.of_list la and rb = Item_set_ref.of_list lb in
      let fd = Item_set.sym_diff fa fb and rd = Item_set_ref.sym_diff ra rb in
      List.equal
        (fun a b -> Value.compare a b = 0)
        (Item_set.to_list fd)
        (Item_set_ref.to_list rd)
      && Item_set.cardinal fd = Item_set_ref.cardinal rd
      (* the defining identity, inside the flat implementation *)
      && Item_set.equal fd
           (Item_set.union (Item_set.diff fa fb) (Item_set.diff fb fa))
      && Item_set.equal (Item_set.sym_diff fa fb) (Item_set.sym_diff fb fa)
      && Item_set.is_empty (Item_set.sym_diff fa fa)
      && Item_set.equal (Item_set.sym_diff fa Item_set.empty) fa)

let ints lo hi =
  let rec go acc i = if i < lo then acc else go (Value.Int i :: acc) (i - 1) in
  go [] hi

let test_sym_diff_reprs () =
  (* Force the bits×bits, bits×ids and cross-scope paths explicitly. *)
  let tbl = Intern.create () in
  let lo = Item_set.of_list_in tbl (ints 0 999) in
  let hi = Item_set.of_list_in tbl (ints 500 1499) in
  Alcotest.(check string) "operands dense" "bits" (Item_set.Debug.repr lo);
  let d = Item_set.sym_diff lo hi in
  Alcotest.(check int) "dense sym_diff cardinality" 1000 (Item_set.cardinal d);
  Alcotest.check Helpers.item_set "dense sym_diff value"
    (Item_set.of_list_in tbl (ints 0 499 @ ints 1000 1499))
    d;
  let sparse =
    Item_set.of_list_in tbl (List.filter (fun v -> Value.hash v mod 97 = 0) (ints 0 1499))
  in
  Alcotest.check Helpers.item_set "bits × ids = union of one-sided diffs"
    (Item_set.union (Item_set.diff lo sparse) (Item_set.diff sparse lo))
    (Item_set.sym_diff lo sparse);
  (* A far-away dense block exercises the sparse-span fallback. *)
  let far = Item_set.of_list_in tbl (ints 1_000_000 1_000_999) in
  Alcotest.(check int) "disjoint blocks: sym_diff is the union" 2000
    (Item_set.cardinal (Item_set.sym_diff lo far));
  (* Cross-scope operands are remapped like every other kernel. *)
  let other = Intern.create () in
  let foreign = Item_set.of_list_in other (ints 500 1499) in
  Alcotest.check Helpers.item_set "cross-scope sym_diff" d
    (Item_set.sym_diff lo foreign)

(* --- Relation.remove ----------------------------------------------------- *)

let abc_tuple m a b = Tuple.create_exn Helpers.abc_schema (Helpers.abc_row m a b)

let sorted_tuples r =
  List.sort Tuple.compare (Relation.tuples r)

let test_relation_remove () =
  let r =
    Helpers.abc_relation
      [ Helpers.abc_row "x" 1 "p"; Helpers.abc_row "y" 2 "q";
        Helpers.abc_row "x" 3 "r"; Helpers.abc_row "z" 4 "s" ]
  in
  let v0 = Relation.version r in
  Alcotest.(check bool) "remove hit" true (Relation.remove r (abc_tuple "x" 1 "p"));
  Alcotest.(check int) "cardinality drops" 3 (Relation.cardinality r);
  Alcotest.(check int) "version bumps" (v0 + 1) (Relation.version r);
  Alcotest.(check bool) "remove miss" false (Relation.remove r (abc_tuple "x" 1 "p"));
  Alcotest.(check int) "miss leaves version" (v0 + 1) (Relation.version r);
  (* The swap-with-last fill must keep the merge index exact. *)
  Alcotest.(check int) "other x tuple still indexed" 1
    (List.length (Relation.tuples_of_item r (Value.String "x")));
  Alcotest.(check bool) "swapped tuple found via index" true
    (List.exists
       (Tuple.equal (abc_tuple "z" 4 "s"))
       (Relation.tuples_of_item r (Value.String "z")));
  Alcotest.check
    (Alcotest.list (Alcotest.testable Tuple.pp Tuple.equal))
    "remaining rows"
    (List.sort Tuple.compare
       [ abc_tuple "y" 2 "q"; abc_tuple "x" 3 "r"; abc_tuple "z" 4 "s" ])
    (sorted_tuples r);
  (* Removing an item's last tuple drops it from the item set. *)
  Alcotest.(check bool) "remove last x" true (Relation.remove r (abc_tuple "x" 3 "r"));
  Alcotest.(check bool) "x gone from items" false
    (Item_set.mem (Value.String "x") (Relation.items r));
  (* Duplicates go one at a time. *)
  let d =
    Helpers.abc_relation [ Helpers.abc_row "w" 7 "t"; Helpers.abc_row "w" 7 "t" ]
  in
  Alcotest.(check bool) "dup 1" true (Relation.remove d (abc_tuple "w" 7 "t"));
  Alcotest.(check int) "one copy left" 1 (Relation.cardinality d);
  Alcotest.(check bool) "dup 2" true (Relation.remove d (abc_tuple "w" 7 "t"));
  Alcotest.(check bool) "dup 3 misses" false (Relation.remove d (abc_tuple "w" 7 "t"));
  Alcotest.(check int) "empty" 0 (Relation.cardinality d)

(* --- Delta parse / to_line / apply --------------------------------------- *)

let test_delta_parse () =
  let s = Helpers.abc_schema in
  let d = Helpers.check_ok (Delta.parse s "+x,1,p; -y,2,q ;+z, 3 ,r") in
  Alcotest.(check int) "inserts" 2 (List.length d.Delta.inserts);
  Alcotest.(check int) "deletes" 1 (List.length d.Delta.deletes);
  Alcotest.(check int) "size" 3 (Delta.size d);
  Alcotest.(check bool) "insert parsed" true
    (List.exists (Tuple.equal (abc_tuple "z" 3 "r")) d.Delta.inserts);
  (* to_line round-trips through parse. *)
  let d' = Helpers.check_ok (Delta.parse s (Delta.to_line s d)) in
  Alcotest.(check bool) "roundtrip" true
    (List.equal Tuple.equal d.Delta.inserts d'.Delta.inserts
    && List.equal Tuple.equal d.Delta.deletes d'.Delta.deletes);
  ignore (Helpers.check_err "empty" (Delta.parse s "  "));
  ignore (Helpers.check_err "no sign" (Delta.parse s "x,1,p"));
  ignore (Helpers.check_err "bad arity" (Delta.parse s "+x,1"));
  ignore (Helpers.check_err "bad type" (Delta.parse s "+x,notanint,p"))

let test_delta_apply () =
  let r =
    Helpers.abc_relation [ Helpers.abc_row "x" 1 "p"; Helpers.abc_row "y" 2 "q" ]
  in
  let v0 = Relation.version r in
  let delta =
    Delta.make
      ~inserts:[ abc_tuple "n" 9 "new" ]
      ~deletes:[ abc_tuple "y" 2 "q"; abc_tuple "ghost" 0 "gone" ]
  in
  let a = Delta.apply r delta in
  Alcotest.(check int) "inserted" 1 a.Delta.inserted;
  Alcotest.(check int) "deleted" 1 a.Delta.deleted;
  Alcotest.(check int) "missed" 1 a.Delta.missed;
  Alcotest.(check int) "version counts effective ops" (v0 + 2) a.Delta.version;
  Alcotest.(check int) "version matches relation" (Relation.version r) a.Delta.version;
  Alcotest.check Helpers.item_set "touched = changed items"
    (Helpers.items_of_strings [ "n"; "y" ])
    a.Delta.touched;
  Alcotest.(check int) "net cardinality" 2 (Relation.cardinality r)

(* --- the delta rules ----------------------------------------------------- *)

let small_set_gen =
  QCheck2.Gen.(
    map
      (fun l -> Item_set.of_list (List.map (fun i -> Value.Int i) l))
      (list_size (int_range 0 25) (int_range 0 30)))

(* A set plus a mutation of it: some elements leave, some enter. *)
let mutated_pair_gen =
  QCheck2.Gen.(
    let* before = small_set_gen in
    let* leave = small_set_gen in
    let* enter = small_set_gen in
    return (before, Item_set.union (Item_set.diff before leave) enter))

let rules_prop =
  Helpers.qtest ~count:300 "delta rules ≡ recomputation"
    QCheck2.Gen.(pair mutated_pair_gen mutated_pair_gen)
    (fun ((a, a'), (b, b')) ->
      Format.asprintf "A=%a A'=%a B=%a B'=%a" Item_set.pp a Item_set.pp a'
        Item_set.pp b Item_set.pp b')
    (fun ((a, a'), (b, b')) ->
      let da = Change.of_snapshots ~before:a ~after:a' in
      let db = Change.of_snapshots ~before:b ~after:b' in
      (* normalization invariants *)
      Item_set.is_empty (Item_set.inter da.Change.adds da.Change.dels)
      && Item_set.subset da.Change.dels a
      && Item_set.is_empty (Item_set.inter da.Change.adds a)
      && Item_set.equal (Change.apply a da) a'
      && Item_set.equal (Change.apply a' (Change.inverse da)) a
      (* old_on recovers the pre-change restriction *)
      && Item_set.equal
           (Change.old_on ~now:a' (Change.touched da) da)
           (Item_set.inter (Change.touched da) a)
      (* each rule's change, applied to the old combination, gives the
         new combination *)
      && Item_set.equal
           (Change.apply (Item_set.union a b) (Change.union_rule ~a:a' ~b:b' da db))
           (Item_set.union a' b')
      && Item_set.equal
           (Change.apply (Item_set.inter a b) (Change.inter_rule ~a:a' ~b:b' da db))
           (Item_set.inter a' b')
      && Item_set.equal
           (Change.apply (Item_set.diff a b) (Change.diff_rule ~l:a' ~r:b' da db))
           (Item_set.diff a' b'))

(* --- incremental ≡ full re-execution over random mutation batches -------- *)

(* Random mixed insert/delete batches against a random workload world
   and a random optimized plan: after every applied batch the maintained
   answer must be byte-equal to a full re-execution of the same plan on
   the mutated catalog, and the version vector must track the
   relations. This is the subsystem's central correctness property. *)
let mutation_gen =
  QCheck2.Gen.(
    triple Helpers.spec_gen
      (int_range 0 (List.length Optimizer.all - 1))
      (int_range 1 8))

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

(* Rows of items interned only after the world was built — what a live
   source inserts and later retracts. Their ids lie beyond every id the
   maintained state saw at [create]. Half match every condition (all
   attributes 0), so they reach the answer; [live.(j)] holds the fresh
   rows still at source [j], of which the batch retracts some. *)
let with_fresh prng instance live j (d : Delta.t) =
  let m = Query.m instance.Workload.query in
  let inserts =
    List.init (Prng.int prng 3) (fun _ ->
        let item = Printf.sprintf "F%06d" (Prng.int prng 1_000_000) in
        let zero = Prng.int prng 2 = 0 in
        Tuple.create_exn instance.Workload.schema
          (Value.String item
          :: List.init m (fun _ -> Value.Int (if zero then 0 else Prng.int prng 1500))))
  in
  let retract, keep = List.partition (fun _ -> Prng.int prng 2 = 0) live.(j) in
  live.(j) <- inserts @ keep;
  Delta.make ~inserts:(d.Delta.inserts @ inserts) ~deletes:(d.Delta.deletes @ retract)

let incremental_equals_full =
  Helpers.qtest ~count:30 "incremental maintenance ≡ full re-execution"
    mutation_gen mutation_print (fun (spec, algo_i, rounds) ->
      let instance = Workload.generate spec in
      let env =
        Opt_env.create ~universe:spec.Workload.universe
          instance.Workload.sources instance.Workload.query
      in
      let plan =
        (Optimizer.optimize (List.nth Optimizer.all algo_i) env).Optimized.plan
      in
      let m =
        Helpers.check_ok
          (Maintained.create ~query:instance.Workload.query
             ~sources:(Array.to_list instance.Workload.sources)
             plan)
      in
      let full () =
        (Helpers.execute_plan instance plan).Fusion_plan.Exec.answer
      in
      let prng = Prng.create (spec.Workload.seed + 31) in
      let n = Array.length instance.Workload.sources in
      let live = Array.make n [] in
      let ok = ref (Item_set.equal (Maintained.answer m) (full ())) in
      for _round = 1 to rounds do
        let j = Prng.int prng n in
        let rel = Source.relation instance.Workload.sources.(j) in
        let before = Maintained.answer m in
        let delta = with_fresh prng instance live j (random_delta prng instance rel) in
        let _, change = Maintained.mutate m ~source:j delta in
        ok :=
          !ok
          && Item_set.equal (Maintained.answer m) (full ())
          (* the pushed change really is before → after *)
          && Item_set.equal (Change.apply before change) (Maintained.answer m)
          && (Maintained.versions m).(j) = Relation.version rel
          && Maintained.cardinal m = Item_set.cardinal (Maintained.answer m)
      done;
      !ok)

(* --- persistent optimizer statistics -------------------------------------- *)

(* Exact statistics live with the source and survive across statements,
   so a delta must invalidate them: every count, every estimate and the
   chosen plan stay those of a fresh full scan. Rounds interleave random
   insert/delete batches with optimizations; a third of them mutate
   nothing, so the memo's hit path is exercised as well. *)
let fresh_env (instance : Workload.instance) =
  let sources = instance.Workload.sources in
  let est =
    Fusion_cost.Estimator.create
      (Array.to_list
         (Array.map
            (fun s -> (s, Fusion_stats.Source_stats.exact (Source.relation s)))
            sources))
  in
  {
    Opt_env.sources;
    conds = Query.conditions instance.Workload.query;
    model = Fusion_cost.Model.internet est;
    est;
  }

let persistent_stats_equal_fresh =
  Helpers.qtest ~count:40 "persistent statistics ≡ fresh statistics under deltas"
    QCheck2.Gen.(pair Helpers.spec_gen (int_range 1 5))
    (fun (spec, rounds) -> Printf.sprintf "%d rounds, %s" rounds (Helpers.spec_print spec))
    (fun (spec, rounds) ->
      let module Source_stats = Fusion_stats.Source_stats in
      let instance = Workload.generate spec in
      let sources = instance.Workload.sources in
      let conds = Query.conditions instance.Workload.query in
      let agree () =
        let counts_agree s =
          let fresh = Source_stats.exact (Source.relation s) in
          Array.for_all
            (fun c ->
              Float.equal
                (Source_stats.matching_items (Source.stats s) c)
                (Source_stats.matching_items fresh c))
            conds
        in
        let kept =
          Optimizer.optimize Optimizer.Sja_plus
            (Opt_env.create sources instance.Workload.query)
        in
        let fresh = Optimizer.optimize Optimizer.Sja_plus (fresh_env instance) in
        Array.for_all counts_agree sources
        && Fusion_plan.Plan.ops kept.Optimized.plan = Fusion_plan.Plan.ops fresh.Optimized.plan
        && Fusion_plan.Plan.output kept.Optimized.plan
           = Fusion_plan.Plan.output fresh.Optimized.plan
        && Float.equal kept.Optimized.est_cost fresh.Optimized.est_cost
      in
      let prng = Prng.create (spec.Workload.seed + 57) in
      let ok = ref (agree ()) in
      for _round = 1 to rounds do
        if Prng.int prng 3 > 0 then begin
          let rel = Source.relation sources.(Prng.int prng (Array.length sources)) in
          ignore (Delta.apply rel (random_delta prng instance rel) : Delta.applied)
        end;
        ok := !ok && agree ()
      done;
      !ok)

(* --- the version-vector answer cache ------------------------------------- *)

let test_versioned_cache () =
  let c = Answer_cache.create ~versioned:true () in
  Alcotest.(check bool) "versioned" true (Answer_cache.versioned c);
  let ans = Helpers.items_of_strings [ "a"; "b" ] in
  Answer_cache.note c ~source:"R1" ~cond:"A1 < 5" ~finish:10.0 ~version:3 ans;
  (* A version-matching replay is exact: staleness 0 however late. *)
  (match Answer_cache.find c ~source:"R1" ~cond:"A1 < 5" ~version:3 ~ready:1000.0 () with
  | Answer_cache.Cached (staleness, got) ->
    Alcotest.(check (float 0.0)) "staleness zero" 0.0 staleness;
    Alcotest.check Helpers.item_set "replayed answer" ans got
  | _ -> Alcotest.fail "expected a cached hit");
  (* A version mismatch is never served. *)
  (match Answer_cache.find c ~source:"R1" ~cond:"A1 < 5" ~version:4 ~ready:1000.0 () with
  | Answer_cache.Miss -> ()
  | _ -> Alcotest.fail "expected a miss on version mismatch");
  let s = Answer_cache.stats c in
  Alcotest.(check int) "one invalidation" 1 s.Answer_cache.invalidated;
  Alcotest.(check int) "one cached hit" 1 s.Answer_cache.cached_hits;
  (match Answer_cache.find c ~source:"R1" ~cond:"A1 < 5" ~version:4 ~ready:1000.0 () with
  | Answer_cache.Miss -> ()
  | _ -> Alcotest.fail "invalidated entry must be gone")

let test_cache_apply_delta () =
  let c = Answer_cache.create ~versioned:true () in
  let ans = Helpers.items_of_strings [ "a"; "b" ] in
  Answer_cache.note c ~source:"R1" ~cond:"patchable" ~finish:10.0 ~version:1 ans;
  Answer_cache.note c ~source:"R1" ~cond:"stale" ~finish:10.0 ~version:1 ans;
  Answer_cache.note c ~source:"R1" ~cond:"pending" ~finish:50.0 ~version:1 ans;
  Answer_cache.note c ~source:"R2" ~cond:"patchable" ~finish:10.0 ~version:7 ans;
  let patched = Helpers.items_of_strings [ "a"; "b"; "c" ] in
  Answer_cache.apply_delta c ~source:"R1" ~now:20.0 ~version:2
    ~patch:(fun ~cond answer ->
      match cond with
      | "patchable" -> Some (Item_set.union answer (Helpers.items_of_strings [ "c" ]))
      | _ -> None);
  (* Patched entry serves at the new version... *)
  (match Answer_cache.find c ~source:"R1" ~cond:"patchable" ~version:2 ~ready:100.0 () with
  | Answer_cache.Cached (0.0, got) ->
    Alcotest.check Helpers.item_set "patched answer" patched got
  | _ -> Alcotest.fail "expected the patched entry");
  (* ...the unpatchable one was invalidated... *)
  (match Answer_cache.find c ~source:"R1" ~cond:"stale" ~version:2 ~ready:100.0 () with
  | Answer_cache.Miss -> ()
  | _ -> Alcotest.fail "unpatchable entry must be invalidated");
  (* ...an in-flight entry is invalidated, not patched... *)
  (match Answer_cache.find c ~source:"R1" ~cond:"pending" ~version:2 ~ready:100.0 () with
  | Answer_cache.Miss -> ()
  | _ -> Alcotest.fail "in-flight entry must be invalidated");
  (* ...and other sources are untouched. *)
  (match Answer_cache.find c ~source:"R2" ~cond:"patchable" ~version:7 ~ready:100.0 () with
  | Answer_cache.Cached (0.0, got) -> Alcotest.check Helpers.item_set "other source" ans got
  | _ -> Alcotest.fail "other source's entry must survive");
  let s = Answer_cache.stats c in
  Alcotest.(check int) "patched count" 1 s.Answer_cache.patched;
  Alcotest.(check int) "invalidated count" 2 s.Answer_cache.invalidated

let test_cache_publish_metrics () =
  let r = Metrics.create () in
  Metrics.with_registry r (fun () ->
      let c = Answer_cache.create ~versioned:true () in
      Answer_cache.note c ~source:"R1" ~cond:"c" ~finish:1.0 ~version:1
        (Helpers.items_of_strings [ "a" ]);
      ignore (Answer_cache.find c ~source:"R1" ~cond:"c" ~version:1 ~ready:2.0 ());
      ignore (Answer_cache.find c ~source:"R1" ~cond:"zz" ~version:1 ~ready:2.0 ());
      Answer_cache.publish_metrics c;
      (* publishing is a flush of deltas: a second publish with no new
         events must add nothing. *)
      Answer_cache.publish_metrics c;
      let get name =
        List.find_map
          (fun s ->
            if s.Metrics.name = name then
              match s.Metrics.value with
              | Metrics.Vcounter v -> Some v
              | _ -> None
            else None)
          (Metrics.snapshot r)
      in
      Alcotest.(check (option (float 0.0))) "lookups" (Some 2.0)
        (get "fusion_cache_lookups_total");
      Alcotest.(check (option (float 0.0))) "cached hits" (Some 1.0)
        (get "fusion_cache_cached_hits_total");
      Alcotest.(check (option (float 0.0))) "misses" (Some 1.0)
        (get "fusion_cache_lookup_misses_total"))

(* --- standing queries on the server -------------------------------------- *)

let small_spec =
  {
    Workload.default_spec with
    Workload.n_sources = 3;
    universe = 60;
    tuples_per_source = (20, 30);
    selectivities = [| 0.4; 0.5 |];
    seed = 7;
  }

(* A row that satisfies every [A_i < threshold] condition: attributes 0. *)
let matching_row instance item =
  Tuple.create_exn instance.Workload.schema
    (Value.String item
    :: List.init (Query.m instance.Workload.query) (fun _ -> Value.Int 0))

(* --- delta-sized maintenance -------------------------------------------- *)

(* Worlds of [tuples] rows per source under one fixed plan shape: three
   rounds mixing selections, semijoins, unions and intersections. Low
   selectivities keep node sets sparse (id arrays), so a whole-set copy
   costs a word per item. *)
let sized_world tuples =
  let instance =
    Workload.generate
      {
        Workload.default_spec with
        Workload.n_sources = 3;
        universe = 2 * tuples;
        tuples_per_source = (tuples, tuples);
        selectivities = [| 0.1; 0.2; 0.3 |];
        seed = 17;
      }
  in
  let plan =
    Builder.round_shaped ~ordering:[| 0; 1; 2 |]
      ~decisions:
        Fusion_plan.Plan.
          [|
            [| By_select; By_select; By_select |];
            [| By_select; By_semijoin; By_semijoin |];
            [| By_semijoin; By_semijoin; By_semijoin |];
          |]
  in
  let m =
    Helpers.check_ok
      (Maintained.create ~query:instance.Workload.query
         ~sources:(Array.to_list instance.Workload.sources)
         plan)
  in
  (instance, plan, m)

(* Minor plus direct major allocation: a whole-set copy of a large
   answer would bypass the minor heap. *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* One fresh matching row in and out at source 0: the words
   [source_changed] allocates for the pair, after a warm-up pair. *)
let maintenance_words tuples =
  let instance, _, m = sized_world tuples in
  let rel = Source.relation instance.Workload.sources.(0) in
  let step item ~insert =
    let row = matching_row instance item in
    let d =
      if insert then Delta.make ~inserts:[ row ] ~deletes:[]
      else Delta.make ~inserts:[] ~deletes:[ row ]
    in
    let touched = (Delta.apply rel d).Delta.touched in
    let before = Maintained.cardinal m in
    let w0 = allocated () in
    let change = Maintained.source_changed m ~source:0 ~touched in
    let words = allocated () -. w0 in
    Alcotest.(check int)
      (Printf.sprintf "%s %s the answer" item (if insert then "enters" else "leaves"))
      (if insert then 1 else -1)
      (Maintained.cardinal m - before);
    Alcotest.(check int) "one-row change" 1 (Change.cardinal change);
    words
  in
  let pair item =
    let inserted = step item ~insert:true in
    inserted +. step item ~insert:false
  in
  ignore (pair "Zwarm" : float);
  pair "Zfresh"

let test_maintenance_delta_sized () =
  let small = maintenance_words 1_000 and large = maintenance_words 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "words per row: %.0f at 1k tuples, %.0f at 10k" small large)
    true
    (large < 2.0 *. small)

(* Insert and retract 1000 freshly interned items, each past every id
   seen so far and far beyond the world's own ids (a block of unrelated
   values is interned first): the node bitmaps stay within the stated
   bound of a fresh [create] over the same (restored) data. *)
let test_maintained_state_bounded () =
  let instance, plan, m = sized_world 1_000 in
  let sources = instance.Workload.sources in
  let tbl = Relation.intern (Source.relation sources.(0)) in
  for k = 1 to 50_000 do
    ignore (Intern.intern tbl (Value.String (Printf.sprintf "pad%05d" k)) : int)
  done;
  for k = 1 to 1000 do
    let j = k mod Array.length sources in
    let rel = Source.relation sources.(j) in
    let row = matching_row instance (Printf.sprintf "Zfar%04d" k) in
    List.iter
      (fun d ->
        ignore
          (Maintained.source_changed m ~source:j
             ~touched:(Delta.apply rel d).Delta.touched
            : Change.t))
      [ Delta.make ~inserts:[ row ] ~deletes:[]; Delta.make ~inserts:[] ~deletes:[ row ] ]
  done;
  let fresh =
    Helpers.check_ok
      (Maintained.create ~query:instance.Workload.query
         ~sources:(Array.to_list sources) plan)
  in
  Alcotest.check Helpers.item_set "answer restored" (Maintained.answer fresh)
    (Maintained.answer m);
  let bound =
    (4 * Maintained.state_words fresh)
    + (32 * List.length (Fusion_plan.Plan.ops plan))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d state words within %d" (Maintained.state_words m) bound)
    true
    (Maintained.state_words m <= bound)

(* --- prepared plans ---------------------------------------------------- *)

(* The statements a served session repeats: the instance query, its
   conditions in reverse order, and each condition alone. *)
let statements (instance : Workload.instance) =
  let conds = Array.to_list (Query.conditions instance.Workload.query) in
  Array.of_list
    (instance.Workload.query
    :: Query.create_exn (List.rev conds)
    :: List.map (fun c -> Query.create_exn [ c ]) conds)

(* Submits one statement, drains, and returns the job the server ran. *)
let served_job msrv completed q =
  let at = Serve.now (Mediator.Server.serve msrv) in
  ignore (Helpers.check_ok (Mediator.Server.submit msrv ~at q) : int);
  Mediator.Server.drain msrv;
  match List.rev (completed ()) with
  | c :: _ -> c.Serve.c_job
  | [] -> Alcotest.fail "no completion"

let same_plan (job : Serve.job) (p : Mediator.prepared) =
  let fresh = p.Mediator.prep_optimized in
  job.Serve.conds = p.Mediator.prep_conds
  && Fusion_plan.Plan.ops job.Serve.plan = Fusion_plan.Plan.ops fresh.Optimized.plan
  && Fusion_plan.Plan.output job.Serve.plan = Fusion_plan.Plan.output fresh.Optimized.plan
  && Float.equal job.Serve.est_cost fresh.Optimized.est_cost

(* A served statement reuses its prepared plan only while no source
   changed, so under exact and histogram statistics every submission —
   hit, stale or new — runs exactly the plan a fresh [plan_for] returns
   on the same state. Repeats are interleaved with random insert/delete
   batches on random sources. *)
let prepared_plans_equal_fresh =
  Helpers.qtest ~count:30 "prepared plans ≡ fresh plan_for under deltas"
    QCheck2.Gen.(triple Helpers.spec_gen bool (int_range 4 16))
    (fun (spec, histogram, rounds) ->
      Printf.sprintf "%s statistics, %d rounds, %s"
        (if histogram then "histogram" else "exact")
        rounds (Helpers.spec_print spec))
    (fun (spec, histogram, rounds) ->
      let instance = Workload.generate spec in
      let sources = instance.Workload.sources in
      let med = Mediator.create_exn (Array.to_list sources) in
      let stats = if histogram then Opt_env.Histogram 8 else Opt_env.Exact in
      let msrv =
        Mediator.Server.create
          ~config:{ Mediator.Config.default with Mediator.Config.stats }
          med
      in
      let completed = Fusion_serve.Driver.collect (Mediator.Server.serve msrv) in
      let pool = statements instance in
      let prng = Prng.create (spec.Workload.seed + 91) in
      let ok = ref true in
      for _round = 1 to rounds do
        if Prng.int prng 3 = 0 then begin
          let s = sources.(Prng.int prng (Array.length sources)) in
          let delta = random_delta prng instance (Source.relation s) in
          ignore
            (Helpers.check_ok
               (Mediator.Server.mutate msrv ~source:(Source.name s) delta)
              : Delta.applied)
        end;
        let q = Prng.pick prng pool in
        let job = served_job msrv completed q in
        ok := !ok && same_plan job (Helpers.check_ok (Mediator.plan_for ~stats med q))
      done;
      let ps = Mediator.Server.prepared_stats msrv in
      Mediator.Server.shutdown msrv;
      !ok
      && ps.Mediator.Server.lookups = rounds
      && ps.Mediator.Server.hits + ps.Mediator.Server.stale <= rounds)

let test_prepared_reuse_and_staleness () =
  let instance = Workload.generate small_spec in
  let med = Mediator.create_exn (Array.to_list instance.Workload.sources) in
  let msrv = Mediator.Server.create med in
  let completed = Fusion_serve.Driver.collect (Mediator.Server.serve msrv) in
  let q = instance.Workload.query in
  let stats () = Mediator.Server.prepared_stats msrv in
  let first = served_job msrv completed q in
  let again = served_job msrv completed q in
  Alcotest.(check bool) "a hit runs the very same plan" true
    (first.Serve.plan == again.Serve.plan);
  let s = stats () in
  Alcotest.(check (list int)) "lookups, hits, stale, entries" [ 2; 1; 0; 1 ]
    [ s.Mediator.Server.lookups; s.hits; s.stale; s.entries ];
  (* A subscription plans through the same table. *)
  ignore (Helpers.check_ok (Mediator.Server.subscribe msrv q) : int);
  Alcotest.(check int) "subscribe hit" 2 (stats ()).Mediator.Server.hits;
  (* Any delta to any source outdates the entry. *)
  let delta = Delta.make ~inserts:[ matching_row instance "Zfresh" ] ~deletes:[] in
  ignore
    (Helpers.check_ok (Mediator.Server.mutate msrv ~source:"R3" delta) : Delta.applied);
  ignore (served_job msrv completed q : Serve.job);
  let s = stats () in
  Alcotest.(check (list int)) "after a delta" [ 4; 2; 1; 1 ]
    [ s.Mediator.Server.lookups; s.hits; s.stale; s.entries ];
  (* An invalid statement never reaches the table. *)
  ignore
    (Helpers.check_err "invalid"
       (Mediator.Server.submit msrv ~at:0.0
          (Query.create_exn
             [ Fusion_cond.Cond.Cmp ("nope", Fusion_cond.Cond.Lt, Value.Int 1) ])));
  Alcotest.(check int) "no lookup for an invalid query" 4
    (stats ()).Mediator.Server.lookups;
  Mediator.Server.shutdown msrv

(* Sampled statistics draw from a shared generator: every submission
   draws afresh, exactly as a fresh [plan_for] would, and the table is
   never consulted. *)
let test_prepared_bypass_sampled () =
  let instance = Workload.generate small_spec in
  let med = Mediator.create_exn (Array.to_list instance.Workload.sources) in
  let served = Prng.create 5 and fresh = Prng.create 5 in
  let msrv =
    Mediator.Server.create
      ~config:
        { Mediator.Config.default with Mediator.Config.stats = Opt_env.Sampled (6, served) }
      med
  in
  let completed = Fusion_serve.Driver.collect (Mediator.Server.serve msrv) in
  let q = instance.Workload.query in
  for i = 1 to 3 do
    let job = served_job msrv completed q in
    let p =
      Helpers.check_ok (Mediator.plan_for ~stats:(Opt_env.Sampled (6, fresh)) med q)
    in
    Alcotest.(check bool)
      (Printf.sprintf "submission %d = fresh draw" i)
      true (same_plan job p)
  done;
  Alcotest.(check bool) "the generator advanced as three fresh optimizations" true
    (Int64.equal (Prng.next_int64 served) (Prng.next_int64 fresh));
  Alcotest.(check int) "no lookups" 0
    (Mediator.Server.prepared_stats msrv).Mediator.Server.lookups;
  Mediator.Server.shutdown msrv

(* A server that never sees a statement twice holds bounded state. *)
let test_prepared_bounded () =
  let instance = Workload.generate small_spec in
  let med = Mediator.create_exn (Array.to_list instance.Workload.sources) in
  let msrv = Mediator.Server.create med in
  let statement k =
    Query.create_exn [ Fusion_cond.Cond.Cmp ("A1", Fusion_cond.Cond.Lt, Value.Int k) ]
  in
  let most = ref 0 in
  for k = 0 to 1024 do
    ignore (Helpers.check_ok (Mediator.Server.submit msrv ~at:0.0 (statement k)) : int);
    most := max !most (Mediator.Server.prepared_stats msrv).Mediator.Server.entries
  done;
  let s = Mediator.Server.prepared_stats msrv in
  Alcotest.(check int) "1025 lookups" 1025 s.Mediator.Server.lookups;
  Alcotest.(check int) "never more than 1024 entries" 1024 !most;
  Alcotest.(check bool) "flushed at the bound" true (s.Mediator.Server.entries <= 1024);
  ignore (Helpers.check_ok (Mediator.Server.submit msrv ~at:0.0 (statement 1024)) : int);
  Alcotest.(check int) "the newest statement survives the flush" 1
    (Mediator.Server.prepared_stats msrv).Mediator.Server.hits;
  Mediator.Server.shutdown msrv

let test_server_subscribe_push () =
  let instance = Workload.generate small_spec in
  let env = Opt_env.create instance.Workload.sources instance.Workload.query in
  let optimized = Optimizer.optimize Optimizer.Sja_plus env in
  let srv = Serve.create ~versioned_cache:true instance.Workload.sources in
  let pushes = ref [] in
  Serve.on_push srv (fun p -> pushes := p :: !pushes);
  let id =
    Helpers.check_ok
      (Serve.subscribe srv ~tenant:"t1" ~label:"standing"
         ~conds:env.Opt_env.conds optimized.Optimized.plan)
  in
  let initial = Option.get (Serve.subscription_answer srv id) in
  Alcotest.check Helpers.item_set "initial answer = full execution"
    (Helpers.execute_plan instance optimized.Optimized.plan).Fusion_plan.Exec.answer
    initial;
  Alcotest.(check int) "one subscriber" 1 (Serve.delta_stats srv).Serve.ds_subscribers;
  (* A fresh item matching every condition must enter the answer. *)
  let delta = Delta.make ~inserts:[ matching_row instance "Zfresh" ] ~deletes:[] in
  let applied = Helpers.check_ok (Serve.mutate srv ~source:"R1" delta) in
  Alcotest.(check int) "inserted" 1 applied.Delta.inserted;
  (match !pushes with
  | [ p ] ->
    Alcotest.(check int) "push subscription id" id p.Serve.pu_sub;
    Alcotest.(check int) "push seq" 1 p.Serve.pu_seq;
    Alcotest.(check bool) "diff adds the fresh item" true
      (Item_set.mem (Value.String "Zfresh") p.Serve.pu_change.Change.adds);
    Alcotest.(check int) "pushed row count is current"
      (Item_set.cardinal (Option.get (Serve.subscription_answer srv id)))
      p.Serve.pu_rows
  | l -> Alcotest.failf "expected exactly one push, got %d" (List.length l));
  Alcotest.check Helpers.item_set "maintained answer = full re-execution"
    (Helpers.execute_plan instance optimized.Optimized.plan).Fusion_plan.Exec.answer
    (Option.get (Serve.subscription_answer srv id));
  (* Undo: deleting the row pushes the inverse diff. *)
  let undo = Delta.make ~inserts:[] ~deletes:[ matching_row instance "Zfresh" ] in
  ignore (Helpers.check_ok (Serve.mutate srv ~source:"R1" undo));
  Alcotest.(check int) "second push" 2 (List.length !pushes);
  Alcotest.check Helpers.item_set "answer back to the start" initial
    (Option.get (Serve.subscription_answer srv id));
  (* Stats, teardown and failure paths. *)
  let ds = Serve.delta_stats srv in
  Alcotest.(check int) "batches" 2 ds.Serve.ds_batches;
  Alcotest.(check int) "inserts" 1 ds.Serve.ds_inserts;
  Alcotest.(check int) "deletes" 1 ds.Serve.ds_deletes;
  Alcotest.(check int) "pushes" 2 ds.Serve.ds_pushes;
  ignore (Helpers.check_err "unknown source" (Serve.mutate srv ~source:"nope" delta));
  Alcotest.(check bool) "unsubscribe" true (Serve.unsubscribe srv id);
  Alcotest.(check bool) "unsubscribe twice" false (Serve.unsubscribe srv id);
  Alcotest.(check int) "no subscribers left" 0
    (Serve.delta_stats srv).Serve.ds_subscribers;
  ignore (Helpers.check_ok (Serve.mutate srv ~source:"R1" delta));
  Alcotest.(check int) "no push without subscribers" 2 (List.length !pushes)

(* One-shot queries served after a mutation must see the post-delta
   answer: the versioned cache patches or invalidates, never replays a
   provably stale entry. *)
let test_server_cache_after_mutation () =
  let instance = Workload.generate small_spec in
  let env = Opt_env.create instance.Workload.sources instance.Workload.query in
  let optimized = Optimizer.optimize Optimizer.Sja_plus env in
  let job =
    {
      Serve.plan = optimized.Optimized.plan;
      conds = env.Opt_env.conds;
      tenant = "t1";
      priority = 0;
      est_cost = optimized.Optimized.est_cost;
      deadline = None;
      label = "";
    }
  in
  let srv = Serve.create ~versioned_cache:true instance.Workload.sources in
  let completions = Fusion_serve.Driver.collect srv in
  ignore (Serve.submit srv ~at:0.0 job);
  Serve.drain srv;
  let delta = Delta.make ~inserts:[ matching_row instance "Zfresh" ] ~deletes:[] in
  ignore (Helpers.check_ok (Serve.mutate srv ~source:"R1" delta));
  ignore (Serve.submit srv ~at:(Serve.now srv +. 1.0) job);
  Serve.drain srv;
  (match completions () with
  | [ first; second ] ->
    let answer c = Option.get c.Serve.c_answer in
    Alcotest.(check bool) "second run sees the new item" true
      (Item_set.mem (Value.String "Zfresh") (answer second));
    Alcotest.(check bool) "first run predates it" false
      (Item_set.mem (Value.String "Zfresh") (answer first))
  | l -> Alcotest.failf "expected two completions, got %d" (List.length l));
  let cs = Serve.cache_stats srv in
  Alcotest.(check bool) "cache saw delta maintenance" true
    (cs.Answer_cache.patched + cs.Answer_cache.invalidated > 0)

(* Without a TTL and without versioning a completed entry can never be
   served again, so a delta drops such entries instead of patching them
   (which re-parses each condition on the push path), and they do not
   pile up. *)
let test_server_cache_drops_dead_entries () =
  let instance = Workload.generate small_spec in
  let env = Opt_env.create instance.Workload.sources instance.Workload.query in
  let optimized = Optimizer.optimize Optimizer.Sja_plus env in
  let job =
    {
      Serve.plan = optimized.Optimized.plan;
      conds = env.Opt_env.conds;
      tenant = "t1";
      priority = 0;
      est_cost = optimized.Optimized.est_cost;
      deadline = None;
      label = "";
    }
  in
  let srv = Serve.create instance.Workload.sources in
  ignore (Serve.submit srv ~at:0.0 job);
  Serve.drain srv;
  let mutate item =
    let delta = Delta.make ~inserts:[ matching_row instance item ] ~deletes:[] in
    ignore (Helpers.check_ok (Serve.mutate srv ~source:"R1" delta))
  in
  mutate "Zfresh";
  let cs = Serve.cache_stats srv in
  Alcotest.(check int) "nothing patched" 0 cs.Answer_cache.patched;
  Alcotest.(check int) "nothing invalidated" 0 cs.Answer_cache.invalidated;
  Alcotest.(check bool) "dead entries dropped" true (cs.Answer_cache.expirations > 0);
  mutate "Zfresher";
  Alcotest.(check int) "nothing left to drop" cs.Answer_cache.expirations
    (Serve.cache_stats srv).Answer_cache.expirations

let test_mediator_subscribe_sql () =
  let instance = Workload.generate small_spec in
  let mediator =
    Helpers.check_ok (Mediator.create (Array.to_list instance.Workload.sources))
  in
  let msrv = Mediator.Server.create mediator in
  let server = Mediator.Server.serve msrv in
  let pushes = ref 0 in
  Serve.on_push server (fun _ -> incr pushes);
  let sql = Query.to_sql ~union:"U" ~merge:"M" instance.Workload.query in
  let id = Helpers.check_ok (Mediator.Server.subscribe_sql msrv sql) in
  (match Serve.subscriptions server with
  | [ si ] ->
    Alcotest.(check int) "subscription id" id si.Serve.si_id;
    Alcotest.(check string) "label is the SQL" sql si.Serve.si_label
  | l -> Alcotest.failf "expected one subscription, got %d" (List.length l));
  (* The TCP [mut] path: parse against the source schema, apply, push. *)
  let m = Query.m instance.Workload.query in
  let payload = "+Zfresh" ^ String.concat "" (List.init m (fun _ -> ",0")) in
  let applied =
    Helpers.check_ok (Mediator.Server.mutate_line msrv ~source:"R1" payload)
  in
  Alcotest.(check int) "mut inserted" 1 applied.Delta.inserted;
  Alcotest.(check int) "pushed" 1 !pushes;
  Alcotest.(check bool) "answer gained the item" true
    (Item_set.mem (Value.String "Zfresh")
       (Option.get (Serve.subscription_answer server id)));
  ignore
    (Helpers.check_err "unknown source"
       (Mediator.Server.mutate_line msrv ~source:"nope" payload));
  ignore
    (Helpers.check_err "bad payload"
       (Mediator.Server.mutate_line msrv ~source:"R1" "+Zfresh"));
  Alcotest.(check bool) "unsubscribe" true (Mediator.Server.unsubscribe msrv id);
  Mediator.Server.shutdown msrv

let test_delta_metrics () =
  let r = Metrics.create () in
  Metrics.with_registry r (fun () ->
      let instance = Workload.generate small_spec in
      let env = Opt_env.create instance.Workload.sources instance.Workload.query in
      let optimized = Optimizer.optimize Optimizer.Sja_plus env in
      let srv = Serve.create ~versioned_cache:true instance.Workload.sources in
      let id =
        Helpers.check_ok
          (Serve.subscribe srv ~tenant:"t1" ~conds:env.Opt_env.conds
             optimized.Optimized.plan)
      in
      ignore (id : int);
      let delta = Delta.make ~inserts:[ matching_row instance "Zfresh" ] ~deletes:[] in
      ignore (Helpers.check_ok (Serve.mutate srv ~source:"R1" delta));
      Serve.publish_metrics srv;
      let names = List.map (fun s -> s.Metrics.name) (Metrics.snapshot r) in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " present") true (List.mem name names))
        [ "fusion_delta_subscribe_total"; "fusion_delta_batches_total";
          "fusion_delta_inserts_total"; "fusion_delta_pushes_total";
          "fusion_delta_propagate_us"; "fusion_delta_subscribers" ])

let suite =
  [
    sym_diff_agrees "sym_diff ≡ reference (dense ints)" dense_int_gen;
    sym_diff_agrees "sym_diff ≡ reference (sparse mixed)" sparse_value_gen;
    Alcotest.test_case "sym_diff across representations" `Quick test_sym_diff_reprs;
    Alcotest.test_case "relation remove" `Quick test_relation_remove;
    Alcotest.test_case "delta parse and to_line" `Quick test_delta_parse;
    Alcotest.test_case "delta apply" `Quick test_delta_apply;
    rules_prop;
    incremental_equals_full;
    Alcotest.test_case "maintenance is delta-sized" `Quick test_maintenance_delta_sized;
    Alcotest.test_case "maintained state stays bounded" `Quick
      test_maintained_state_bounded;
    persistent_stats_equal_fresh;
    prepared_plans_equal_fresh;
    Alcotest.test_case "prepared plan reuse and staleness" `Quick
      test_prepared_reuse_and_staleness;
    Alcotest.test_case "sampled statistics bypass prepared plans" `Quick
      test_prepared_bypass_sampled;
    Alcotest.test_case "prepared plans bounded" `Quick test_prepared_bounded;
    Alcotest.test_case "versioned answer cache" `Quick test_versioned_cache;
    Alcotest.test_case "cache apply_delta" `Quick test_cache_apply_delta;
    Alcotest.test_case "cache publish_metrics" `Quick test_cache_publish_metrics;
    Alcotest.test_case "server subscribe and push" `Quick test_server_subscribe_push;
    Alcotest.test_case "versioned cache after mutation" `Quick
      test_server_cache_after_mutation;
    Alcotest.test_case "unversioned cache drops dead entries" `Quick
      test_server_cache_drops_dead_entries;
    Alcotest.test_case "mediator subscribe_sql and mutate_line" `Quick
      test_mediator_subscribe_sql;
    Alcotest.test_case "delta metrics" `Quick test_delta_metrics;
  ]
