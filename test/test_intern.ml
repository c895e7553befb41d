(* The dictionary-encoded data plane: Intern unit tests and equivalence
   of the flat Item_set against the historical Set.Make reference
   (Item_set_ref) on randomized operation sequences.

   The equivalence tests are the safety net for the representation
   rewrite: every public observation — to_list, cardinal, mem, subset,
   equal, compare sign, fold order, filter — must agree with the AVL
   implementation. Generators are tuned to cross the Ids/Bits density
   thresholds in both directions so the adaptive switch itself is
   exercised, and a mixed Int/Float generator pins the numeric-bridge
   equality classes. *)

open Fusion_data
module Item_set_ref = Fusion_oracle.Item_set_ref

(* --- Intern ------------------------------------------------------------- *)

let test_intern_basics () =
  let t = Intern.create ~name:"t" () in
  Alcotest.(check int) "empty" 0 (Intern.size t);
  let a = Intern.intern t (Value.String "a") in
  let b = Intern.intern t (Value.String "b") in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "idempotent" a (Intern.intern t (Value.String "a"));
  Alcotest.(check int) "size" 2 (Intern.size t);
  Alcotest.(check (option int)) "find hit" (Some b) (Intern.find t (Value.String "b"));
  Alcotest.(check (option int)) "find miss" None (Intern.find t (Value.String "zz"));
  Alcotest.check Helpers.value "value roundtrip" (Value.String "a") (Intern.value t a);
  Alcotest.(check bool) "bad id raises" true
    (try
       ignore (Intern.value t 99);
       false
     with Invalid_argument _ -> true)

let test_intern_numeric_bridge () =
  (* Int 2 and Float 2.0 are one equality class: one id, first spelling
     kept as the representative. *)
  let t = Intern.create () in
  let i = Intern.intern t (Value.Int 2) in
  let f = Intern.intern t (Value.Float 2.0) in
  Alcotest.(check int) "same id" i f;
  Alcotest.check Helpers.value "first spelling wins" (Value.Int 2) (Intern.value t i);
  Alcotest.(check int) "one class" 1 (Intern.size t)

let test_intern_growth () =
  (* Push past the initial array capacity. *)
  let t = Intern.create () in
  for i = 0 to 999 do
    ignore (Intern.intern t (Value.Int i))
  done;
  Alcotest.(check int) "1000 classes" 1000 (Intern.size t);
  Alcotest.check Helpers.value "id 637" (Value.Int 637)
    (Intern.value t (Option.get (Intern.find t (Value.Int 637))))

(* --- representation switching ------------------------------------------ *)

let ints lo hi =
  let rec go acc i = if i < lo then acc else go (Value.Int i :: acc) (i - 1) in
  go [] hi

let test_adaptive_repr () =
  (* A fresh scope so id density is under the test's control. *)
  let tbl = Intern.create () in
  let dense = Item_set.of_list_in tbl (ints 0 999) in
  Alcotest.(check string) "dense range -> bits" "bits" (Item_set.Debug.repr dense);
  let sparse =
    Item_set.of_list_in tbl (List.filteri (fun i _ -> i mod 100 = 0) (ints 0 999))
  in
  Alcotest.(check string) "sparse subset -> ids" "ids" (Item_set.Debug.repr sparse);
  Alcotest.(check string) "small -> ids" "ids"
    (Item_set.Debug.repr (Item_set.of_list_in tbl (ints 0 9)));
  (* Ops cross the threshold in both directions. *)
  Alcotest.(check string) "bits \\ bits -> empty" "empty"
    (Item_set.Debug.repr (Item_set.diff dense dense));
  Alcotest.(check string) "bits ∩ sparse stays small" "ids"
    (Item_set.Debug.repr (Item_set.inter dense sparse));
  let lo = Item_set.of_list_in tbl (ints 0 499) in
  let hi = Item_set.of_list_in tbl (ints 500 999) in
  Alcotest.(check string) "union of halves -> bits" "bits"
    (Item_set.Debug.repr (Item_set.union lo hi));
  Alcotest.(check bool) "equal across construction paths" true
    (Item_set.equal dense (Item_set.union lo hi))

let test_cross_scope_ops () =
  let ta = Intern.create ~name:"a" () and tb = Intern.create ~name:"b" () in
  let sa = Item_set.of_list_in ta (ints 0 9) in
  let sb = Item_set.of_list_in tb (ints 5 14) in
  Alcotest.(check int) "cross-scope inter" 5 (Item_set.cardinal (Item_set.inter sa sb));
  Alcotest.(check int) "cross-scope union" 15 (Item_set.cardinal (Item_set.union sa sb));
  Alcotest.(check bool) "cross-scope equal" true
    (Item_set.equal sa (Item_set.of_list_in tb (ints 0 9)));
  Alcotest.(check bool) "cross-scope subset" true
    (Item_set.subset (Item_set.of_list_in tb (ints 2 4)) sa)

(* --- flat vs reference equivalence ------------------------------------- *)

(* Observations must agree between a flat set and its reference image.
   Lists compare with Value.compare (not structurally): with mixed
   Int/Float inputs the two implementations may surface different
   spellings of the same equality class (first-interned vs
   first-added), which is the documented representative caveat. *)
let agrees flat reference =
  List.equal
    (fun a b -> Value.compare a b = 0)
    (Item_set.to_list flat)
    (Item_set_ref.to_list reference)
  && Item_set.cardinal flat = Item_set_ref.cardinal reference
  && Item_set.is_empty flat = Item_set_ref.is_empty reference

(* One random operation tree, evaluated in both implementations. *)
type op_tree =
  | Leaf of Value.t list
  | Union of op_tree * op_tree
  | Inter of op_tree * op_tree
  | Diff of op_tree * op_tree
  | Add of Value.t * op_tree
  | Filter of int * op_tree (* keep values with (hash mod 3) = k *)

let rec eval_flat = function
  | Leaf vs -> Item_set.of_list vs
  | Union (a, b) -> Item_set.union (eval_flat a) (eval_flat b)
  | Inter (a, b) -> Item_set.inter (eval_flat a) (eval_flat b)
  | Diff (a, b) -> Item_set.diff (eval_flat a) (eval_flat b)
  | Add (v, a) -> Item_set.add v (eval_flat a)
  | Filter (k, a) -> Item_set.filter (fun v -> Value.hash v mod 3 = k) (eval_flat a)

let rec eval_ref = function
  | Leaf vs -> Item_set_ref.of_list vs
  | Union (a, b) -> Item_set_ref.union (eval_ref a) (eval_ref b)
  | Inter (a, b) -> Item_set_ref.inter (eval_ref a) (eval_ref b)
  | Diff (a, b) -> Item_set_ref.diff (eval_ref a) (eval_ref b)
  | Add (v, a) -> Item_set_ref.add v (eval_ref a)
  | Filter (k, a) -> Item_set_ref.filter (fun v -> Value.hash v mod 3 = k) (eval_ref a)

let rec pp_tree = function
  | Leaf vs -> Printf.sprintf "leaf(%d)" (List.length vs)
  | Union (a, b) -> Printf.sprintf "(%s ∪ %s)" (pp_tree a) (pp_tree b)
  | Inter (a, b) -> Printf.sprintf "(%s ∩ %s)" (pp_tree a) (pp_tree b)
  | Diff (a, b) -> Printf.sprintf "(%s \\ %s)" (pp_tree a) (pp_tree b)
  | Add (v, a) -> Printf.sprintf "add(%s, %s)" (Value.to_string v) (pp_tree a)
  | Filter (k, a) -> Printf.sprintf "filter%d(%s)" k (pp_tree a)

let tree_gen value_gen =
  let open QCheck2.Gen in
  let leaf = map (fun vs -> Leaf vs) (list_size (int_range 0 120) value_gen) in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        oneof
          [
            leaf;
            map2 (fun a b -> Union (a, b)) (self (depth - 1)) (self (depth - 1));
            map2 (fun a b -> Inter (a, b)) (self (depth - 1)) (self (depth - 1));
            map2 (fun a b -> Diff (a, b)) (self (depth - 1)) (self (depth - 1));
            map2 (fun v a -> Add (v, a)) value_gen (self (depth - 1));
            map2 (fun k a -> Filter (k, a)) (int_range 0 2) (self (depth - 1));
          ])
    3

(* Dense int ranges cross the bitset threshold; the offset de-aligns
   word bases between operands. *)
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

let mixed_numeric_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_range 0 50);
        map (fun i -> Value.Float (float_of_int i)) (int_range 0 50);
        map (fun i -> Value.Float (float_of_int i /. 4.0)) (int_range 0 200);
      ])

let equivalence_test name value_gen =
  Helpers.qtest ~count:200 name (tree_gen value_gen) pp_tree (fun tree ->
      let flat = eval_flat tree and reference = eval_ref tree in
      agrees flat reference
      &&
      (* Derived observations agree too. *)
      let l = Item_set_ref.to_list reference in
      List.for_all (fun v -> Item_set.mem v flat) l
      && (not (Item_set.is_empty flat))
         = List.exists (fun v -> Item_set.mem v flat) l
      &&
      (* fold enumerates in the same order as the reference fold. *)
      List.equal
        (fun a b -> Value.compare a b = 0)
        (List.rev (Item_set.fold (fun v acc -> v :: acc) flat []))
        (List.rev (Item_set_ref.fold (fun v acc -> v :: acc) reference [])))

let pair_relations_test =
  Helpers.qtest ~count:200 "subset/equal/compare agree with reference"
    QCheck2.Gen.(pair (tree_gen dense_int_gen) (tree_gen dense_int_gen))
    (fun (a, b) -> Printf.sprintf "%s vs %s" (pp_tree a) (pp_tree b))
    (fun (ta, tb) ->
      let fa = eval_flat ta and fb = eval_flat tb in
      let ra = eval_ref ta and rb = eval_ref tb in
      Item_set.subset fa fb = Item_set_ref.subset ra rb
      && Item_set.equal fa fb = Item_set_ref.equal ra rb
      && compare (Item_set.compare fa fb) 0 = compare (Item_set_ref.compare ra rb) 0
      && Item_set.subset (Item_set.inter fa fb) fa
      && Item_set.subset fa (Item_set.union fa fb))

let hash_consistency_test =
  Helpers.qtest ~count:200 "equal sets hash equal"
    QCheck2.Gen.(pair (tree_gen dense_int_gen) (tree_gen dense_int_gen))
    (fun (a, b) -> Printf.sprintf "%s vs %s" (pp_tree a) (pp_tree b))
    (fun (ta, tb) ->
      let fa = eval_flat ta and fb = eval_flat tb in
      (not (Item_set.equal fa fb)) || Item_set.hash fa = Item_set.hash fb)

(* --- delta-sized union/diff paths --------------------------------------- *)

(* One scope with ids equal to the ints they intern, so a generator can
   place the small operand inside, just past or far beyond the large
   operand's id span. *)
let delta_span = 100_000

let delta_tbl =
  lazy
    (let tbl = Intern.create ~name:"delta" () in
     for i = 0 to delta_span do
       ignore (Intern.intern tbl (Value.Int i))
     done;
     tbl)

(* A large operand, dense (bitset) or sparse (array), and a small one of
   at most 1/32 its size drawn around and beyond it. *)
let delta_case_gen =
  let open QCheck2.Gen in
  let* dense = bool in
  let* lo = int_range 0 5_000 in
  let* n = int_range 64 3_000 in
  let* big =
    if dense then list_repeat n (int_range lo (lo + (2 * n)))
    else list_repeat n (int_range lo (lo + (20 * n)))
  in
  let top = List.fold_left max lo big in
  let* k = int_range 1 (max 1 (n / 32)) in
  let* small =
    list_repeat k
      (oneof
         [
           oneofl big;
           int_range lo top;
           int_range (top + 1) (top + 200);
           int_range (top + 1) (top + 20_000);
           int_range 0 (max 0 (lo - 1));
         ])
  in
  return (big, small)

(* The canonical form of a set is a function of its elements alone:
   rebuilding it from its values must give the same representation. *)
let canonical tbl s =
  let rebuilt = Item_set.of_list_in tbl (Item_set.to_list s) in
  Item_set.equal s rebuilt && Item_set.Debug.repr s = Item_set.Debug.repr rebuilt

let delta_paths_test =
  Helpers.qtest ~count:150 "delta-sized union/diff ≡ reference, canonical"
    delta_case_gen
    (fun (big, small) -> Printf.sprintf "|big|=%d small=%s" (List.length big)
        (String.concat "," (List.map string_of_int small)))
    (fun (big, small) ->
      let tbl = Lazy.force delta_tbl in
      let vals = List.map (fun i -> Value.Int i) in
      let fb = Item_set.of_list_in tbl (vals big) in
      let fs = Item_set.of_list_in tbl (vals small) in
      let rb = Item_set_ref.of_list (vals big) and rs = Item_set_ref.of_list (vals small) in
      let check flat reference = agrees flat reference && canonical tbl flat in
      check (Item_set.union fb fs) (Item_set_ref.union rb rs)
      && check (Item_set.union fs fb) (Item_set_ref.union rs rb)
      && check (Item_set.diff fb fs) (Item_set_ref.diff rb rs)
      && check (Item_set.diff fs fb) (Item_set_ref.diff rs rb)
      && List.for_all
           (fun v -> check (Item_set.add v fb) (Item_set_ref.add v rb))
           (vals (List.filteri (fun i _ -> i < 3) small))
      (* undoing the change restores the exact original *)
      && Item_set.equal fb
           (Item_set.union
              (Item_set.diff (Item_set.union fb fs) fs)
              (Item_set.inter fb fs)))

let test_delta_switches_form () =
  let tbl = Lazy.force delta_tbl in
  let answer = Item_set.of_list_in tbl (ints 0 4_999) in
  Alcotest.(check string) "dense answer" "bits" (Item_set.Debug.repr answer);
  let far = Item_set.of_list_in tbl [ Value.Int 90_000 ] in
  let grown = Item_set.union answer far in
  Alcotest.(check string) "a far id makes it sparse" "ids" (Item_set.Debug.repr grown);
  Alcotest.(check int) "one more row" 5_001 (Item_set.cardinal grown);
  let back = Item_set.diff grown far in
  Alcotest.(check string) "removing it makes it dense again" "bits"
    (Item_set.Debug.repr back);
  Alcotest.(check bool) "structurally the original" true (Item_set.equal back answer);
  let near = Item_set.of_list_in tbl [ Value.Int 5_100 ] in
  Alcotest.(check string) "a near id keeps the bitset" "bits"
    (Item_set.Debug.repr (Item_set.union answer near));
  Alcotest.(check bool) "absent ids leave it equal" true
    (Item_set.equal answer (Item_set.diff answer near))

let suite =
  [
    Alcotest.test_case "intern basics" `Quick test_intern_basics;
    Alcotest.test_case "intern int/float bridge" `Quick test_intern_numeric_bridge;
    Alcotest.test_case "intern growth" `Quick test_intern_growth;
    Alcotest.test_case "adaptive ids/bits switching" `Quick test_adaptive_repr;
    Alcotest.test_case "cross-scope operations" `Quick test_cross_scope_ops;
    equivalence_test "flat ≡ reference (dense ints)" dense_int_gen;
    equivalence_test "flat ≡ reference (sparse mixed)" sparse_value_gen;
    equivalence_test "flat ≡ reference (int/float classes)" mixed_numeric_gen;
    pair_relations_test;
    hash_consistency_test;
    delta_paths_test;
    Alcotest.test_case "delta paths switch bits/ids and back" `Quick
      test_delta_switches_form;
  ]
