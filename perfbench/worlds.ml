(* The three workloads: the world each one serves and the seeded
   statements its clients send, plus the reference oracle every answer
   is checked against.

   Every statement is a conjunction of 2-3 conditions [A_i < t] on
   distinct attributes with [t >= 50]. The benchmark's mutations insert
   and delete fresh items whose attributes are all 0, so such an item
   satisfies every statement: each standing query gains it on insert and
   loses it on delete, and every one-shot answer contains it while it
   is live. That makes the expected pushes and answers exact. *)

module Workload = Fusion_workload.Workload
module Query = Fusion_query.Query
module Cond = Fusion_cond.Cond
module Value = Fusion_data.Value
module Item_set = Fusion_data.Item_set
module Source = Fusion_source.Source
module Reference = Fusion_core.Reference

type kind = Cold | Hot | Churn

let all = [ Cold; Hot; Churn ]
let name = function Cold -> "cold" | Hot -> "hot" | Churn -> "churn"
let of_name s = List.find_opt (fun k -> name k = s) all

(* cold: a large world where every statement is new, so statistics
   scans and source work dominate; hot: the default world with a small
   Zipf-skewed statement pool behind a warm answer cache, so
   per-statement fixed costs dominate; churn: a mid-sized world where
   standing queries see a stream of insert/delete batches.

   Every source holds exactly the midpoint of the range the workload
   describes (5000 of 4-6k, 450 of the default 300-600): the seed draws
   the contents, not the size, so runs with different seeds measure the
   same amount of work. *)
let spec kind seed =
  let d = Workload.default_spec in
  match kind with
  | Cold ->
    { d with
      Workload.universe = 50_000;
      tuples_per_source = (5000, 5000);
      selectivities = [| 0.1; 0.2; 0.3; 0.4 |];
      seed }
  | Hot -> { d with Workload.tuples_per_source = (450, 450); seed }
  | Churn ->
    { d with Workload.universe = 10_000; tuples_per_source = (2000, 2000); seed }

let attributes kind = Array.length (spec kind 0).Workload.selectivities

(* Thresholds on a coarse grid, so a run's conditions come from a small
   set (the oracle memoizes per condition) while 2-3-condition
   combinations stay plentiful. *)
let thresholds = Array.init 36 (fun i -> 50 + (10 * i))

type stmt = { conds : (int * int) list; sql : string }

let cond (a, t) = Cond.Cmp (Printf.sprintf "A%d" (a + 1), Cond.Lt, Value.Int t)

let stmt conds =
  let q = Query.create_exn (List.map cond conds) in
  { conds; sql = Query.to_sql ~union:"U" ~merge:"M" q }

(* A uniformly random permutation of [0 .. n-1] (Fisher-Yates). *)
let permutation rng n =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- x
  done;
  p

let random_conds rng ~attrs =
  let k = min attrs (2 + Random.State.int rng 2) in
  Array.to_list (Array.sub (permutation rng attrs) 0 k)
  |> List.sort compare
  |> List.map (fun a ->
         (a, thresholds.(Random.State.int rng (Array.length thresholds))))

(* An endless stream of statements never seen before in this run. *)
let fresh_stream rng ~attrs =
  let seen = Hashtbl.create 1024 in
  let rec next () =
    let conds = random_conds rng ~attrs in
    if Hashtbl.mem seen conds then next ()
    else begin
      Hashtbl.add seen conds ();
      stmt conds
    end
  in
  next

(* [n] distinct statements whose shape does not depend on the seed: the
   conditions by position come from a generator fixed by [salt], and
   [rng] only permutes the attributes, which the world generator draws
   identically. A pool's mix of selectivities, and so the work it asks
   for, is then the same in every run. *)
let pool ~salt rng ~attrs n =
  let fixed = fresh_stream (Random.State.make [| Hashtbl.hash salt |]) ~attrs in
  let perm = permutation rng attrs in
  Array.init n (fun _ ->
      stmt (List.sort compare (List.map (fun (a, t) -> (perm.(a), t)) (fixed ()).conds)))

(* Zipf(1) ranks over [n] items. *)
let zipf rng n =
  let weights = Array.init n (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  fun () ->
    let r = Random.State.float rng total in
    let rec pick i acc =
      if i = n - 1 then i
      else
        let acc = acc +. weights.(i) in
        if r < acc then i else pick (i + 1) acc
    in
    pick 0 0.0

(* A fresh item that matches every statement: merge value unseen in
   the generated world (whose items are [I%06d]), every attribute 0. *)
let fresh_item k = Printf.sprintf "Z%09d" k

let fresh_row ~attrs k =
  String.concat "," (fresh_item k :: List.init attrs (fun _ -> "0"))

(* Rendered exactly as the TCP front end renders an item set. *)
let render set =
  String.concat "," (List.map Value.to_string (Item_set.to_list set))

let render_item k = Value.to_string (Value.String (fresh_item k))

(* --- the oracle ---------------------------------------------------------- *)

(* [Reference.answer_query] over the catalog's relations. The fusion
   answer is the intersection of the per-condition answers, so each
   distinct condition is evaluated once per run and each distinct
   statement's expectation once. *)
type oracle = {
  sources : Source.t array;
  per_cond : (int * int, Item_set.t) Hashtbl.t;
  per_stmt : (string, Item_set.t) Hashtbl.t;
}

let oracle sources =
  { sources; per_cond = Hashtbl.create 256; per_stmt = Hashtbl.create 1024 }

let cond_answer o c =
  match Hashtbl.find_opt o.per_cond c with
  | Some s -> s
  | None ->
    let s =
      Reference.answer_query ~sources:o.sources (Query.create_exn [ cond c ])
    in
    Hashtbl.add o.per_cond c s;
    s

let expected o st =
  match Hashtbl.find_opt o.per_stmt st.sql with
  | Some s -> s
  | None ->
    let s = Item_set.inter_list (List.map (cond_answer o) st.conds) in
    Hashtbl.add o.per_stmt st.sql s;
    s
