open Fusion_data
open Fusion_cond

type provider =
  | Exact
  | Sampled of Tuple.t array (* uniform tuple sample *)
  | Histograms of (string, Histogram.t) Hashtbl.t (* per int attribute *)

type t = {
  relation : Relation.t;
  mutable provider : provider;
  memo : (Cond.t, float) Hashtbl.t;
  vecs : (Cond.t, Cond_vec.t) Hashtbl.t;
      (* the exact provider's compiled scans: private to these statistics
         (a source's own scans belong to its request lane) and valid
         across relation versions *)
  lock : Mutex.t;  (* guards every mutable field above and the scans' scratch *)
  mutable version : int;  (* relation version the memo/provider reflect *)
  rebuild : Relation.t -> provider;  (* how to refresh the provider *)
}

(* Both tables are flushed whole when they reach this many conditions,
   so a server that never sees a statement twice holds bounded state. *)
let capacity = 1024

let make relation rebuild =
  {
    relation;
    provider = rebuild relation;
    memo = Hashtbl.create 8;
    vecs = Hashtbl.create 8;
    lock = Mutex.create ();
    version = Relation.version relation;
    rebuild;
  }

let add_bounded tbl key v =
  if Hashtbl.length tbl >= capacity then Hashtbl.reset tbl;
  Hashtbl.add tbl key v

(* Estimates must track a mutable relation: on version change, drop the
   memo and rebuild sampled/histogram providers. Sampling again after
   growth is what a periodically refreshing mediator would do. The
   compiled scans survive: they re-read the columns on every scan. *)
let ensure_fresh t =
  if Relation.version t.relation <> t.version then begin
    Hashtbl.reset t.memo;
    t.provider <- t.rebuild t.relation;
    t.version <- Relation.version t.relation
  end

let exact relation = make relation (fun _ -> Exact)

let reservoir_sample prng k relation =
  let sample = Array.make (min k (Relation.cardinality relation)) [||] in
  let seen = ref 0 in
  Relation.iter
    (fun tuple ->
      if !seen < Array.length sample then sample.(!seen) <- tuple
      else begin
        let j = Prng.int prng (!seen + 1) in
        if j < Array.length sample then sample.(j) <- tuple
      end;
      incr seen)
    relation;
  sample

let sampled ~sample_size prng relation =
  make relation (fun r -> Sampled (reservoir_sample prng sample_size r))

let build_histograms ~buckets relation =
  let schema = Relation.schema relation in
  let tables = Hashtbl.create 8 in
  List.iteri
    (fun pos (name, ty) ->
      if ty = Value.Tint then begin
        let values = ref [] and lo = ref max_int and hi = ref min_int in
        Relation.iter
          (fun tuple ->
            match Tuple.get tuple pos with
            | Value.Int v ->
              values := (v, 1) :: !values;
              if v < !lo then lo := v;
              if v > !hi then hi := v
            | _ -> ())
          relation;
        if !values <> [] then
          Hashtbl.replace tables name
            (Histogram.build ~buckets ~lo:!lo ~hi:(max !hi (!lo + 1)) ~values:!values)
      end)
    (Schema.attrs schema);
  tables

let histogram ?(buckets = 20) relation =
  make relation (fun r -> Histograms (build_histograms ~buckets r))

let cardinality t = Relation.cardinality t.relation
let distinct_items t = Relation.distinct_item_count t.relation
let is_exact t = t.provider = Exact

(* Histogram-based selectivity: estimates per predicate, combined with
   textbook independence for boolean operators; all in tuple-weight
   space, capped at the distinct-item count by the caller. *)
let histogram_matching tables ~distinct ~fallback cond =
  let rec weight = function
    | Cond.True -> fallback
    | Cond.Cmp (a, op, Value.Int v) -> (
      match Hashtbl.find_opt tables a with
      | None -> 0.1 *. fallback
      | Some h -> (
        let tot = Histogram.total h in
        match op with
        | Cond.Lt -> Histogram.estimate_le h v
        | Cond.Le -> Histogram.estimate_le h (v + 1)
        | Cond.Gt -> tot -. Histogram.estimate_le h (v + 1)
        | Cond.Ge -> tot -. Histogram.estimate_le h v
        | Cond.Eq -> Histogram.estimate_eq h v
        | Cond.Ne -> tot -. Histogram.estimate_eq h v))
    | Cond.Between (a, Value.Int lo, Value.Int hi) -> (
      match Hashtbl.find_opt tables a with
      | None -> 0.25 *. fallback
      | Some h -> Histogram.estimate_range h ~lo ~hi)
    | Cond.In_list (a, vs) -> (
      match Hashtbl.find_opt tables a with
      | None -> 0.1 *. fallback *. float_of_int (List.length vs)
      | Some h ->
        List.fold_left
          (fun acc v ->
            match v with Value.Int i -> acc +. Histogram.estimate_eq h i | _ -> acc)
          0.0 vs)
    | Cond.Cmp (_, Cond.Eq, _) -> 0.1 *. fallback
    | Cond.Cmp (_, Cond.Ne, _) -> 0.9 *. fallback
    | Cond.Cmp (_, _, _) -> (1.0 /. 3.0) *. fallback
    | Cond.Between (_, _, _) -> 0.25 *. fallback
    | Cond.Prefix (_, _) -> 0.25 *. fallback
    | Cond.Is_null _ -> 0.05 *. fallback
    | Cond.And (x, y) -> weight x *. weight y /. Float.max 1.0 fallback
    | Cond.Or (x, y) ->
      let wx = weight x and wy = weight y in
      wx +. wy -. (wx *. wy /. Float.max 1.0 fallback)
    | Cond.Not x -> Float.max 0.0 (fallback -. weight x)
  in
  Float.min distinct (Float.max 0.0 (weight cond))

let vec t cond =
  match Hashtbl.find_opt t.vecs cond with
  | Some v -> v
  | None ->
    let v = Cond_vec.compile t.relation cond in
    add_bounded t.vecs cond v;
    v

let compute_matching t cond =
  match t.provider with
  | Exact -> float_of_int (Cond_vec.count_items (vec t cond))
  | Histograms tables ->
    let distinct = float_of_int (Relation.distinct_item_count t.relation) in
    let fallback = float_of_int (Relation.cardinality t.relation) in
    histogram_matching tables ~distinct ~fallback cond
  | Sampled sample ->
    let n = Array.length sample in
    if n = 0 then 0.0
    else begin
      (* Fraction of sampled tuples matching, scaled to the published
         distinct-item count. Biased when items have many tuples, but
         that is the realistic price of sampling; the exact provider is
         available as the oracle baseline. *)
      let pred = Cond.compile (Relation.schema t.relation) cond in
      let hits = Array.fold_left (fun acc tu -> if pred tu then acc + 1 else acc) 0 sample in
      float_of_int (distinct_items t) *. (float_of_int hits /. float_of_int n)
    end

let matching_items t cond =
  Mutex.protect t.lock (fun () ->
      ensure_fresh t;
      match Hashtbl.find_opt t.memo cond with
      | Some v -> v
      | None ->
        let v = compute_matching t cond in
        add_bounded t.memo cond v;
        v)

let item_selectivity t cond =
  let d = distinct_items t in
  if d = 0 then 0.0 else matching_items t cond /. float_of_int d
