open Fusion_data

let bpw = Sys.int_size

(* Per-atom memo over a column's dictionary: atoms are functions of the
   value's equality class only ([Value.compare] orders classes
   consistently across Int/Float spellings, Prefix/In_list classes are
   single-typed), so each class is evaluated once, on its
   representative, and every later row with that id is a byte load. *)
type memo = {
  tbl : Intern.t;
  mutable bits : Bytes.t; (* '\000' unknown / '\001' true / '\002' false *)
  eval_v : Value.t -> bool;
}

type node =
  | N_true
  | N_eq of { col : int; lit : Value.t; mutable id : int } (* -1: class unseen so far *)
  | N_memo of { col : int; m : memo }
  | N_null of { col : int }
  | N_and of node * node
  | N_or of node * node
  | N_not of node

type t = {
  rel : Relation.t;
  cond : Cond.t;
  node : node;
  mutable seen : int array; (* scratch bitmap over catalog item ids *)
  mutable hits : int array; (* scratch vec of matched item ids *)
}

let relation t = t.rel
let cond t = t.cond

let memo_test m id =
  if id >= Bytes.length m.bits then begin
    let n = max 64 (max (id + 1) (2 * Bytes.length m.bits)) in
    let bits = Bytes.make n '\000' in
    Bytes.blit m.bits 0 bits 0 (Bytes.length m.bits);
    m.bits <- bits
  end;
  match Bytes.unsafe_get m.bits id with
  | '\001' -> true
  | '\002' -> false
  | _ ->
    let r = m.eval_v (Intern.value m.tbl id) in
    Bytes.unsafe_set m.bits id (if r then '\001' else '\002');
    r

let memo_of rel col eval_v =
  N_memo { col; m = { tbl = Relation.column_table rel col; bits = Bytes.empty; eval_v } }

(* Mirrors [Cond.eval] atom semantics exactly: comparisons against a
   Null cell are false, [Prefix] needs a string cell, [Is_null] reads
   the null bitmap. [Eq] against a non-null literal shortcuts to a
   single id comparison (a Null cell has a different class id). *)
let compile rel cond0 =
  let schema = Relation.schema rel in
  let rec go c =
    match (c : Cond.t) with
    | True -> N_true
    | Cmp (attr, Eq, lit) when lit <> Value.Null ->
      N_eq { col = Schema.pos_exn schema attr; lit; id = -1 }
    | Cmp (attr, op, lit) ->
      memo_of rel (Schema.pos_exn schema attr) (fun v ->
          match v with
          | Value.Null -> false
          | v -> Cond.cmp_holds op (Value.compare v lit))
    | Between (attr, lo, hi) ->
      memo_of rel (Schema.pos_exn schema attr) (fun v ->
          match v with
          | Value.Null -> false
          | v -> Value.compare lo v <= 0 && Value.compare v hi <= 0)
    | In_list (attr, lits) ->
      memo_of rel (Schema.pos_exn schema attr) (fun v ->
          match v with
          | Value.Null -> false
          | v -> List.exists (Value.equal v) lits)
    | Prefix (attr, prefix) ->
      memo_of rel (Schema.pos_exn schema attr) (fun v ->
          match v with
          | Value.String s -> Cond.string_has_prefix ~prefix s
          | _ -> false)
    | Is_null attr -> N_null { col = Schema.pos_exn schema attr }
    | And (a, b) -> N_and (go a, go b)
    | Or (a, b) -> N_or (go a, go b)
    | Not a -> N_not (go a)
  in
  { rel; cond = cond0; node = go cond0; seen = [||]; hits = [||] }

(* Bind the node tree to the relation's *current* column arrays (array
   identity changes when the relation grows, so this is per scan).
   The returned predicate indexes rows and must only be applied below
   [Relation.cardinality]. *)
let rec bind rel node =
  match node with
  | N_true -> fun _ -> true
  | N_eq e ->
    let ids = Relation.column_ids rel e.col in
    if e.id < 0 then begin
      match Intern.find (Relation.column_table rel e.col) e.lit with
      | Some i -> e.id <- i (* ids are never reassigned: cache forever *)
      | None -> ()
    end;
    let lid = e.id in
    if lid < 0 then fun _ -> false else fun i -> Array.unsafe_get ids i = lid
  | N_memo { col; m } ->
    let ids = Relation.column_ids rel col in
    fun i -> memo_test m (Array.unsafe_get ids i)
  | N_null { col } ->
    let words = Relation.column_null_words rel col in
    fun i -> Array.unsafe_get words (i / bpw) land (1 lsl (i mod bpw)) <> 0
  | N_and (a, b) ->
    let fa = bind rel a and fb = bind rel b in
    fun i -> fa i && fb i
  | N_or (a, b) ->
    let fa = bind rel a and fb = bind rel b in
    fun i -> fa i || fb i
  | N_not a ->
    let fa = bind rel a in
    fun i -> not (fa i)

let ensure_seen t nwords =
  if Array.length t.seen < nwords then begin
    let seen = Array.make (max 64 nwords) 0 in
    Array.blit t.seen 0 seen 0 (Array.length t.seen);
    t.seen <- seen
  end

let ensure_hits t n =
  if Array.length t.hits < n then begin
    (* Doubling, not exact-fit: push_hit grows one element at a time. *)
    let hits = Array.make (max 64 (max n (2 * Array.length t.hits))) 0 in
    Array.blit t.hits 0 hits 0 (Array.length t.hits);
    t.hits <- hits
  end

let push_hit t k id =
  ensure_hits t (k + 1);
  t.hits.(k) <- id

let count_rows t =
  let hit = bind t.rel t.node in
  let n = Relation.cardinality t.rel in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if hit i then incr k
  done;
  !k

let select_items t =
  let rel = t.rel in
  let hit = bind rel t.node in
  let n = Relation.cardinality rel in
  let items = Relation.column_ids rel (Relation.merge_pos rel) in
  ensure_seen t ((Intern.size (Relation.intern rel) + bpw - 1) / bpw);
  let seen = t.seen in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if hit i then begin
      let id = Array.unsafe_get items i in
      let w = id / bpw and bit = 1 lsl (id mod bpw) in
      if Array.unsafe_get seen w land bit = 0 then begin
        Array.unsafe_set seen w (Array.unsafe_get seen w lor bit);
        push_hit t !k id;
        incr k
      end
    end
  done;
  let out = Array.sub t.hits 0 !k in
  (* Clear only the bits we set, via the hit list. *)
  for j = 0 to !k - 1 do
    let id = Array.unsafe_get out j in
    seen.(id / bpw) <- seen.(id / bpw) land lnot (1 lsl (id mod bpw))
  done;
  Item_set.of_ids (Relation.intern rel) out

(* The counting kernel behind exact statistics: the same seen-bitmap
   dedup as [select_items], but no hit list, no [Item_set] and no sort.
   Only the word range between the lowest and highest set word is
   cleared afterwards, so a warm scan allocates nothing per row. *)
let count_items t =
  let rel = t.rel in
  let hit = bind rel t.node in
  let n = Relation.cardinality rel in
  let items = Relation.column_ids rel (Relation.merge_pos rel) in
  ensure_seen t ((Intern.size (Relation.intern rel) + bpw - 1) / bpw);
  let seen = t.seen in
  let k = ref 0 and lo = ref max_int and hi = ref (-1) in
  for i = 0 to n - 1 do
    if hit i then begin
      let id = Array.unsafe_get items i in
      let w = id / bpw and bit = 1 lsl (id mod bpw) in
      let sw = Array.unsafe_get seen w in
      if sw land bit = 0 then begin
        Array.unsafe_set seen w (sw lor bit);
        incr k;
        if w < !lo then lo := w;
        if w > !hi then hi := w
      end
    end
  done;
  if !hi >= 0 then Array.fill seen !lo (!hi - !lo + 1) 0;
  !k

let semijoin_items t xs =
  let rel = t.rel in
  match Item_set.table xs with
  | Some tbl when tbl == Relation.intern rel ->
    (* Probe the int index directly, in id order; the kept ids come out
       already sorted, so [of_ids] takes its no-sort fast path. *)
    let hit = bind rel t.node in
    let k =
      Item_set.fold_ids
        (fun id k ->
          match Relation.positions_of_id rel id with
          | [] -> k
          | positions when List.exists hit positions ->
            push_hit t k id;
            k + 1
          | _ -> k)
        xs 0
    in
    Item_set.of_ids (Relation.intern rel) (Array.sub t.hits 0 k)
  | _ ->
    (* Cross-scope (or empty) probe: value-level fallback on the hoisted
       row predicate. *)
    let p = Cond.compile (Relation.schema rel) t.cond in
    Item_set.filter (fun item -> List.exists p (Relation.tuples_of_item rel item)) xs
