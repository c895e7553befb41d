open Fusion_data
open Fusion_cond
open Fusion_query
open Fusion_source
open Fusion_plan

(* A node's value as a mutable bitmap over item ids of the maintained
   plan's intern table, with its count kept. A delta flips the bits of
   its candidate items in place, so propagation never copies or scans a
   whole set; an [Item_set.t] is built only when a caller asks for one.

   [words.(i)] holds ids [(base + i) * bpw] to [(base + i) * bpw +
   bpw - 1]. [lo] and [hi] index the first and last nonzero words
   ([lo > hi] when empty); every word outside them is zero. Growth
   doubles the live span, leaving headroom on the side that grew, so a
   stream of fresh ids past the top reallocates only now and then.
   Removal trims [lo]/[hi] past emptied edge words and compacts the
   array once it exceeds [bound] of the live span. *)
module Bitmap = struct
  let bpw = Sys.int_size

  type t = {
    mutable base : int;
    mutable words : int array;
    mutable lo : int;
    mutable hi : int;
    mutable card : int;
  }

  let bound live = (4 * live) + 16

  let mem b id =
    let i = (id / bpw) - b.base in
    i >= 0 && i < Array.length b.words && b.words.(i) land (1 lsl (id mod bpw)) <> 0

  (* Moves the live words into a fresh array of [len] words whose first
     word is absolute word [base]. *)
  let relocate b ~base ~len =
    let words = Array.make len 0 in
    if b.card > 0 then begin
      let lo = b.base + b.lo - base in
      Array.blit b.words b.lo words lo (b.hi - b.lo + 1);
      b.hi <- lo + b.hi - b.lo;
      b.lo <- lo
    end;
    b.base <- base;
    b.words <- words

  (* [id] must be absent. *)
  let add b id =
    let w = id / bpw in
    if b.card = 0 && Array.length b.words > 0 then b.base <- w
    else if w < b.base || w >= b.base + Array.length b.words then begin
      let wlo = if b.card = 0 then w else min w (b.base + b.lo) in
      let whi = if b.card = 0 then w else max w (b.base + b.hi) in
      let len = 2 * (whi - wlo + 1) in
      let base = if w >= b.base then wlo else max 0 (whi - len + 1) in
      relocate b ~base ~len
    end;
    let i = w - b.base in
    b.words.(i) <- b.words.(i) lor (1 lsl (id mod bpw));
    if b.card = 0 then begin
      b.lo <- i;
      b.hi <- i
    end
    else begin
      if i < b.lo then b.lo <- i;
      if i > b.hi then b.hi <- i
    end;
    b.card <- b.card + 1

  (* [id] must be present. *)
  let remove b id =
    let i = (id / bpw) - b.base in
    b.words.(i) <- b.words.(i) land lnot (1 lsl (id mod bpw));
    b.card <- b.card - 1;
    if b.words.(i) = 0 then begin
      if b.card = 0 then begin
        b.lo <- 0;
        b.hi <- -1
      end
      else begin
        while b.words.(b.lo) = 0 do
          b.lo <- b.lo + 1
        done;
        while b.words.(b.hi) = 0 do
          b.hi <- b.hi - 1
        done
      end;
      let live = b.hi - b.lo + 1 in
      if Array.length b.words > bound live then
        relocate b ~base:(b.base + if live = 0 then 0 else b.lo) ~len:live
    end

  (* Exactly spanning bitmap of a set of the maintained table. *)
  let of_set s =
    let base, words = Item_set.words s in
    let hi = Array.length words - 1 in
    { base = base / bpw; words; lo = 0; hi; card = Item_set.cardinal s }

  let to_set tbl b =
    Item_set.of_words tbl ~base:((b.base + b.lo) * bpw)
      (Array.sub b.words b.lo (b.hi - b.lo + 1))
end

(* Operands are resolved at [create] time to the index of the node that
   binds them last before the reading op, so propagation never looks a
   variable up. Semijoin nodes additionally keep their full selection
   set [sel] (all items of the source matching the condition), so
   [out = sel ∩ input] is maintainable without re-querying the base.
   [Local_select] over a loaded relation maintains like a selection on
   that source. [flips] holds the ids whose membership the current
   propagation changed. *)
type kind =
  | Kselect of { source : int; vec : Cond_vec.t }
  | Ksemijoin of { source : int; vec : Cond_vec.t; input : int; sel : Bitmap.t }
  | Kunion of int list
  | Kinter of int list
  | Kdiff of int * int

type node = { dst : string; out : Bitmap.t; kind : kind; mutable flips : int list }

type t = {
  relations : Relation.t array;
  tbl : Intern.t;
  nodes : node array;
  versions : int array;
  output : int option;
  plan : Plan.t;
}

(* The last node binding [var], if any. *)
let binding nodes var =
  let rec go i =
    if i < 0 then None else if nodes.(i).dst = var then Some i else go (i - 1)
  in
  go (Array.length nodes - 1)

let value t var =
  match binding t.nodes var with
  | Some i -> Bitmap.to_set t.tbl t.nodes.(i).out
  | None -> Item_set.empty

let answer t =
  match t.output with
  | Some i -> Bitmap.to_set t.tbl t.nodes.(i).out
  | None -> Item_set.empty

let cardinal t = match t.output with Some i -> t.nodes.(i).out.Bitmap.card | None -> 0
let versions t = Array.copy t.versions
let plan t = t.plan

let state_words t =
  Array.fold_left
    (fun acc nd ->
      let sel =
        match nd.kind with Ksemijoin sj -> Array.length sj.sel.Bitmap.words | _ -> 0
      in
      acc + Array.length nd.out.Bitmap.words + sel)
    0 t.nodes

(* [s] in table [tbl], re-interned when it belongs to another. *)
let in_table tbl s =
  match Item_set.table s with
  | Some st when st != tbl ->
    let ids = Item_set.fold (fun v acc -> Intern.intern tbl v :: acc) s [] in
    Item_set.of_ids tbl (Array.of_list ids)
  | _ -> s

let create ~query ~sources p =
  let sources = Array.of_list sources in
  let n = Array.length sources in
  match Plan.validate ~m:(Query.m query) ~n p with
  | Error e -> Error e
  | Ok () -> (
    let relations = Array.map Source.relation sources in
    let tbl = if n = 0 then Intern.global else Relation.intern relations.(0) in
    (* Compiled column scans stay valid across deltas (ids are stable,
       column arrays are re-fetched per scan), so each node compiles its
       condition once for the lifetime of the maintained answer. *)
    let vec cond source =
      Cond_vec.compile relations.(source) (Query.condition query cond)
    in
    (* Walk the straight-line ops once, evaluating each node with the
       set kernels and resolving operands to node indices. Loaded
       relations resolve statically to their source. *)
    let loads = Hashtbl.create 4 in
    let nodes = ref [] and count = ref 0 in
    let values = Hashtbl.create 16 in
    let index var =
      match Hashtbl.find_opt values var with
      | Some (i, _) -> i
      | None -> raise Exit (* validate guarantees this *)
    in
    let get var = snd (Hashtbl.find values var) in
    let node dst kind v =
      nodes := { dst; out = Bitmap.of_set (in_table tbl v); kind; flips = [] } :: !nodes;
      Hashtbl.replace values dst (!count, v);
      incr count
    in
    let select dst source vec =
      node dst (Kselect { source; vec }) (Cond_vec.select_items vec)
    in
    try
      List.iter
        (fun op ->
          match (op : Op.t) with
          | Select { dst; cond; source } -> select dst source (vec cond source)
          | Semijoin { dst; cond; source; input } ->
            let vec = vec cond source in
            let sel = Cond_vec.select_items vec in
            let state = Bitmap.of_set (in_table tbl sel) in
            node dst
              (Ksemijoin { source; vec; input = index input; sel = state })
              (Item_set.inter sel (get input))
          | Load { dst; source } -> Hashtbl.replace loads dst source
          | Local_select { dst; cond; input } ->
            let source =
              match Hashtbl.find_opt loads input with Some s -> s | None -> raise Exit
            in
            select dst source (vec cond source)
          | Union { dst; args } ->
            node dst (Kunion (List.map index args))
              (Item_set.union_list (List.map get args))
          | Inter { dst; args } ->
            node dst (Kinter (List.map index args))
              (Item_set.inter_list (List.map get args))
          | Diff { dst; left; right } ->
            node dst (Kdiff (index left, index right))
              (Item_set.diff (get left) (get right)))
        (Plan.ops p);
      let nodes = Array.of_list (List.rev !nodes) in
      Ok
        {
          relations;
          tbl;
          nodes;
          versions = Array.map Relation.version relations;
          output = binding nodes (Plan.output p);
          plan = p;
        }
    with Exit -> Error "local selection over an unloaded variable")

(* Propagate one source's touched-item set through the DAG in plan
   order, so operand bitmaps (and flips) are already current when read.
   Each node re-decides membership only for its candidates — the touched
   items at a selection over the changed source, the operands' flips
   elsewhere — and flips the bits that moved. *)
let source_changed t ~source ~touched =
  if source < 0 || source >= Array.length t.relations then
    invalid_arg "Maintained.source_changed: source index out of range";
  t.versions.(source) <- Relation.version t.relations.(source);
  let main =
    match Item_set.table touched with
    | Some st when st != t.tbl -> fun id -> Intern.intern t.tbl (Intern.value st id)
    | _ -> Fun.id
  in
  (* Sets [id]'s bit in [b] to [on]; a flip joins [acc]. *)
  let decide b acc id on =
    if Bitmap.mem b id = on then acc
    else begin
      if on then Bitmap.add b id else Bitmap.remove b id;
      id :: acc
    end
  in
  (* A selection over the changed source re-probes only the touched
     items against the relation. *)
  let reselect vec b =
    if Item_set.is_empty touched then []
    else
      let now = Cond_vec.semijoin_items vec touched in
      Item_set.fold_ids
        (fun id acc -> decide b acc (main id) (Item_set.mem_id id now))
        touched []
  in
  let mem i id = Bitmap.mem t.nodes.(i).out id in
  let flips_of args = List.concat_map (fun i -> t.nodes.(i).flips) args in
  let redecide nd candidates on =
    List.fold_left (fun acc id -> decide nd.out acc id (on id)) [] candidates
  in
  Array.iter
    (fun nd ->
      nd.flips <-
        (match nd.kind with
        | Kselect { source = s; vec } -> if s = source then reselect vec nd.out else []
        | Ksemijoin { source = s; vec; input; sel } ->
          let moved = if s = source then reselect vec sel else [] in
          redecide nd (moved @ t.nodes.(input).flips) (fun id ->
              Bitmap.mem sel id && mem input id)
        | Kunion args ->
          redecide nd (flips_of args) (fun id -> List.exists (fun a -> mem a id) args)
        | Kinter args ->
          redecide nd (flips_of args) (fun id -> List.for_all (fun a -> mem a id) args)
        | Kdiff (l, r) ->
          redecide nd (t.nodes.(l).flips @ t.nodes.(r).flips) (fun id ->
              mem l id && not (mem r id))))
    t.nodes;
  match t.output with
  | None -> Change.empty
  | Some o ->
    let out = t.nodes.(o).out in
    let adds, dels = List.partition (Bitmap.mem out) t.nodes.(o).flips in
    let set = function
      | [] -> Item_set.empty
      | ids -> Item_set.of_ids t.tbl (Array.of_list ids)
    in
    { Change.adds = set adds; dels = set dels }

let mutate t ~source delta =
  if source < 0 || source >= Array.length t.relations then
    invalid_arg "Maintained.mutate: source index out of range";
  let applied = Delta.apply t.relations.(source) delta in
  let change = source_changed t ~source ~touched:applied.Delta.touched in
  (applied, change)
