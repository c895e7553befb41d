open Fusion_data

type t = {
  name : string;
  schema : Schema.t;
  intern : Intern.t;
  mutable rows : Tuple.t array;
  mutable used : int;
  mutable version : int;
  index : (Intern.id, int list) Hashtbl.t; (* item id -> row positions, newest first *)
}

let create ~name ?(intern = Intern.global) schema =
  {
    name;
    schema;
    intern;
    rows = [||];
    used = 0;
    version = 0;
    index = Hashtbl.create 64;
  }

let version t = t.version

let name t = t.name
let schema t = t.schema
let intern t = t.intern
let cardinality t = t.used

let ensure_capacity t =
  if t.used = Array.length t.rows then begin
    let capacity = max 16 (2 * Array.length t.rows) in
    let rows = Array.make capacity [||] in
    Array.blit t.rows 0 rows 0 t.used;
    t.rows <- rows
  end

let insert t tuple =
  ensure_capacity t;
  t.rows.(t.used) <- tuple;
  let item = Intern.intern t.intern (Tuple.item t.schema tuple) in
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.index item) in
  Hashtbl.replace t.index item (t.used :: existing);
  t.used <- t.used + 1;
  t.version <- t.version + 1

(* Delete by swapping the last row into the freed slot: O(1) in the
   relation size, O(tuples-per-item) in the two affected index entries.
   After a remove, position lists no longer reflect insertion order. *)
let remove t tuple =
  let item = Tuple.item t.schema tuple in
  match Intern.find t.intern item with
  | None -> false
  | Some id -> (
    match Hashtbl.find_opt t.index id with
    | None -> false
    | Some positions -> (
      match List.find_opt (fun i -> Tuple.equal t.rows.(i) tuple) positions with
      | None -> false
      | Some pos ->
        let last = t.used - 1 in
        let remaining = List.filter (fun i -> i <> pos) positions in
        let replace id = function
          | [] -> Hashtbl.remove t.index id
          | l -> Hashtbl.replace t.index id l
        in
        if pos = last then replace id remaining
        else begin
          let moved = t.rows.(last) in
          t.rows.(pos) <- moved;
          let fix l = List.map (fun i -> if i = last then pos else i) l in
          let mid = Intern.intern t.intern (Tuple.item t.schema moved) in
          if mid = id then replace id (fix remaining)
          else begin
            replace id remaining;
            match Hashtbl.find_opt t.index mid with
            | Some l -> Hashtbl.replace t.index mid (fix l)
            | None -> assert false
          end
        end;
        t.rows.(last) <- [||];
        t.used <- last;
        t.version <- t.version + 1;
        true))

let of_tuples ~name ?intern schema tuples =
  let t = create ~name ?intern schema in
  List.iter (insert t) tuples;
  t

let iter f t =
  for i = 0 to t.used - 1 do
    f t.rows.(i)
  done

let fold f init t =
  let acc = ref init in
  iter (fun tuple -> acc := f !acc tuple) t;
  !acc

let tuples t = List.rev (fold (fun acc tu -> tu :: acc) [] t)

let ids_of_index t keep =
  let out = Array.make (Hashtbl.length t.index) 0 in
  let k = ref 0 in
  Hashtbl.iter
    (fun id positions ->
      if keep id positions then begin
        out.(!k) <- id;
        incr k
      end)
    t.index;
  Item_set.of_ids t.intern (if !k = Array.length out then out else Array.sub out 0 !k)

let items t = ids_of_index t (fun _ _ -> true)

let distinct_item_count t = Hashtbl.length t.index

(* Positions are stored newest-first; rev_map restores insertion order. *)
let tuples_at t positions = List.rev_map (fun i -> t.rows.(i)) positions

let tuples_of_item t item =
  match Intern.find t.intern item with
  | None -> []
  | Some id -> (
    match Hashtbl.find_opt t.index id with
    | None -> []
    | Some positions -> tuples_at t positions)

let select_items t p =
  ids_of_index t (fun _ positions -> List.exists (fun i -> p t.rows.(i)) positions)

let semijoin_items t p xs =
  match Item_set.table xs with
  | Some tbl when tbl == t.intern ->
    (* Probe the int index directly, in id order. *)
    let kept =
      Item_set.fold_ids
        (fun id acc ->
          match Hashtbl.find_opt t.index id with
          | Some positions when List.exists (fun i -> p t.rows.(i)) positions -> id :: acc
          | _ -> acc)
        xs []
    in
    Item_set.of_ids t.intern (Array.of_list (List.rev kept))
  | _ ->
    (* Cross-scope (or empty) probe: fall back to value-level lookups. *)
    Item_set.filter (fun item -> List.exists p (tuples_of_item t item)) xs

let select_tuples t p = List.filter p (tuples t)

let count_matching t p = Item_set.cardinal (select_items t p)
