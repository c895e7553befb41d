(* Struct-of-arrays relation: one dictionary-encoded id column per
   attribute plus a null bitmap per column. The merge column is encoded
   in the relation's catalog scope [intern] (so ids line up with
   [Item_set] and the probe index); every other column gets a private
   per-column dictionary, which keeps the catalog scope dense and makes
   materialized rows round-trip exactly (one column holds one type, so
   an equality class never has two spellings). *)

let bpw = Sys.int_size

type col = {
  tbl : Intern.t;
  mutable ids : int array; (* dictionary ids, row-indexed; valid below [used] *)
  mutable nulls : int array; (* bitmap: bit r set iff row r is Null *)
}

type t = {
  name : string;
  schema : Schema.t;
  intern : Intern.t;
  cols : col array;
  merge_pos : int;
  mutable used : int;
  mutable capacity : int;
  mutable version : int;
  index : (Intern.id, int list) Hashtbl.t; (* item id -> row positions, newest first *)
}

let create ~name ?(intern = Intern.global) schema =
  let merge_pos = Schema.merge_pos schema in
  let attr_names = Array.of_list (List.map fst (Schema.attrs schema)) in
  let cols =
    Array.init (Schema.arity schema) (fun a ->
        let tbl =
          if a = merge_pos then intern
          else Intern.create ~name:(Printf.sprintf "%s.%s" name attr_names.(a)) ()
        in
        { tbl; ids = [||]; nulls = [||] })
  in
  {
    name;
    schema;
    intern;
    cols;
    merge_pos;
    used = 0;
    capacity = 0;
    version = 0;
    index = Hashtbl.create 64;
  }

let version t = t.version
let name t = t.name
let schema t = t.schema
let intern t = t.intern
let cardinality t = t.used
let merge_pos t = t.merge_pos
let arity t = Array.length t.cols
let column_table t a = t.cols.(a).tbl
let column_ids t a = t.cols.(a).ids
let column_null_words t a = t.cols.(a).nulls

let positions_of_id t id = Option.value ~default:[] (Hashtbl.find_opt t.index id)

let words_for capacity = (capacity + bpw - 1) / bpw

let ensure_capacity t =
  if t.used = t.capacity then begin
    let capacity = max 16 (2 * t.capacity) in
    let nwords = words_for capacity in
    Array.iter
      (fun c ->
        let ids = Array.make capacity 0 in
        Array.blit c.ids 0 ids 0 t.used;
        c.ids <- ids;
        let nulls = Array.make nwords 0 in
        Array.blit c.nulls 0 nulls 0 (Array.length c.nulls);
        c.nulls <- nulls)
      t.cols;
    t.capacity <- capacity
  end

let set_null c i yes =
  let w = i / bpw and bit = 1 lsl (i mod bpw) in
  if yes then c.nulls.(w) <- c.nulls.(w) lor bit
  else c.nulls.(w) <- c.nulls.(w) land lnot bit

let insert t tuple =
  ensure_capacity t;
  let pos = t.used in
  Array.iteri
    (fun a c ->
      let v = Tuple.get tuple a in
      c.ids.(pos) <- Intern.intern c.tbl v;
      set_null c pos (v = Value.Null))
    t.cols;
  let item = t.cols.(t.merge_pos).ids.(pos) in
  let existing = positions_of_id t item in
  Hashtbl.replace t.index item (pos :: existing);
  t.used <- pos + 1;
  t.version <- t.version + 1

(* Dictionary ids are in bijection with [Value.equal] classes, so a row
   equals [tuple] iff every column id equals the id of the corresponding
   tuple slot. [Intern.find] keeps the probe allocation-free: a value
   absent from a column's dictionary cannot appear in that column. *)
let row_ids_of_tuple t tuple =
  let arity = Array.length t.cols in
  let out = Array.make arity 0 in
  let rec go a =
    if a = arity then Some out
    else
      match Intern.find t.cols.(a).tbl (Tuple.get tuple a) with
      | None -> None
      | Some id ->
        out.(a) <- id;
        go (a + 1)
  in
  go 0

let row_matches_ids t tids pos =
  let arity = Array.length t.cols in
  let rec go a = a = arity || (t.cols.(a).ids.(pos) = tids.(a) && go (a + 1)) in
  go 0

(* Delete by swapping the last row into the freed slot: O(1) in the
   relation size, O(tuples-per-item) in the two affected index entries.
   After a remove, position lists no longer reflect insertion order. *)
let remove t tuple =
  match row_ids_of_tuple t tuple with
  | None -> false
  | Some tids -> (
    let id = tids.(t.merge_pos) in
    match Hashtbl.find_opt t.index id with
    | None -> false
    | Some positions -> (
      match List.find_opt (row_matches_ids t tids) positions with
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
          Array.iter
            (fun c ->
              c.ids.(pos) <- c.ids.(last);
              set_null c pos (c.nulls.(last / bpw) land (1 lsl (last mod bpw)) <> 0))
            t.cols;
          let fix l = List.map (fun i -> if i = last then pos else i) l in
          let mid = t.cols.(t.merge_pos).ids.(pos) in
          if mid = id then replace id (fix remaining)
          else begin
            replace id remaining;
            match Hashtbl.find_opt t.index mid with
            | Some l -> Hashtbl.replace t.index mid (fix l)
            | None -> assert false
          end
        end;
        t.used <- last;
        t.version <- t.version + 1;
        true))

let of_tuples ~name ?intern schema tuples =
  let t = create ~name ?intern schema in
  List.iter (insert t) tuples;
  t

let of_rows ~name ?intern schema rows =
  let t = create ~name ?intern schema in
  let rec go = function
    | [] -> Ok t
    | row :: rest -> (
      match Tuple.create schema row with
      | Ok tuple ->
        insert t tuple;
        go rest
      | Error msg -> Error (Printf.sprintf "%s (row %d)" msg (cardinality t + 1)))
  in
  go rows

let value_at t a i = Intern.value t.cols.(a).tbl t.cols.(a).ids.(i)

let row t i =
  if i < 0 || i >= t.used then invalid_arg "Relation.row";
  Array.init (Array.length t.cols) (fun a -> value_at t a i)

let iter f t =
  for i = 0 to t.used - 1 do
    f (row t i)
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
let tuples_at t positions = List.rev_map (row t) positions

let tuples_of_item t item =
  match Intern.find t.intern item with
  | None -> []
  | Some id -> (
    match Hashtbl.find_opt t.index id with
    | None -> []
    | Some positions -> tuples_at t positions)

let select_items t p =
  ids_of_index t (fun _ positions -> List.exists (fun i -> p (row t i)) positions)

let semijoin_items t p xs =
  match Item_set.table xs with
  | Some tbl when tbl == t.intern ->
    (* Probe the int index directly, in id order. *)
    let kept =
      Item_set.fold_ids
        (fun id acc ->
          match Hashtbl.find_opt t.index id with
          | Some positions when List.exists (fun i -> p (row t i)) positions -> id :: acc
          | _ -> acc)
        xs []
    in
    Item_set.of_ids t.intern (Array.of_list (List.rev kept))
  | _ ->
    (* Cross-scope (or empty) probe: fall back to value-level lookups. *)
    Item_set.filter (fun item -> List.exists p (tuples_of_item t item)) xs

let select_tuples t p =
  let acc = ref [] in
  for i = t.used - 1 downto 0 do
    let tu = row t i in
    if p tu then acc := tu :: !acc
  done;
  !acc

let count_matching t p = Item_set.cardinal (select_items t p)

let pp ppf t =
  Format.fprintf ppf "@[<v2>%s%a [%d tuples]" t.name Schema.pp t.schema t.used;
  iter (fun tuple -> Format.fprintf ppf "@,%a" Tuple.pp tuple) t;
  Format.fprintf ppf "@]"
