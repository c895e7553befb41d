open Fusion_cond

type t = { conds : Cond.t array }

let create = function
  | [] -> Error "a fusion query needs at least one condition"
  | conds -> Ok { conds = Array.of_list conds }

let create_exn conds =
  match create conds with
  | Ok t -> t
  | Error msg -> invalid_arg ("Query.create_exn: " ^ msg)

let conditions t = Array.copy t.conds
let condition t i = t.conds.(i)
let m t = Array.length t.conds

let validate schema t =
  let rec go i =
    if i = Array.length t.conds then Ok ()
    else
      match Cond.validate schema t.conds.(i) with
      | Ok () -> go (i + 1)
      | Error msg -> Error (Printf.sprintf "condition c%d: %s" (i + 1) msg)
  in
  go 0

let equal a b =
  Array.length a.conds = Array.length b.conds
  && Array.for_all2 Cond.equal a.conds b.conds

let normalize t =
  let simplified = List.map Cond.simplify (Array.to_list t.conds) in
  let deduped =
    List.fold_left
      (fun acc c -> if List.exists (Cond.equal c) acc then acc else c :: acc)
      [] simplified
    |> List.rev
  in
  let without_true = List.filter (fun c -> not (Cond.equal c Cond.True)) deduped in
  { conds = Array.of_list (if without_true = [] then [ Cond.True ] else without_true) }

let pp ppf t =
  Format.fprintf ppf "@[<v2>fusion query (m=%d):" (m t);
  Array.iteri (fun i c -> Format.fprintf ppf "@,c%d: %a" (i + 1) Cond.pp c) t.conds;
  Format.fprintf ppf "@]"

let qualify alias cond =
  let rec go = function
    | Cond.True -> Cond.True
    | Cond.Cmp (a, op, v) -> Cond.Cmp (alias ^ "." ^ a, op, v)
    | Cond.Between (a, lo, hi) -> Cond.Between (alias ^ "." ^ a, lo, hi)
    | Cond.In_list (a, vs) -> Cond.In_list (alias ^ "." ^ a, vs)
    | Cond.Prefix (a, p) -> Cond.Prefix (alias ^ "." ^ a, p)
    | Cond.Is_null a -> Cond.Is_null (alias ^ "." ^ a)
    | Cond.And (x, y) -> Cond.And (go x, go y)
    | Cond.Or (x, y) -> Cond.Or (go x, go y)
    | Cond.Not x -> Cond.Not (go x)
  in
  go cond

let to_sql ~union ~merge t =
  let n = m t in
  let alias i = Printf.sprintf "u%d" (i + 1) in
  let from =
    List.init n (fun i -> Printf.sprintf "%s %s" union (alias i)) |> String.concat ", "
  in
  let merge_eqs =
    List.init (max 0 (n - 1)) (fun i ->
        Printf.sprintf "%s.%s = %s.%s" (alias i) merge (alias (i + 1)) merge)
  in
  (* A [TRUE] condition is left out: the parser gives a variable with no
     conjunct of its own [TRUE], while a bare [TRUE] conjunct would
     attach to every variable. *)
  let conds =
    List.concat
      (List.mapi
         (fun i c ->
           let text = Cond.to_string (qualify (alias i) c) in
           (* A top-level OR would escape its conjunct under SQL precedence. *)
           match c with
           | Cond.True -> []
           | Cond.Or _ -> [ "(" ^ text ^ ")" ]
           | _ -> [ text ])
         (Array.to_list t.conds))
  in
  let where = match merge_eqs @ conds with [] -> [ "TRUE" ] | l -> l in
  Printf.sprintf "SELECT %s.%s FROM %s WHERE %s" (alias 0) merge from
    (String.concat " AND " where)
