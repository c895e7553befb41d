(* The original [Item_set] implementation over [Set.Make (Value)],
   kept verbatim as the reference semantics for the flat
   dictionary-encoded implementation. The equivalence property tests
   (test/test_intern.ml) replay randomized operation sequences against
   both and require identical observable behavior. *)

open Fusion_data

module S = Set.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

type t = S.t

let empty = S.empty
let is_empty = S.is_empty
let singleton = S.singleton
let mem = S.mem
let add = S.add
let cardinal = S.cardinal
let union = S.union
let inter = S.inter
let diff = S.diff
let sym_diff a b = S.union (S.diff a b) (S.diff b a)
let subset = S.subset
let equal = S.equal
let compare = S.compare
let union_list sets = List.fold_left S.union S.empty sets

let inter_list = function
  | [] -> S.empty
  | first :: rest -> List.fold_left S.inter first rest

let of_list = S.of_list
let to_list = S.elements
let iter = S.iter
let fold = S.fold
let filter = S.filter

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Value.pp)
    (to_list s)
