(** The pre-columnar boxed-row implementation of relations, kept as the
    reference for equivalence testing of the struct-of-arrays
    {!Relation} (the {!Item_set_ref} pattern). Same observable
    semantics: row-array storage, id-keyed probe index, swap-with-last
    deletes. Not used on any execution path. *)

open Fusion_data

type t

val create : name:string -> ?intern:Intern.t -> Schema.t -> t
val of_tuples : name:string -> ?intern:Intern.t -> Schema.t -> Tuple.t list -> t
val name : t -> string
val schema : t -> Schema.t
val intern : t -> Intern.t
val cardinality : t -> int
val insert : t -> Tuple.t -> unit
val remove : t -> Tuple.t -> bool
val version : t -> int
val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
val tuples : t -> Tuple.t list
val items : t -> Item_set.t
val distinct_item_count : t -> int
val tuples_of_item : t -> Value.t -> Tuple.t list
val select_items : t -> (Tuple.t -> bool) -> Item_set.t
val semijoin_items : t -> (Tuple.t -> bool) -> Item_set.t -> Item_set.t
val select_tuples : t -> (Tuple.t -> bool) -> Tuple.t list
val count_matching : t -> (Tuple.t -> bool) -> int
