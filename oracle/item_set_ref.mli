(** The pre-dictionary [Set.Make (Value)] implementation of item sets,
    kept as the reference for equivalence testing of the flat
    {!Item_set}. Same interface, balanced-tree representation. Not used
    on any execution path. *)

open Fusion_data

type t

val empty : t
val is_empty : t -> bool
val singleton : Value.t -> t
val mem : Value.t -> t -> bool
val add : Value.t -> t -> t
val cardinal : t -> int
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val sym_diff : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val union_list : t list -> t
val inter_list : t list -> t
val of_list : Value.t list -> t

val to_list : t -> Value.t list
(** Elements in increasing {!Value.compare} order. *)

val iter : (Value.t -> unit) -> t -> unit
val fold : (Value.t -> 'a -> 'a) -> t -> 'a -> 'a
val filter : (Value.t -> bool) -> t -> t
val pp : Format.formatter -> t -> unit
