(** Fusion queries (Section 2.2).

    A fusion query over the union view [U = R_1 ∪ ... ∪ R_n] is a list
    of conditions [c_1 ... c_m]; its answer is the set of items that
    satisfy {e every} condition at {e some} source (possibly a different
    source per condition). *)

open Fusion_cond

type t

val create : Cond.t list -> (t, string) result
(** Fails on an empty condition list. *)

val create_exn : Cond.t list -> t

val conditions : t -> Cond.t array
(** [c_1 ... c_m] in query order. The array is fresh; mutating it does
    not affect the query. *)

val condition : t -> int -> Cond.t
(** [condition q i] is [c_{i+1}] (0-based). *)

val m : t -> int
(** Number of conditions. *)

val validate : Fusion_data.Schema.t -> t -> (unit, string) result
(** Checks every condition against the shared source schema. *)

val equal : t -> t -> bool

val normalize : t -> t
(** Query-level simplification justified by fusion semantics:
    - each condition is simplified ({!Fusion_cond.Cond.simplify});
    - duplicate conditions collapse to one — a second tuple variable
      with the same condition is satisfied by the same evidence, so it
      never constrains the answer;
    - [TRUE] conditions are dropped when other conditions remain — an
      item satisfying any real condition already appears in the union.
    The result has between 1 and [m] conditions and the same answer on
    every source population. *)

val pp : Format.formatter -> t -> unit

val to_sql : union:string -> merge:string -> t -> string
(** Renders the query in the paper's SQL form, re-parseable by
    {!Sql.parse_fusion} into an equal query. [TRUE] conditions are left
    out (the parser gives a variable with no conjunct [TRUE]). *)
