(** The condition language of fusion queries.

    Each fusion-query condition [c_i] constrains the attributes of one
    tuple variable (Section 2.2). Wrappers evaluate conditions against
    their relation; the mediator also evaluates them locally against
    loaded relations in postoptimized plans (Section 4). *)

open Fusion_data

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True  (** satisfied by every tuple *)
  | Cmp of string * cmp * Value.t  (** [attr <op> literal] *)
  | Between of string * Value.t * Value.t  (** inclusive range *)
  | In_list of string * Value.t list
  | Prefix of string * string  (** SQL [LIKE 'p%'] on a string attribute *)
  | Is_null of string  (** SQL [attr IS NULL] *)
  | And of t * t
  | Or of t * t
  | Not of t

val eval : Schema.t -> t -> Tuple.t -> bool
(** Three-valued-logic-free evaluation: comparisons against [Null] are
    false (so [Not] of such a comparison is true, matching the simple
    set semantics fusion plans rely on).
    @raise Not_found if the condition mentions an unknown attribute;
    use {!validate} first. *)

val compile : Schema.t -> t -> Tuple.t -> bool
(** [compile schema c] is a predicate with exactly {!eval}'s semantics,
    but with attribute [->] offset resolution hoisted out of the
    per-tuple path: apply it to a schema and condition once, then run
    the returned closure per tuple.
    @raise Not_found if the condition mentions an unknown attribute;
    use {!validate} first. *)

val attrs : t -> string list
(** Attribute names mentioned, without duplicates, in first-mention
    order. *)

val validate : Schema.t -> t -> (unit, string) result
(** Checks that every mentioned attribute exists and that literals have
    the attribute's type ([Prefix] requires a string attribute). *)

val equal : t -> t -> bool

val simplify : t -> t
(** Constant folding and double-negation elimination; preserves {!eval}
    semantics. *)

val pp : Format.formatter -> t -> unit
(** SQL-ish rendering, re-parseable by {!parse}. *)

val to_string : t -> string

val parse : string -> (t, string) result
(** Parses the {!pp} syntax: comparisons [a = 1], [a <> 'x'],
    [a BETWEEN 1 AND 5], [a IN (1, 2)], [a LIKE 'p%'], [a IS NULL],
    [a IS NOT NULL], combined with [AND], [OR], [NOT] and parentheses.
    Keywords are case-insensitive. *)

val cmp_to_string : cmp -> string

val cmp_holds : cmp -> int -> bool
(** Whether a comparator accepts a [Value.compare] result. *)

val string_has_prefix : prefix:string -> string -> bool
(** The [Prefix] (SQL [LIKE 'p%']) matcher. *)

val parse_predicate_in : Parser_state.t -> attr:string -> t
(** Parses the operator-and-operand part of a predicate ([= 3],
    [BETWEEN 1 AND 5], ...) whose attribute has already been consumed.
    @raise Parser_state.Parse_error on malformed input. *)

val is_reserved : string -> bool
(** Whether an identifier is a condition-language keyword. *)
