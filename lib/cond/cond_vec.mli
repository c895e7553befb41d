(** Compiled, vectorized condition scans over columnar relations.

    [compile rel c] turns a {!Cond.t} into a scan program against
    [rel]'s dictionary-encoded columns: attribute offsets are resolved
    once, [=] atoms against non-null literals become single integer
    compares against the literal's dictionary id, [IS NULL] reads the
    null bitmap, and every other atom is evaluated at most once per
    {e dictionary class} (memoized by id) rather than once per row. The
    tight row loop then runs over flat [int] arrays and feeds
    {!Item_set} construction directly.

    Semantics are exactly {!Cond.eval}'s (property-tested): comparisons
    against Null are false, [Prefix] needs a string cell, [Is_null]
    matches only Null.

    A compiled scan stays valid across inserts and removes on its
    relation (column arrays are re-fetched per scan, dictionary ids are
    never reassigned), so delta-maintained answers can keep reusing it.
    The scratch buffers make a value non-reentrant: share one [t] per
    engine/source lane, not across concurrent scanners.

    @raise Not_found if the condition mentions an unknown attribute;
    validate first. *)

open Fusion_data

type t

val compile : Relation.t -> Cond.t -> t
val relation : t -> Relation.t
val cond : t -> Cond.t

val select_items : t -> Item_set.t
(** Distinct items with at least one matching row — [sq(c, R)] as a
    columnar scan. Allocates only the answer (plus scratch growth on
    first use). *)

val semijoin_items : t -> Item_set.t -> Item_set.t
(** Subset of the probe set whose items have a matching row —
    [sjq(c, R, X)] probing the merge index per id, O(|X| ·
    tuples-per-item). Cross-scope probe sets fall back to value-level
    lookups. *)

val count_rows : t -> int
(** Number of matching rows (not items). *)

val count_items : t -> int
(** Number of distinct matching items — [|sq(c, R)|] without building
    the answer: dedups through the scratch bitmap and clears only the
    word range it touched, so a warm scan allocates O(1) words. *)
