(** In-memory relations, stored struct-of-arrays.

    A relation is the unit of data exported by a source wrapper
    (Section 2.1). Storage is columnar: each attribute is a flat [int]
    array of dictionary ids plus a null bitmap. The merge column is
    encoded through the relation's catalog scope ({!Intern.global} by
    default) so its ids line up with {!Item_set} and the probe index;
    every other column has a private per-column dictionary, keeping the
    catalog scope dense. The probe index maps item {e ids} to tuple
    positions, so semijoin probes are int-keyed hash hits proportional
    to the probe set rather than the relation.

    Rows ({!Tuple.t}) are materialized on demand from the dictionaries;
    because one column holds values of one type, materialized rows
    round-trip the exact values inserted (merge columns inherit the
    catalog scope's representative-spelling caveat, the same one
    {!Item_set} values already have). *)

type t

val create : name:string -> ?intern:Intern.t -> Schema.t -> t

val of_tuples : name:string -> ?intern:Intern.t -> Schema.t -> Tuple.t list -> t

val of_rows :
  name:string -> ?intern:Intern.t -> Schema.t -> Value.t list list -> (t, string) result
(** Builds the relation from raw rows, type-checking each against the
    schema. *)

val name : t -> string
val schema : t -> Schema.t

val intern : t -> Intern.t
(** The dictionary scope the relation's items are encoded in. *)

val cardinality : t -> int

val insert : t -> Tuple.t -> unit

val remove : t -> Tuple.t -> bool
(** Removes one tuple equal to the argument (by {!Tuple.equal}), if any;
    returns whether a tuple was removed. O(1) in the relation size plus
    the affected index entries: the last row is swapped into the freed
    slot, so after a remove {!tuples} and {!tuples_of_item} no longer
    enumerate in insertion order. Bumps {!version} when it removes. *)

val version : t -> int
(** Bumped on every {!insert} and successful {!remove}; lets derived
    artifacts (statistics, caches, maintained answers) detect
    staleness. *)

val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a

val row : t -> int -> Tuple.t
(** Materializes the tuple at a position in [0, cardinality). Positions
    are unstable across {!remove} (swap-with-last). *)

val tuples : t -> Tuple.t list

val items : t -> Item_set.t
(** Distinct merge-attribute values appearing in the relation. *)

val distinct_item_count : t -> int

val tuples_of_item : t -> Value.t -> Tuple.t list
(** All tuples whose merge attribute equals the given item, in
    insertion order; O(1) lookup plus output size. *)

val select_items : t -> (Tuple.t -> bool) -> Item_set.t
(** [select_items r p] is the set of items having at least one tuple
    satisfying [p] — the semantics of a selection query [sq(c, R)].
    Row-materializing; {!Cond_vec} in [lib/cond] is the columnar fast
    path. *)

val semijoin_items : t -> (Tuple.t -> bool) -> Item_set.t -> Item_set.t
(** [semijoin_items r p xs] is the subset of [xs] whose items have a
    tuple in [r] satisfying [p] — the semantics of [sjq(c, R, X)].
    Runs in O(|xs| · tuples-per-item), using the merge index. *)

val select_tuples : t -> (Tuple.t -> bool) -> Tuple.t list

val count_matching : t -> (Tuple.t -> bool) -> int
(** Number of distinct items with a matching tuple. *)

(** {2 Columnar internals}

    Read-only views of the column plane for compiled scans
    ([Cond_vec]). The returned arrays are the live backing stores: only
    indices below {!cardinality} are meaningful, callers must not
    mutate them, and array {e identity} changes when the relation
    grows — re-fetch after any insert. *)

val merge_pos : t -> int
val arity : t -> int

val column_table : t -> int -> Intern.t
(** Dictionary of the column at an attribute position. For the merge
    position this is {!intern}; other columns use a private
    per-relation, per-column table. *)

val column_ids : t -> int -> int array
(** Dictionary ids of the column, row-indexed. *)

val column_null_words : t -> int -> int array
(** Null bitmap of the column, [Sys.int_size] rows per word, row [r] at
    word [r / Sys.int_size], bit [r mod Sys.int_size]. *)

val value_at : t -> int -> int -> Value.t
(** [value_at t attr row] — the representative value of the cell's
    dictionary class (no tuple materialization). *)

val positions_of_id : t -> Intern.id -> int list
(** Probe-index positions of an item id, newest first; [[]] when the id
    has no tuples. *)

val pp : Format.formatter -> t -> unit
