(** Sets of items (merge-attribute values).

    These are the sets the mediator manipulates in simple plans: results
    of selection and semijoin queries, combined with union, intersection
    and (in postoptimized plans) difference.

    Internally a set is dictionary-encoded: elements are interned
    through an {!Intern} table and stored flat — as a sorted int array,
    or as a bitset when the id range is dense — so the set algebra runs
    as merge/bitwise kernels over unboxed ints. The observable behavior
    is identical to the previous [Set.Make (Value)] implementation
    (kept as a test oracle for equivalence testing): iteration order
    is increasing {!Value.compare} order and membership follows
    {!Value.equal} equality classes.

    Sets constructed through the value-level API ({!of_list},
    {!singleton}, {!add} on {!empty}) live in the {!Intern.global}
    scope. Operations between sets from different scopes are supported
    (the right operand is re-interned into the left's table) but slower;
    keep one scope per catalog for the fast path. *)

type t

val empty : t
val is_empty : t -> bool
val singleton : Value.t -> t
val mem : Value.t -> t -> bool
val add : Value.t -> t -> t
val cardinal : t -> int
val union : t -> t -> t
(** When one operand has at most 1/32 of the other's elements (a change
    applied to an answer), the work and the allocation are those of
    splicing the small side into one copy of the large side — a sorted
    array gets the new ids blitted in at binary-searched slots, a
    bitset gets its words copied and bits set. The result shares the
    large operand's storage when the small one adds nothing. Results
    are in the same canonical form either way. *)

val inter : t -> t -> t

val diff : t -> t -> t
(** Delta-sized like {!union} when the right operand is at most 1/32
    of the left, sharing [a]'s storage when no element of [b] is in
    it. *)

val sym_diff : t -> t -> t
(** Symmetric difference [(a − b) ∪ (b − a)] as one flat kernel: a
    single merge pass on sorted-id arrays, word-wise [lxor] on bitsets
    (with the same sparse-span fallback as {!union}). The delta plane
    uses it to turn two answer snapshots into a changed-items set. *)

val subset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val union_list : t list -> t
(** Folds smallest-first so intermediate results stay as small as the
    operands allow. *)

val inter_list : t list -> t
(** [inter_list []] is {!empty}. Folds smallest-first and returns
    {!empty} as soon as an intermediate result is empty — in particular
    an empty operand short-circuits the whole fold without running any
    set kernel. *)

val of_list : Value.t list -> t
val to_list : t -> Value.t list
(** Elements in increasing {!Value.compare} order. *)

val iter : (Value.t -> unit) -> t -> unit
val fold : (Value.t -> 'a -> 'a) -> t -> 'a -> 'a
val filter : (Value.t -> bool) -> t -> t

val pp : Format.formatter -> t -> unit
(** Renders as [{v1, v2, ...}]. *)

(** {1 Dictionary-level interface}

    Used by {!Relation}'s probe index, the executor caches, and the
    kernel benchmarks. Ids are meaningful only relative to the set's
    intern table. *)

val table : t -> Intern.t option
(** The intern scope the set's ids belong to; [None] for {!empty}. *)

val of_list_in : Intern.t -> Value.t list -> t
(** [of_list] against an explicit intern scope. *)

val of_ids : Intern.t -> int array -> t
(** Build from ids previously allocated by the given table. Takes
    ownership of the array; sorts and deduplicates as needed (already
    strictly-increasing input is detected and used as-is). *)

val of_words : Intern.t -> base:int -> int array -> t
(** The set of ids whose bits are set in [words]: bit [j] of
    [words.(i)] is id [base + i * Sys.int_size + j], and [base] must be
    a multiple of [Sys.int_size]. Takes ownership of the array, which
    becomes the set's storage when the ids are dense. Counting and the
    form choice run a word at a time. *)

val words : t -> int * int array
(** The inverse of {!of_words}: [(base, words)] with the set's bits,
    spanning exactly its lowest to highest id, in a fresh array. *)

val mem_id : Intern.id -> t -> bool
(** Membership of an id of the set's own table: a binary search on the
    array form, one bit test on the bitset form. *)

val fold_ids : (Intern.id -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over ids in increasing {e id} order (not value order). *)

val fold_items : (Intern.id -> Value.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Like {!fold} — increasing {!Value.compare} order — but also hands
    each element's id to the callback. *)

val hash : t -> int
(** Order-independent hash over the ids; equal sets in the same scope
    hash equal. Not stable across scopes or processes. *)

(** Introspection for tests and benchmarks. *)
module Debug : sig
  val kernel_calls : unit -> int
  (** Process-wide count of binary set kernels executed (union, inter,
      diff, subset on two non-empty operands). Monotonic; diff two
      readings around the region of interest. *)

  val repr : t -> string
  (** ["empty"], ["ids"] or ["bits"] — the current representation. *)
end
