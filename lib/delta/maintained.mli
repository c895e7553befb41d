(** Incrementally maintained fusion answers.

    A maintained plan keeps the current value of every plan node, plus
    the full selection set of each semijoin node, as a mutable bitmap
    over item ids with its count kept. When items [touched] change at
    source [j], each selection-like node over [j] re-probes {e only the
    touched items} against the relation's merge index, and every other
    node re-decides membership only for the items its operands flipped
    (the candidate-set rules of {!Change}), flipping its own bits in
    place. No whole set is copied, scanned or allocated on the way: the
    work is O(|touched| · plan size), independent of base
    cardinalities. An {!Item_set.t} is built only by {!answer} and
    {!value}. The result after every delta is equal to a full
    re-execution of the plan on the mutated catalog (pinned by the
    randomized mutation-batch property suite).

    {b Memory.} A node's bitmap spans only the ids it holds: it grows by
    doubling toward a new id and trims emptied edge words on removal,
    compacting once its array exceeds [4·w + 16] words, where [w] is the
    number of words between its lowest and highest held id. Hence
    [state_words t ≤ 4·s + 32·k] at all times, where [s] is the
    [state_words] of a fresh {!create} over the same data and [k] the
    number of plan ops: however many far, freshly interned items are
    inserted and deleted again, the state stays within that bound.

    Maintenance is mediator-local bookkeeping: it reads the wrapped
    relations directly and charges no source meters — the model is a
    source that announces its own deltas, so the mediator never
    re-ships base data it already holds. *)

open Fusion_data
open Fusion_query
open Fusion_source
open Fusion_plan

type t

val create : query:Query.t -> sources:Source.t list -> Plan.t -> (t, string) result
(** Validates the plan against the query and sources, then runs one
    full local evaluation to seed the per-node state. *)

val answer : t -> Item_set.t
(** The current answer (the plan output variable's value). Builds the
    set from the node's bitmap: O(answer span). *)

val cardinal : t -> int
(** [Item_set.cardinal (answer t)], read from the maintained count in
    O(1). *)

val value : t -> string -> Item_set.t
(** Current value of any plan variable (empty if never bound). *)

val state_words : t -> int
(** Words held by the node bitmaps — the state the memory bound above
    is stated over. *)

val versions : t -> int array
(** The source-version vector the current answer reflects (a copy). *)

val plan : t -> Plan.t

val source_changed : t -> source:int -> touched:Item_set.t -> Change.t
(** Propagates a change at source [source] (by index into the source
    list) whose touched-item set is [touched]; the relation must
    already hold the post-delta state. Returns the change of the
    answer. O(|touched| · plan size), independent of base
    cardinalities. *)

val mutate : t -> source:int -> Delta.t -> Delta.applied * Change.t
(** Applies the delta to the source's relation, then propagates:
    [Delta.apply] followed by {!source_changed}. *)
