(** A wrapped source: relation + capabilities + network profile + meter.

    This is the execution-side view of a source. Every operation charges
    its actual cost (a function of the real answer sizes, not estimates)
    to the source's meter and also returns it, so plan executions can be
    accounted per step and per source. *)

open Fusion_data
open Fusion_cond

type t

exception Unsupported of string
(** Raised when a plan asks a source for an operation its wrapper cannot
    answer (e.g. a semijoin at a {!Capability.minimal} source). A correct
    optimizer never produces such plans, because the cost model prices
    them at infinity. *)

exception Timeout of string
(** An injected transient failure: the request was sent (and its
    overhead charged) but no answer came back. Autonomous Internet
    sources fail; the executor's retry policy decides what happens
    next. *)

type fault = { probability : float; prng : Fusion_stats.Prng.t }
(** Each network request independently times out with [probability]. *)

val create :
  ?capability:Capability.t -> ?profile:Fusion_net.Profile.t -> ?fault:fault ->
  Relation.t -> t
(** Defaults: {!Capability.full}, {!Fusion_net.Profile.default}, no
    faults. *)

val set_fault : t -> fault option -> unit
(** Replace the fault injector (e.g. to break a source mid-session in
    tests). *)

val name : t -> string
val relation : t -> Relation.t
val schema : t -> Schema.t
val capability : t -> Capability.t
val profile : t -> Fusion_net.Profile.t

val stats : t -> Fusion_stats.Source_stats.t
(** The source's exact statistics ({!Fusion_stats.Source_stats.exact}
    over its relation), created with the source and shared by every
    statement optimized over it: counts are memoized until the
    relation's version changes, so they always equal a fresh scan's.
    Safe to consult from several domains at once. *)

val select_query : t -> Cond.t -> Item_set.t * float
(** [sq(c, R)]: items of [R] with a tuple satisfying [c], and the actual
    cost charged. *)

val semijoin_query : t -> Cond.t -> Item_set.t -> Item_set.t * float
(** [sjq(c, R, X)]: the subset of [X] with a matching tuple. Uses the
    native wrapper operation when available, otherwise emulates it with
    one point selection per binding (each paying the request overhead).
    @raise Unsupported when the wrapper supports neither. *)

val load_query : t -> Relation.t * float
(** [lq(R)]: ships the whole relation (charged per tuple).
    @raise Unsupported when the wrapper cannot ship relations. *)

val fetch_records : t -> Item_set.t -> Tuple.t list * float
(** Phase-2 operation: full records of the given items (charged one
    request plus per-tuple transfer; the item set is shipped like a
    semijoin set). *)

val totals : t -> Fusion_net.Meter.totals
(** Traffic and cost accumulated so far. *)

val reset_meter : t -> unit

val pp : Format.formatter -> t -> unit
