(** Plan execution: the mediator's interpreter.

    Runs a plan against live sources, charging each source query its
    actual cost (a function of the real transfer sizes). Local set
    operations and local selections on loaded relations are free, per
    the cost model (Section 2.4). *)

open Fusion_data
open Fusion_cond
open Fusion_source

type step = {
  op : Op.t;
  cost : float;  (** actual cost of the step (0 for local operations) *)
  result_size : int;  (** cardinality of the bound item set / relation *)
}

type result = {
  answer : Item_set.t;
  steps : step list;  (** in execution order *)
  total_cost : float;  (** sum of the step costs, failed attempts included *)
  failures : int;  (** timed-out requests encountered (before retries) *)
  partial : bool;
      (** true when a step was abandoned after exhausting its retries in
          [`Partial] mode — the answer may miss items whose evidence
          lived at the unreachable source *)
}

exception Runtime_error of string
(** Undefined variable, kind mismatch, or out-of-range index. Running
    {!Plan.validate} first rules these out. *)

(** Session-level reuse of selection answers across plan executions.

    Mediators serve streams of fusion queries that share hot conditions
    (Section 5 points out the cost of repeatedly evaluating common
    subexpressions). The cache memoizes selection-query answers keyed by
    (source, condition); a later selection on the same key is answered
    locally for free, and a later {e semijoin} on the key is derived as
    [cached ∩ X], also for free. Semijoin answers are additionally
    memoized by (source, condition, probe set), so an exact replay of a
    plan never re-contacts the sources. *)
module Query_cache : sig
  type t

  val create : unit -> t
  val clear : t -> unit

  type stats = {
    hits : int;  (** operations answered from the cache *)
    misses : int;  (** selection queries that had to run (and filled it) *)
    saved_cost : float;
        (** what the hits would have cost at the sources, computed from
            each source's profile and the actual answer sizes *)
  }

  val stats : t -> stats

  (** {2 Executor-internal operations}

      The lookup/fill protocol shared by the reference {!run} and the
      {!Exec_async} engine, the one executor that serves a session
      cache. Not meant for
      application code — going through these by hand desynchronizes
      the hit/miss statistics from any executor's accounting. Keys are
      the source name and the rendered condition text. *)

  val find : t -> sname:string -> ctext:string -> Item_set.t option
  val store : t -> sname:string -> ctext:string -> Item_set.t -> unit
  val find_sjq : t -> sname:string -> ctext:string -> Item_set.t -> Item_set.t option
  val store_sjq : t -> sname:string -> ctext:string -> Item_set.t -> Item_set.t -> unit

  val hit :
    t option -> Fusion_obs.Trace.ctx -> Source.t -> ?probe:Item_set.t -> Item_set.t -> unit
  (** Books a step answered without contacting the source: the cost it
      saved (a semijoin, given its [probe], as the source would have
      charged it — natively or one selection per binding), then the hit
      on the step's span and in the metrics. No-op without a cache. *)

  val miss : t option -> Fusion_obs.Trace.ctx -> unit
  (** Marks a step that had to query its source. *)
end

type policy = {
  retries : int;  (** extra attempts after the first timed-out one *)
  on_exhausted : [ `Fail | `Partial ];
      (** what to do when the retries run out: re-raise, or bind an
          empty result and mark the answer partial *)
}
(** The fault policy for sources that raise {!Source.Timeout}. Shared
    by this sequential executor and the concurrent {!Exec_async} so the
    two cannot drift apart. *)

val default_policy : policy
(** No retries, [`Fail]. *)

val run :
  ?cache:Query_cache.t -> ?policy:policy ->
  sources:Source.t array -> conds:Cond.t array -> Plan.t -> result
(** Executes the plan. With [cache], selection answers are reused as
    described above; cached steps appear in [steps] with cost 0.

    Failure policy ([default_policy] if omitted): each source query is
    retried up to [policy.retries] times; when retries are exhausted,
    [`Fail] re-raises while [`Partial] binds an empty result and marks
    the answer {!result.partial}. Every attempt's cost — including
    timed-out ones — is charged to the step. *)
