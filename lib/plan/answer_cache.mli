(** Cross-query answer sharing for selection queries.

    One table, keyed by [(source, condition)], that a serving layer
    shares between every concurrently executing query: it generalizes
    the in-flight request coalescer of {!Exec_async} (same selection
    still in flight on the simulated clock → join the pending request)
    and the session {!Exec.Query_cache} (completed answer → replay it)
    into a single mechanism with time-to-live semantics.

    A lookup at simulated instant [ready] sees one of three things:

    - {!Inflight}: the request is still being served ([finish > ready]);
      the asker joins it, pays nothing, and gets the answer at [finish].
    - {!Cached}: the answer materialized no more than [ttl] ago; the
      asker reuses it immediately, accepting [ready - finish] of
      staleness (accounted in {!stats}).
    - {!Miss}: nothing usable — issue a real request and {!note} its
      answer when it is dispatched.

    With [ttl = None] (the default) completed answers are never
    replayed, which makes the table behave exactly like the historical
    per-run in-flight coalescer — the configuration under which a lone
    query served by {!Server} matches {!Exec_async.run} byte for
    byte.

    {b Versioned mode.} With [versioned = true], staleness is accounted
    against source {e versions} instead of the clock: {!note} records
    the relation version the answer was computed at, {!apply_delta}
    patches or invalidates entries when a source delta lands, and a
    lookup whose [version] matches the entry replays the answer with an
    {e exact} staleness of zero. A version mismatch (a delta that
    bypassed {!apply_delta}) invalidates the entry rather than serving
    it. TTL still governs lookups that carry no version. *)

open Fusion_data

type t

type stats = {
  lookups : int;
  inflight_hits : int;
  cached_hits : int;
  expirations : int;
      (** entries dropped because no lookup could replay them any more:
          found older than the TTL, or swept by {!apply_delta} *)
  invalidated : int;
      (** entries dropped by a delta ({!apply_delta}) or by a versioned
          lookup that caught a stale entry *)
  patched : int;  (** entries updated in place by {!apply_delta} *)
  staleness_sum : float;
  staleness_max : float;
}

type outcome =
  | Inflight of float * Item_set.t  (** finish time of the shared request *)
  | Cached of float * Item_set.t  (** staleness of the reused answer *)
  | Miss

val create : ?ttl:float -> ?versioned:bool -> unit -> t
(** [ttl] is how long (in simulated time units) a completed answer may
    be reused; omit it for in-flight sharing only. [versioned] (default
    [false]) turns on version-vector staleness accounting.
    @raise Invalid_argument on a negative ttl. *)

val ttl : t -> float option
val versioned : t -> bool

val find :
  t -> source:string -> cond:string -> ?version:int -> ready:float -> unit -> outcome
(** Consult the table at instant [ready]; [version] is the source
    relation's current version, used only in versioned mode. Expired
    and version-stale entries are evicted as a side effect. *)

val note :
  t -> source:string -> cond:string -> finish:float -> ?version:int -> Item_set.t -> unit
(** Record a dispatched selection: its answer becomes joinable until
    [finish] and (with a TTL) reusable until [finish + ttl]. [version]
    is the source version the answer reflects (versioned mode). *)

val apply_delta :
  t ->
  source:string ->
  now:float ->
  version:int ->
  patch:(cond:string -> Item_set.t -> Item_set.t option) ->
  unit
(** A delta landed on [source], whose relation is now at [version].
    First, every entry (of any source) that no {!find} from [now] on
    could return is dropped and counted as an expiration: a completed
    entry in a cache with neither versioning nor a TTL, or one past its
    TTL. Every remaining completed entry for [source] is handed to
    [patch] (with its condition text): [Some answer'] replaces the
    answer in place and stamps the new version (the patch is expected
    to cost O(delta)); [None] invalidates. Entries still in flight at
    [now] are always invalidated — their pending answers reflect the
    pre-delta base. *)

val publish_metrics : t -> unit
(** Flush counter deltas since the last call to the installed
    {!Fusion_obs.Metrics} registry as [fusion_cache_*] counters
    (lookups, inflight/cached hits, misses, expired, invalidated,
    patched). No-op without a registry. *)

val stats : t -> stats
val clear : t -> unit
val pp_stats : Format.formatter -> stats -> unit
