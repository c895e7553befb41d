(** A sharded, replicated federation: the distributed mediator's data
    plane plus its single-mediator oracle.

    The cluster keeps two views of the same data in one dictionary
    scope. The {e oracle} view is a plain {!Fusion_mediator.Mediator.t}
    over the original sources — the coordinator plans on it, and the
    property tests compare against its answers. The {e distributed}
    view is a [shards × sources] grid of {!Replica} groups, each group
    serving the shard's {!Partition} slice of one source relation. *)

module Source = Fusion_source.Source

type t

val create :
  ?replicas:int ->
  ?profile_of:
    (shard:int -> source:string -> replica:int -> Fusion_net.Profile.t -> Fusion_net.Profile.t) ->
  ?staleness_of:(shard:int -> source:string -> replica:int -> float) ->
  shards:int ->
  Source.t list ->
  (t, string) result
(** Partition [sources] into [shards] slices and wrap every slice in a
    replica group of uniform size [replicas] (default 1). [profile_of]
    derives each replica's network profile from the source's own — the
    hook fault drills use to make, say, replica 0 of shard 1 a
    straggler. [staleness_of] bounds each replica's data age (default
    0). Fails like {!Fusion_mediator.Mediator.create} on an empty or
    schema-inconsistent source list. *)

val of_groups :
  ?profile_of:
    (shard:int -> source:string -> replica:int -> Fusion_net.Profile.t -> Fusion_net.Profile.t) ->
  ?staleness_of:(shard:int -> source:string -> replica:int -> float) ->
  shards:int ->
  (Source.t * int) list ->
  (t, string) result
(** Like {!create} with a per-source replica count — the shape
    {!Fusion_source.Catalog.load_groups} produces from [replicas = K]
    catalog entries. *)

val of_catalog :
  ?profile_of:
    (shard:int -> source:string -> replica:int -> Fusion_net.Profile.t -> Fusion_net.Profile.t) ->
  ?staleness_of:(shard:int -> source:string -> replica:int -> float) ->
  shards:int ->
  string ->
  (t, string) result
(** Load a catalog file and build the cluster from its sources and
    their [replicas] keys. *)

val mediator : t -> Fusion_mediator.Mediator.t
(** The oracle view: one mediator over the unsliced sources. *)

val schema : t -> Fusion_data.Schema.t
val shards : t -> int
val n_sources : t -> int

val stride : t -> int
(** The largest replica-group size — the lane-index multiplier. *)

val group : t -> shard:int -> source:int -> Replica.t
val replica : t -> shard:int -> source:int -> replica:int -> Source.t

val set_fault : t -> shard:int -> source:int -> replica:int -> Source.fault option -> unit
val kill : t -> shard:int -> source:int -> replica:int -> unit
val kill_shard : t -> shard:int -> unit
(** Fail every replica of every source on one shard. *)

val reset_meters : t -> unit

val lanes : t -> int
val lane : t -> shard:int -> source:int -> replica:int -> int
(** The {!Fusion_rt.Runtime} server (lane) index of one replica:
    replicas are genuinely parallel servers, while requests to the same
    replica queue FIFO behind each other on its lane. *)

val lane_name : t -> int -> string
(** ["s<shard>/<source>#<replica>"] — the timeline label of a lane. *)
