(* A sharded, replicated federation.

   The cluster keeps TWO views of the same data. The oracle view is a
   single Mediator.t over the original sources: the coordinator plans
   on it, and tests compare against its answers. The distributed view
   is a shard × source grid of replica groups, each group serving the
   shard's hash slice of one source relation. Both views share one
   dictionary scope, so interned ids mean the same thing everywhere. *)

module Source = Fusion_source.Source
module Mediator = Fusion_mediator.Mediator

type t = {
  med : Mediator.t;
  grid : Replica.t array array;  (* grid.(shard).(source) *)
  shards : int;
  stride : int;  (* max replica-group size: the lane-index multiplier *)
}

let create_groups ?profile_of ?staleness_of ~shards groups =
  if shards < 1 then Error "cluster: need at least one shard"
  else
    match Mediator.create (List.map fst groups) with
    | Error msg -> Error msg
    | Ok med ->
      let counts = List.map snd groups in
      if List.exists (fun k -> k < 1) counts then
        Error "cluster: every source needs at least one replica"
      else
        let sliced = Partition.split ~shards (List.map fst groups) in
        let grid =
          Array.init shards (fun shard ->
              Array.of_list
                (List.map2
                   (fun source replicas ->
                     let profile_of =
                       Option.map
                         (fun f ~replica profile ->
                           f ~shard ~source:(Source.name source) ~replica profile)
                         profile_of
                     in
                     let staleness_of =
                       Option.map
                         (fun f ~replica -> f ~shard ~source:(Source.name source) ~replica)
                         staleness_of
                     in
                     Replica.create ~replicas ?profile_of ?staleness_of source)
                   sliced.(shard) counts))
        in
        let stride = List.fold_left max 1 counts in
        Ok { med; grid; shards; stride }

let create ?(replicas = 1) ?profile_of ?staleness_of ~shards sources =
  create_groups ?profile_of ?staleness_of ~shards (List.map (fun s -> (s, replicas)) sources)

let of_groups = create_groups

let of_catalog ?profile_of ?staleness_of ~shards path =
  match Fusion_source.Catalog.load_groups path with
  | Error msg -> Error msg
  | Ok groups -> create_groups ?profile_of ?staleness_of ~shards groups

let mediator t = t.med
let schema t = Mediator.schema t.med
let shards t = t.shards
let n_sources t = Array.length t.grid.(0)
let stride t = t.stride
let group t ~shard ~source = t.grid.(shard).(source)
let replica t ~shard ~source ~replica = Replica.replica t.grid.(shard).(source) replica

let set_fault t ~shard ~source ~replica:r fault =
  Replica.set_fault t.grid.(shard).(source) r fault

let kill t ~shard ~source ~replica:r = Replica.kill t.grid.(shard).(source) r

let kill_shard t ~shard =
  Array.iter (fun g -> for r = 0 to Replica.size g - 1 do Replica.kill g r done) t.grid.(shard)

let reset_meters t = Array.iter (Array.iter Replica.reset_meters) t.grid

(* One runtime lane per (shard, source, replica-slot): replicas of a
   source are genuinely parallel servers, while requests to the same
   replica queue FIFO behind each other on its lane. *)
let lanes t = t.shards * n_sources t * t.stride
let lane t ~shard ~source ~replica = ((shard * n_sources t) + source) * t.stride + replica

let lane_name t lane =
  let stride = t.stride in
  let ns = n_sources t in
  let replica = lane mod stride in
  let source = lane / stride mod ns in
  let shard = lane / stride / ns in
  Printf.sprintf "s%d/%s#%d" shard (Replica.name t.grid.(shard).(source)) replica
