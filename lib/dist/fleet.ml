(* Sharded serving: one Serve.Server per shard, one submit path.

   Each shard gets its own serving loop over the shard's replica-0
   sources, created with the shard label so all fusion_serve_* metrics
   stay distinguishable in one process-wide registry. A submission is
   planned once (on the cluster's oracle mediator, exactly like a
   single-mediator submit) and the job fans out to every shard; the
   joined outcome unions the per-shard answers — exact by the
   partitioning argument — and takes the slowest shard's response. *)

open Fusion_data
module Source = Fusion_source.Source
module Mediator = Fusion_mediator.Mediator
module Optimized = Fusion_core.Optimized
module Serve = Fusion_serve.Server

type t = {
  cluster : Cluster.t;
  servers : Serve.t array;  (* one per shard *)
  finished : (int, Serve.completion) Hashtbl.t array;
      (* per shard, by shard submission id: filled by a completion hook *)
  mutable submissions : (int * int array) list;  (* fleet id -> per-shard ids, newest first *)
  mutable seq : int;
}

let create ?policy ?max_inflight ?cache_ttl ?exec_policy cluster =
  let servers =
    Array.init (Cluster.shards cluster) (fun shard ->
        let sources =
          Array.init (Cluster.n_sources cluster) (fun j ->
              Cluster.replica cluster ~shard ~source:j ~replica:0)
        in
        Serve.create ?policy ?max_inflight ?cache_ttl ?exec_policy
          ~shard:("s" ^ string_of_int shard) sources)
  in
  let finished =
    Array.map
      (fun server ->
        let tbl = Hashtbl.create 16 in
        Serve.on_complete server (fun c -> Hashtbl.replace tbl c.Serve.c_id c);
        tbl)
      servers
  in
  { cluster; servers; finished; submissions = []; seq = 0 }

let cluster t = t.cluster
let server t shard = t.servers.(shard)
let shards t = Array.length t.servers

let submit t ~at ?(tenant = "default") ?(priority = 0) ?deadline query =
  match Mediator.plan_for (Cluster.mediator t.cluster) query with
  | Error msg -> Error msg
  | Ok prepared ->
    let optimized = prepared.Mediator.prep_optimized in
    let job =
      {
        Serve.plan = optimized.Optimized.plan;
        conds = prepared.Mediator.prep_conds;
        tenant;
        priority;
        est_cost = optimized.Optimized.est_cost;
        deadline;
        label = "";
      }
    in
    let per_shard = Array.map (fun server -> Serve.submit server ~at job) t.servers in
    let id = t.seq in
    t.seq <- t.seq + 1;
    t.submissions <- (id, per_shard) :: t.submissions;
    Ok id

let step t = Array.exists Fun.id (Array.map Serve.step t.servers)
let drain t = Array.iter Serve.drain t.servers

type outcome = {
  f_id : int;
  f_answer : Item_set.t option;  (** [None] when any shard failed or shed *)
  f_response : float;  (** the slowest shard's response time *)
  f_cost : float;  (** summed over shards *)
  f_partial : bool;
  f_failed : string option;  (** first failure among the shards, if any *)
}

let outcomes t =
  List.rev_map
    (fun (id, per_shard) ->
      let completions =
        Array.to_list
          (Array.mapi (fun shard sid -> Hashtbl.find_opt t.finished.(shard) sid) per_shard)
      in
      match
        List.for_all Option.is_some completions, List.filter_map Fun.id completions
      with
      | false, _ ->
        (* At least one shard shed or has not completed: no global answer. *)
        {
          f_id = id;
          f_answer = None;
          f_response = 0.0;
          f_cost = 0.0;
          f_partial = false;
          f_failed = Some "incomplete: a shard shed or has not finished";
        }
      | true, cs ->
        let failed = List.find_map (fun c -> c.Serve.c_failed) cs in
        let answers = List.filter_map (fun c -> c.Serve.c_answer) cs in
        {
          f_id = id;
          f_answer =
            (if failed = None && List.length answers = List.length cs then
               Some (Fusion_plan.Fragment.merge_answers answers)
             else None);
          f_response = List.fold_left (fun a c -> Float.max a c.Serve.c_response) 0.0 cs;
          f_cost = List.fold_left (fun a c -> a +. c.Serve.c_cost) 0.0 cs;
          f_partial = List.exists (fun c -> c.Serve.c_partial) cs;
          f_failed = failed;
        })
    t.submissions
