(* The scatter/gather coordinator.

   One query, one plan (chosen on the cluster's oracle mediator),
   scattered as Fragment.t to every shard over the wire encoding, and
   executed against the shard's replica groups on one shared
   [Fusion_rt.Runtime]. On the simulator backend (the default) shards
   execute sequentially against the discrete-event clock; on a real
   runtime each fragment runs as its own fibre and replica requests
   really overlap across lanes. The gather step is
   Fragment.merge_answers — exact because the shards' slices are
   disjoint on merge ids.

   The per-request routine is where the distribution machinery lives:
   a routing policy picks the replica to try first, failover cycles
   through the rest of the group (failed attempts still occupy their
   lane and charge their overhead, exactly like the single mediator's
   retry accounting), and an optional hedge factor duplicates a
   request onto the best alternative replica when the routed one's
   predicted finish looks straggler-like. *)

open Fusion_data
open Fusion_cond
module Source = Fusion_source.Source
module Mediator = Fusion_mediator.Mediator
module Optimizer = Fusion_core.Optimizer
module Opt_env = Fusion_core.Opt_env
module Optimized = Fusion_core.Optimized
module Op = Fusion_plan.Op
module Plan = Fusion_plan.Plan
module Fragment = Fusion_plan.Fragment
module Sim = Fusion_net.Sim
module Meter = Fusion_net.Meter
module Runtime = Fusion_rt.Runtime
module Fiber = Fusion_rt.Fiber
module Trace = Fusion_obs.Trace
module Metrics = Fusion_obs.Metrics
module Analyze = Fusion_obs.Analyze

module Config = struct
  type plan_mode = [ `Global | `Local ]

  type t = {
    algo : Optimizer.algo;
    stats : Opt_env.stats_mode;
    retries : int;
    on_exhausted : [ `Fail | `Partial ];
    routing : Replica.routing;
    hedge : float option;
    plan_mode : plan_mode;
    runtime : Runtime.spec;
  }

  let default =
    {
      algo = Optimizer.Sja_plus;
      stats = Opt_env.Exact;
      retries = 0;
      on_exhausted = `Fail;
      routing = Replica.Primary;
      hedge = None;
      plan_mode = `Global;
      runtime = `Sim;
    }
end

type shard_report = {
  sr_shard : int;
  sr_answer : Item_set.t;
  sr_cost : float;
  sr_makespan : float;
  sr_busy : float;
  sr_requests : int;
  sr_failures : int;
  sr_failovers : int;
  sr_hedges : int;
  sr_hedge_wins : int;
  sr_partial : bool;
}

type report = {
  r_shard_count : int;
  r_replica_count : int;  (** the cluster's stride: largest replica group *)
  r_answer : Item_set.t;
  r_optimized : Optimized.t;  (** the oracle mediator's plan (the one scattered under [`Global]) *)
  r_fragments : Fragment.t list;
  r_shards : shard_report list;
  r_total_cost : float;
  r_makespan : float;
  r_failures : int;
  r_failovers : int;
  r_hedges : int;
  r_hedge_wins : int;
  r_partial : bool;
  r_staleness : float;
  r_per_source : (string * Meter.totals) list;
  r_timeline : Sim.timeline;
  r_critical_path : Analyze.path;
}

type binding = Items of Item_set.t | Loaded of Relation.t

exception Runtime_error of string

(* The requests every shard issued: task ids, their labels and
   conditions for the critical path, and the slots the runtime returned
   (a real-clock runtime keeps no record per request). *)
type book = {
  mutable next_id : int;
  labels : (int, string) Hashtbl.t;
  cond_of : (int, int option) Hashtbl.t;
  mutable events : Sim.scheduled list; (* newest first *)
}

(* Execute one fragment against its shard's replica groups. All
   runtime state (lanes, the request book) is shared across shards;
   lanes are disjoint per shard so their schedules never interact. *)
let exec_fragment ~cluster ~(config : Config.t) ~rt ~book ~ctx ~conds fragment =
  let shard = fragment.Fragment.shard in
  let plan = fragment.Fragment.plan in
  let env : (string, binding * float * int list) Hashtbl.t = Hashtbl.create 16 in
  let failures = ref 0 and failovers = ref 0 in
  let hedges = ref 0 and hedge_wins = ref 0 in
  let partial = ref false in
  let shard_makespan = ref 0.0 in
  let items var =
    match Hashtbl.find_opt env var with
    | Some (Items s, avail, prod) -> (s, avail, prod)
    | Some (Loaded _, _, _) ->
      raise (Runtime_error (var ^ " is a loaded relation, not an item set"))
    | None -> raise (Runtime_error ("undefined variable " ^ var))
  in
  let loaded var =
    match Hashtbl.find_opt env var with
    | Some (Loaded r, avail, prod) -> (r, avail, prod)
    | Some (Items _, _, _) ->
      raise (Runtime_error (var ^ " is an item set, not a loaded relation"))
    | None -> raise (Runtime_error ("undefined variable " ^ var))
  in
  let cond i =
    if i < 0 || i >= Array.length conds then
      raise (Runtime_error (Printf.sprintf "condition index %d out of range" i));
    conds.(i)
  in
  (* One attempt of a source op at one replica: the fault is drawn (and
     the overhead charged) when the request is issued; the lane holds
     the replica for the metered duration either way. *)
  let try_replica ~op ~source:j ~probe ~ready ~deps ~hedged r =
    let group = Cluster.group cluster ~shard ~source:j in
    let src = Replica.replica group r in
    let lane = Cluster.lane cluster ~shard ~source:j ~replica:r in
    (* The thunk touches only the replica source: on a real runtime it
       runs on the lane's pool worker, where same-lane requests
       serialize. A failed attempt still occupies the lane for its
       metered duration, exactly like the single mediator's retry
       accounting, so it books either way. *)
    let thunk () =
      let before = (Source.totals src).Meter.cost in
      let outcome =
        match (op : Op.t) with
        | Select { cond = c; _ } ->
          (try Ok (Items (fst (Source.select_query src (cond c)))) with
          | Source.Timeout msg -> Error msg)
        | Semijoin { cond = c; _ } ->
          (try Ok (Items (fst (Source.semijoin_query src (cond c) probe))) with
          | Source.Timeout msg -> Error msg)
        | Load _ ->
          (try Ok (Loaded (fst (Source.load_query src))) with
          | Source.Timeout msg -> Error msg)
        | _ -> assert false
      in
      let duration = (Source.totals src).Meter.cost -. before in
      (outcome, duration, true)
    in
    let id = book.next_id in
    book.next_id <- id + 1;
    Hashtbl.replace book.labels id
      (Printf.sprintf "%s %s" (Op.name op) (Cluster.lane_name cluster lane));
    Hashtbl.replace book.cond_of id
      (match (op : Op.t) with
      | Select { cond = c; _ } | Semijoin { cond = c; _ } -> Some c
      | _ -> None);
    let outcome, sched = Runtime.call rt ~id ~server:lane ~ready ~deps thunk in
    book.events <- sched :: book.events;
    if Trace.active ctx then
      Trace.span Trace.Request (Op.name op) (fun rctx ->
          Trace.attrs rctx
            [
              ("shard", Trace.Int shard);
              ("replica", Trace.Int r);
              ("lane", Trace.Str (Cluster.lane_name cluster lane));
              ("hedged", Trace.Bool hedged);
              ("ok", Trace.Bool (Result.is_ok outcome));
            ])
    |> ignore;
    shard_makespan := max !shard_makespan sched.Sim.finish;
    (outcome, sched, id)
  in
  (* Routed execution of one source op: try the routing order with a
     budget of [retries] extra attempts, optionally hedging the first
     attempt onto the best alternative replica. *)
  let route_op ~op ~source:j ~probe ~ready ~deps =
    let group = Cluster.group cluster ~shard ~source:j in
    let order = Replica.order group config.Config.routing in
    let width = List.length order in
    let budget = config.Config.retries + width in
    let bind_result outcome finish id =
      match outcome with
      | Items _ | Loaded _ -> (outcome, finish, [ id ])
    in
    let fail_exhausted ~ready ~last_id =
      match config.Config.on_exhausted with
      | `Fail -> raise (Source.Timeout (Op.dst op))
      | `Partial ->
        partial := true;
        let empty_binding =
          match (op : Op.t) with
          | Select _ | Semijoin _ -> Items Item_set.empty
          | Load _ ->
            let src = Replica.replica group 0 in
            Loaded (Relation.create ~name:(Source.name src) (Source.schema src))
          | _ -> assert false
        in
        (empty_binding, ready, Option.to_list last_id)
    in
    let rec failover attempt ~ready ~prev ~last_id =
      if attempt >= budget then fail_exhausted ~ready ~last_id
      else begin
        let r = List.nth order (attempt mod width) in
        if attempt > 0 && prev <> Some r then incr failovers;
        match try_replica ~op ~source:j ~probe ~ready ~deps ~hedged:false r with
        | Ok v, sched, id ->
          Replica.note_success group r;
          bind_result v sched.Sim.finish id
        | Error _, sched, id ->
          incr failures;
          Replica.note_timeout group r;
          failover (attempt + 1) ~ready:sched.Sim.finish ~prev:(Some r) ~last_id:(Some id)
      end
    in
    (* Hedge decision on the first attempt only: predicted finish from
       lane availability plus the replica's advertised speed. *)
    let hedge_alt primary =
      match config.Config.hedge with
      | None -> None
      | Some factor when width < 2 -> ignore factor; None
      | Some factor ->
        let predicted r =
          let lane = Cluster.lane cluster ~shard ~source:j ~replica:r in
          max ready (Runtime.free_at rt lane) +. Replica.speed_score group r
        in
        let alts = List.filter (fun r -> r <> primary) order in
        let best =
          List.fold_left
            (fun acc r ->
              match acc with
              | Some b when predicted b <= predicted r -> acc
              | _ -> Some r)
            None alts
        in
        (match best with
        | Some alt when predicted primary > factor *. predicted alt -> Some alt
        | _ -> None)
    in
    let primary = List.hd order in
    match hedge_alt primary with
    | None -> failover 0 ~ready ~prev:None ~last_id:None
    | Some alt -> (
      incr hedges;
      (* The routed replica draws its fault first, then the hedge. *)
      let op_p, sched_p, id_p = try_replica ~op ~source:j ~probe ~ready ~deps ~hedged:false primary in
      let op_a, sched_a, id_a = try_replica ~op ~source:j ~probe ~ready ~deps ~hedged:true alt in
      match op_p, op_a with
      | Ok vp, Ok va ->
        Replica.note_success group primary;
        Replica.note_success group alt;
        if sched_a.Sim.finish < sched_p.Sim.finish then begin
          incr hedge_wins;
          bind_result va sched_a.Sim.finish id_a
        end
        else bind_result vp sched_p.Sim.finish id_p
      | Ok vp, Error _ ->
        incr failures;
        Replica.note_success group primary;
        Replica.note_timeout group alt;
        bind_result vp sched_p.Sim.finish id_p
      | Error _, Ok va ->
        incr failures;
        incr hedge_wins;
        Replica.note_timeout group primary;
        Replica.note_success group alt;
        bind_result va sched_a.Sim.finish id_a
      | Error _, Error _ ->
        failures := !failures + 2;
        Replica.note_timeout group primary;
        Replica.note_timeout group alt;
        let ready = min sched_p.Sim.finish sched_a.Sim.finish in
        failover 2 ~ready ~prev:(Some alt) ~last_id:(Some id_a))
  in
  let exec_op (op : Op.t) =
    match op with
    | Select { dst; source = j; _ } ->
      let b, avail, prod = route_op ~op ~source:j ~probe:Item_set.empty ~ready:0.0 ~deps:[] in
      Hashtbl.replace env dst (b, avail, prod)
    | Semijoin { dst; source = j; input; _ } ->
      let probe, ready, deps = items input in
      let b, avail, prod = route_op ~op ~source:j ~probe ~ready ~deps in
      Hashtbl.replace env dst (b, avail, prod)
    | Load { dst; source = j } ->
      let b, avail, prod = route_op ~op ~source:j ~probe:Item_set.empty ~ready:0.0 ~deps:[] in
      Hashtbl.replace env dst (b, avail, prod)
    | Local_select { dst; cond = c; input } ->
      let relation, avail, prod = loaded input in
      let pred = Cond.compile (Relation.schema relation) (cond c) in
      Hashtbl.replace env dst (Items (Relation.select_items relation pred), avail, prod)
    | Union { dst; args } ->
      let parts = List.map items args in
      let answer = Item_set.union_list (List.map (fun (s, _, _) -> s) parts) in
      let avail = List.fold_left (fun a (_, t, _) -> max a t) 0.0 parts in
      let prod = List.concat_map (fun (_, _, p) -> p) parts in
      Hashtbl.replace env dst (Items answer, avail, prod)
    | Inter { dst; args } ->
      let parts = List.map items args in
      let answer = Item_set.inter_list (List.map (fun (s, _, _) -> s) parts) in
      let avail = List.fold_left (fun a (_, t, _) -> max a t) 0.0 parts in
      let prod = List.concat_map (fun (_, _, p) -> p) parts in
      Hashtbl.replace env dst (Items answer, avail, prod)
    | Diff { dst; left; right } ->
      let l, tl, pl = items left and r, tr, pr = items right in
      Hashtbl.replace env dst (Items (Item_set.diff l r), max tl tr, pl @ pr)
  in
  List.iter exec_op (Plan.ops plan);
  let answer, _, _ = items (Plan.output plan) in
  let requests =
    let n = ref 0 in
    for j = 0 to Cluster.n_sources cluster - 1 do
      let g = Cluster.group cluster ~shard ~source:j in
      for r = 0 to Replica.size g - 1 do
        n := !n + (Source.totals (Replica.replica g r)).Meter.requests
      done
    done;
    !n
  in
  let cost =
    let c = ref 0.0 in
    for j = 0 to Cluster.n_sources cluster - 1 do
      c := !c +. (Replica.totals (Cluster.group cluster ~shard ~source:j)).Meter.cost
    done;
    !c
  in
  let busy =
    let all = Runtime.busy rt in
    let b = ref 0.0 in
    for j = 0 to Cluster.n_sources cluster - 1 do
      for r = 0 to Cluster.stride cluster - 1 do
        b := !b +. all.(Cluster.lane cluster ~shard ~source:j ~replica:r)
      done
    done;
    !b
  in
  {
    sr_shard = shard;
    sr_answer = answer;
    sr_cost = cost;
    sr_makespan = !shard_makespan;
    sr_busy = busy;
    sr_requests = requests;
    sr_failures = !failures;
    sr_failovers = !failovers;
    sr_hedges = !hedges;
    sr_hedge_wins = !hedge_wins;
    sr_partial = !partial;
  }

let fragments_for ~cluster ~(config : Config.t) query =
  let algo = config.Config.algo and stats = config.Config.stats in
  match Mediator.plan_for ~algo ~stats (Cluster.mediator cluster) query with
  | Error msg -> Error msg
  | Ok prepared ->
    let optimized = prepared.Mediator.prep_optimized in
    let conds = prepared.Mediator.prep_conds in
    let shards = Cluster.shards cluster in
    let fragment_of shard =
      match config.Config.plan_mode with
      | `Global -> Ok (Fragment.of_plan ~shard optimized.Optimized.plan)
      | `Local -> (
        (* Plan against the shard's own slice statistics (replica 0 of
           every group sees exactly the shard's data). *)
        let sources =
          List.init (Cluster.n_sources cluster) (fun j ->
              Cluster.replica cluster ~shard ~source:j ~replica:0)
        in
        match Mediator.create sources with
        | Error msg -> Error msg
        | Ok med -> (
          match Mediator.plan_for ~algo ~stats med query with
          | Error msg -> Error msg
          | Ok p -> Ok (Fragment.of_plan ~shard p.Mediator.prep_optimized.Optimized.plan)))
    in
    let rec scatter shard acc =
      if shard >= shards then Ok (List.rev acc)
      else
        match fragment_of shard with
        | Error msg -> Error msg
        | Ok f -> (
          (* The wire round trip: every fragment is encoded and decoded
             exactly as a remote shard would receive it. *)
          match Fragment.ship f with
          | Error msg -> Error ("fragment for shard " ^ string_of_int shard ^ ": " ^ msg)
          | Ok f -> scatter (shard + 1) (f :: acc))
    in
    Result.map (fun frags -> (optimized, conds, frags)) (scatter 0 [])

let run ?(config = Config.default) cluster query =
  Trace.span Trace.Run "coordinator.run" @@ fun ctx ->
  if Trace.active ctx then
    Trace.attrs ctx
      [
        ("shards", Trace.Int (Cluster.shards cluster));
        ("replicas", Trace.Int (Cluster.stride cluster));
        ("routing", Trace.Str (Replica.routing_name config.Config.routing));
      ];
  match fragments_for ~cluster ~config query with
  | Error msg -> Error msg
  | Ok (optimized, conds, fragments) -> (
    Cluster.reset_meters cluster;
    let rt = Runtime.of_spec config.Config.runtime ~servers:(Cluster.lanes cluster) in
    let book =
      { next_id = 0; labels = Hashtbl.create 64; cond_of = Hashtbl.create 64; events = [] }
    in
    (* On the simulator, shards execute one after another (their lanes
       are disjoint, so the schedule is as-if concurrent) under Phase
       spans. On a real runtime each fragment is a fibre and really
       overlaps; spans would interleave across fibres, so they are
       confined to the simulator path. *)
    let exec_all () =
      if Runtime.is_real rt then
        Runtime.run rt (fun () ->
            Fiber.Switch.run (fun sw ->
                List.map
                  (fun fragment ->
                    Fiber.Switch.fork_promise sw (fun () ->
                        exec_fragment ~cluster ~config ~rt ~book ~ctx ~conds
                          fragment))
                  fragments
                |> List.map Fiber.Promise.await))
      else
        List.map
          (fun fragment ->
            Trace.span (Trace.Phase "shard")
              (Printf.sprintf "shard %d" fragment.Fragment.shard) (fun sctx ->
                if Trace.active sctx then
                  Trace.attr sctx "shard" (Trace.Int fragment.Fragment.shard);
                exec_fragment ~cluster ~config ~rt ~book ~ctx ~conds fragment))
          fragments
    in
    match Fun.protect ~finally:(fun () -> Runtime.shutdown rt) exec_all with
    | shard_reports ->
      let answer = Fragment.merge_answers (List.map (fun s -> s.sr_answer) shard_reports) in
      let timeline = Sim.timeline_of book.events in
      let tasks =
        Analyze.of_timeline
          ~label:(fun id -> Option.value ~default:"" (Hashtbl.find_opt book.labels id))
          ~cond:(fun id -> Option.join (Hashtbl.find_opt book.cond_of id))
          timeline
      in
      let sum f = List.fold_left (fun a s -> a + f s) 0 shard_reports in
      let staleness =
        let worst = ref 0.0 in
        for shard = 0 to Cluster.shards cluster - 1 do
          for j = 0 to Cluster.n_sources cluster - 1 do
            let g = Cluster.group cluster ~shard ~source:j in
            for r = 0 to Replica.size g - 1 do
              if (Source.totals (Replica.replica g r)).Meter.requests > 0 then
                worst := max !worst (Replica.staleness g r)
            done
          done
        done;
        !worst
      in
      let per_source =
        List.init (Cluster.n_sources cluster) (fun j ->
            let totals = ref Meter.zero in
            for shard = 0 to Cluster.shards cluster - 1 do
              totals :=
                Meter.add !totals (Replica.totals (Cluster.group cluster ~shard ~source:j))
            done;
            (Replica.name (Cluster.group cluster ~shard:0 ~source:j), !totals))
      in
      let report =
        {
          r_shard_count = Cluster.shards cluster;
          r_replica_count = Cluster.stride cluster;
          r_answer = answer;
          r_optimized = optimized;
          r_fragments = fragments;
          r_shards = shard_reports;
          r_total_cost = List.fold_left (fun a s -> a +. s.sr_cost) 0.0 shard_reports;
          r_makespan = timeline.Sim.makespan;
          r_failures = sum (fun s -> s.sr_failures);
          r_failovers = sum (fun s -> s.sr_failovers);
          r_hedges = sum (fun s -> s.sr_hedges);
          r_hedge_wins = sum (fun s -> s.sr_hedge_wins);
          r_partial = List.exists (fun s -> s.sr_partial) shard_reports;
          r_staleness = staleness;
          r_per_source = per_source;
          r_timeline = timeline;
          r_critical_path = Analyze.critical_path tasks;
        }
      in
      Metrics.record (fun r ->
          Metrics.incr r "fusion_dist_runs_total";
          Metrics.observe r "fusion_dist_answer_size" (Item_set.cardinal answer);
          List.iter
            (fun s ->
              let labels = [ ("shard", "s" ^ string_of_int s.sr_shard) ] in
              Metrics.incr r ~labels "fusion_dist_requests_total"
                ~by:(float_of_int s.sr_requests);
              Metrics.incr r ~labels "fusion_dist_failures_total"
                ~by:(float_of_int s.sr_failures);
              Metrics.incr r ~labels "fusion_dist_failovers_total"
                ~by:(float_of_int s.sr_failovers);
              Metrics.incr r ~labels "fusion_dist_hedges_total"
                ~by:(float_of_int s.sr_hedges);
              Metrics.incr r ~labels "fusion_dist_cost_total" ~by:s.sr_cost)
            shard_reports);
      Ok report
    | exception Source.Unsupported msg -> Error ("execution failed: " ^ msg)
    | exception Source.Timeout msg ->
      Error ("execution failed (all replicas unreachable): " ^ msg)
    | exception Runtime_error msg -> Error ("execution failed: " ^ msg))

let run_sql ?config cluster sql =
  match Fusion_query.Sql.parse_fusion ~schema:(Cluster.schema cluster) ~union:"U" sql with
  | Error msg -> Error msg
  | Ok query -> run ?config cluster query

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "sharded mediation: %d shards x %d replicas@," r.r_shard_count
    r.r_replica_count;
  Format.fprintf ppf "answer: %d items  total cost: %.2f  makespan: %.2f@,"
    (Item_set.cardinal r.r_answer) r.r_total_cost r.r_makespan;
  List.iter
    (fun s ->
      Format.fprintf ppf
        "shard s%d: %d items  cost %.2f  makespan %.2f  busy %.2f  requests %d  \
         failures %d  failovers %d  hedges %d (won %d)%s@,"
        s.sr_shard
        (Item_set.cardinal s.sr_answer)
        s.sr_cost s.sr_makespan s.sr_busy s.sr_requests s.sr_failures s.sr_failovers
        s.sr_hedges s.sr_hedge_wins
        (if s.sr_partial then "  PARTIAL" else ""))
    r.r_shards;
  Format.fprintf ppf "failures %d  failovers %d  hedges %d (won %d)@," r.r_failures
    r.r_failovers r.r_hedges r.r_hedge_wins;
  Format.fprintf ppf "staleness bound: %.2f@," r.r_staleness;
  if r.r_partial then Format.fprintf ppf "PARTIAL ANSWER@,";
  Format.fprintf ppf "critical path:@,  @[<v>%a@]"
    (fun ppf -> Analyze.pp_path ppf)
    r.r_critical_path;
  Format.fprintf ppf "@]"
