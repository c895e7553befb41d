(* The scatter/gather coordinator.

   One query, one plan (chosen on the cluster's oracle mediator),
   scattered as Fragment.t to every shard over the wire encoding, and
   executed against the shard's replica groups on one shared
   [Fusion_rt.Runtime]. Each shard runs its fragment's compiled plan on
   an [Exec_async.Engine], the same executor as the single mediator's;
   on the simulator backend (the default) shards execute sequentially
   against the discrete-event clock, on a real runtime each fragment
   runs as its own fibre and replica requests really overlap across
   lanes. The gather step is Fragment.merge_answers — exact because the
   shards' slices are disjoint on merge ids.

   The engine's source call is where the distribution machinery lives:
   a routing policy picks the replica to try first, failover cycles
   through the rest of the group (failed attempts still occupy their
   lane and charge their overhead, exactly like the single mediator's
   retry accounting), and an optional hedge factor duplicates a
   request onto the best alternative replica when the routed one's
   predicted finish looks straggler-like. *)

open Fusion_data
module Source = Fusion_source.Source
module Mediator = Fusion_mediator.Mediator
module Optimizer = Fusion_core.Optimizer
module Opt_env = Fusion_core.Opt_env
module Optimized = Fusion_core.Optimized
module Op = Fusion_plan.Op
module Fragment = Fusion_plan.Fragment
module Plan_compile = Fusion_plan.Plan_compile
module Exec = Fusion_plan.Exec
module Exec_async = Fusion_plan.Exec_async
module Sim = Fusion_net.Sim
module Meter = Fusion_net.Meter
module Runtime = Fusion_rt.Runtime
module Fiber = Fusion_rt.Fiber
module Trace = Fusion_obs.Trace
module Metrics = Fusion_obs.Metrics
module Analyze = Fusion_obs.Analyze

module Config = struct
  type t = {
    algo : Optimizer.algo;
    stats : Opt_env.stats_mode;
    retries : int;
    on_exhausted : [ `Fail | `Partial ];
    routing : Replica.routing;
    hedge : float option;
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
  r_optimized : Optimized.t;  (** the oracle mediator's plan, scattered to every shard *)
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

(* The requests every shard issued: task ids, their labels and
   conditions for the critical path, and the slots the runtime returned
   (a real-clock runtime keeps no record per request). *)
type book = {
  mutable next_id : int;
  labels : (int, string) Hashtbl.t;
  cond_of : (int, int option) Hashtbl.t;
  mutable events : Sim.scheduled list; (* newest first *)
}

(* Run one fragment's compiled plan (against replica 0 of every group)
   on the engine, with replica routing as its source call. All runtime
   state (lanes, the request book) is shared across shards; lanes are
   disjoint per shard so their schedules never interact. *)
let exec_fragment ~cluster ~(config : Config.t) ~rt ~book ~ctx (shard, cp) =
  let nodes = Plan_compile.nodes cp in
  (* The book id of the request that settled each dataflow node: the
     engine's dependencies are node ids, the shared timeline's are book
     ids. *)
  let book_of = Array.make (Array.length nodes) (-1) in
  let failovers = ref 0 in
  let hedges = ref 0 and hedge_wins = ref 0 in
  let shard_makespan = ref 0.0 in
  let call (sc : Exec_async.sched) ~ready query =
    let op, j, _ = nodes.(sc.Exec_async.task) in
    let deps = List.map (Array.get book_of) sc.Exec_async.deps in
    let group = Cluster.group cluster ~shard ~source:j in
    let fails = ref 0 and cost = ref 0.0 in
    (* One attempt at one replica: the fault is drawn (and the overhead
       charged) when the request is issued; the lane holds the replica
       for the metered duration either way. *)
    let try_replica ~ready ~hedged r =
      let src = Replica.replica group r in
      let lane = Cluster.lane cluster ~shard ~source:j ~replica:r in
      (* The thunk touches only the replica source: on a real runtime it
         runs on the lane's pool worker, where same-lane requests
         serialize. A failed attempt still occupies the lane for its
         metered duration, exactly like the single mediator's retry
         accounting, so it books either way. *)
      let thunk () =
        let before = (Source.totals src).Meter.cost in
        let outcome = try Ok (query src) with Source.Timeout msg -> Error msg in
        let duration = (Source.totals src).Meter.cost -. before in
        ((outcome, duration), duration, true)
      in
      let id = book.next_id in
      book.next_id <- id + 1;
      Hashtbl.replace book.labels id
        (Printf.sprintf "%s %s" (Op.name op) (Cluster.lane_name cluster lane));
      Hashtbl.replace book.cond_of id
        (match (op : Op.t) with
        | Select { cond = c; _ } | Semijoin { cond = c; _ } -> Some c
        | _ -> None);
      let (outcome, duration), sched =
        Runtime.call rt ~id ~server:lane ~ready ~deps thunk
      in
      book.events <- sched :: book.events;
      cost := !cost +. duration;
      if Trace.active ctx then
        Trace.span Trace.Request (Op.name op) (fun rctx ->
            Trace.attrs rctx
              [
                ("shard", Trace.Int shard);
                ("replica", Trace.Int r);
                ("lane", Trace.Str (Cluster.lane_name cluster lane));
                ("hedged", Trace.Bool hedged);
                ("ok", Trace.Bool (Result.is_ok outcome));
              ]);
      shard_makespan := max !shard_makespan sched.Sim.finish;
      (outcome, sched)
    in
    (* Routed execution: try the routing order with a budget of
       [retries] extra attempts, optionally hedging the first attempt
       onto the best alternative replica. Exhaustion settles on the
       last attempt, available when the failover would have retried. *)
    let order = Replica.order group config.Config.routing in
    let width = List.length order in
    let budget = config.Config.retries + width in
    let rec failover attempt ~ready ~prev ~last =
      match last with
      | Some (last : Sim.scheduled) when attempt >= budget ->
        (None, { last with finish = ready })
      | _ -> (
        let r = List.nth order (attempt mod width) in
        if attempt > 0 && prev <> Some r then incr failovers;
        match try_replica ~ready ~hedged:false r with
        | Ok v, sched ->
          Replica.note_success group r;
          (Some v, sched)
        | Error _, sched ->
          incr fails;
          Replica.note_timeout group r;
          failover (attempt + 1) ~ready:sched.Sim.finish ~prev:(Some r) ~last:(Some sched))
    in
    (* Hedge decision on the first attempt only: predicted finish from
       lane availability plus the replica's advertised speed. *)
    let hedge_alt primary =
      match config.Config.hedge with
      | None -> None
      | Some _ when width < 2 -> None
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
    let answer, settled =
      match hedge_alt primary with
      | None -> failover 0 ~ready ~prev:None ~last:None
      | Some alt -> (
        incr hedges;
        (* The routed replica draws its fault first, then the hedge. *)
        let op_p, sched_p = try_replica ~ready ~hedged:false primary in
        let op_a, sched_a = try_replica ~ready ~hedged:true alt in
        match op_p, op_a with
        | Ok vp, Ok va ->
          Replica.note_success group primary;
          Replica.note_success group alt;
          if sched_a.Sim.finish < sched_p.Sim.finish then begin
            incr hedge_wins;
            (Some va, sched_a)
          end
          else (Some vp, sched_p)
        | Ok vp, Error _ ->
          incr fails;
          Replica.note_success group primary;
          Replica.note_timeout group alt;
          (Some vp, sched_p)
        | Error _, Ok va ->
          incr fails;
          incr hedge_wins;
          Replica.note_timeout group primary;
          Replica.note_success group alt;
          (Some va, sched_a)
        | Error _, Error _ ->
          fails := !fails + 2;
          Replica.note_timeout group primary;
          Replica.note_timeout group alt;
          let ready = min sched_p.Sim.finish sched_a.Sim.finish in
          failover 2 ~ready ~prev:(Some alt) ~last:(Some sched_a))
    in
    book_of.(sc.Exec_async.task) <- settled.Sim.task.Sim.id;
    (answer, !fails, !cost, settled)
  in
  let policy = { Exec.default_policy with on_exhausted = config.Config.on_exhausted } in
  let e = Exec_async.Engine.create ~call:{ Exec_async.Engine.call } ~policy ~rt cp in
  let rec drive () =
    match Exec_async.Engine.pending e with
    | Some _ ->
      ignore (Exec_async.Engine.dispatch e);
      drive ()
    | None -> ()
  in
  drive ();
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
    sr_answer = Exec_async.Engine.answer e;
    sr_cost = cost;
    sr_makespan = !shard_makespan;
    sr_busy = busy;
    sr_requests = requests;
    sr_failures = Exec_async.Engine.failures e;
    sr_failovers = !failovers;
    sr_hedges = !hedges;
    sr_hedge_wins = !hedge_wins;
    sr_partial = Exec_async.Engine.partial e;
  }

let fragments_for ~cluster ~(config : Config.t) query =
  let algo = config.Config.algo and stats = config.Config.stats in
  match Mediator.plan_for ~algo ~stats (Cluster.mediator cluster) query with
  | Error msg -> Error msg
  | Ok prepared ->
    let optimized = prepared.Mediator.prep_optimized in
    let conds = prepared.Mediator.prep_conds in
    let shards = Cluster.shards cluster in
    let rec scatter shard acc =
      if shard >= shards then Ok (List.rev acc)
      else
        (* The wire round trip: every shard's fragment of the one plan
           is encoded and decoded exactly as a remote shard would
           receive it, then compiled against the shard's replica-0
           sources. *)
        let sources =
          Array.init (Cluster.n_sources cluster) (fun j ->
              Cluster.replica cluster ~shard ~source:j ~replica:0)
        in
        match
          Result.bind
            (Fragment.ship (Fragment.of_plan ~shard optimized.Optimized.plan))
            (fun f ->
              Result.map (fun cp -> (f, cp))
                (Plan_compile.compile ~sources ~conds f.Fragment.plan))
        with
        | Error msg -> Error ("fragment for shard " ^ string_of_int shard ^ ": " ^ msg)
        | Ok fc -> scatter (shard + 1) (fc :: acc)
    in
    Result.map (fun frags -> (optimized, frags)) (scatter 0 [])

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
  | Ok (optimized, compiled) -> (
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
                  (fun (f, cp) ->
                    Fiber.Switch.fork_promise sw (fun () ->
                        exec_fragment ~cluster ~config ~rt ~book ~ctx
                          (f.Fragment.shard, cp)))
                  compiled
                |> List.map Fiber.Promise.await))
      else
        List.map
          (fun (f, cp) ->
            let shard = f.Fragment.shard in
            Trace.span (Trace.Phase "shard") (Printf.sprintf "shard %d" shard) (fun sctx ->
                if Trace.active sctx then Trace.attr sctx "shard" (Trace.Int shard);
                exec_fragment ~cluster ~config ~rt ~book ~ctx (shard, cp)))
          compiled
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
          r_fragments = List.map fst compiled;
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
      Error ("execution failed (all replicas unreachable): " ^ msg))

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
