open Fusion_data
open Fusion_cond
open Fusion_source
open Fusion_core
module Trace = Fusion_obs.Trace
module Metrics = Fusion_obs.Metrics
module Analyze = Fusion_obs.Analyze
module Runtime = Fusion_rt.Runtime

let log_src = Logs.Src.create "fusion.mediator" ~doc:"Fusion-query mediator"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = { union : string; sources : Source.t array }

let create ?(union = "U") sources =
  match sources with
  | [] -> Error "a mediator needs at least one source"
  | first :: rest ->
    let schema = Source.schema first in
    let mismatch =
      List.find_opt (fun s -> not (Schema.equal schema (Source.schema s))) rest
    in
    (match mismatch with
    | Some s ->
      Error
        (Printf.sprintf "source %s exports a different schema than %s" (Source.name s)
           (Source.name first))
    | None -> Ok { union; sources = Array.of_list sources })

let create_exn ?union sources =
  match create ?union sources with
  | Ok t -> t
  | Error msg -> invalid_arg ("Mediator.create_exn: " ^ msg)

let of_catalog ?union path =
  match Fusion_source.Catalog.load path with
  | Error _ as e -> e
  | Ok sources -> create ?union sources

let schema t = Source.schema t.sources.(0)
let sources t = t.sources

module Config = struct
  type t = {
    algo : Optimizer.algo;
    stats : Opt_env.stats_mode;
    cache : Fusion_plan.Exec.Query_cache.t option;
    retries : int;
    on_exhausted : [ `Fail | `Partial ];
    runtime : Runtime.spec;
  }

  let default =
    {
      algo = Optimizer.Sja_plus;
      stats = Opt_env.Exact;
      cache = None;
      retries = 0;
      on_exhausted = `Fail;
      runtime = `Sim;
    }

  let policy c = { Fusion_plan.Exec.retries = c.retries; on_exhausted = c.on_exhausted }
end

type report = {
  algo : Optimizer.algo;
  runtime : Runtime.spec;
  optimized : Optimized.t;
  answer : Item_set.t;
  actual_cost : float;
  response_time : float;
  steps : Fusion_plan.Exec.step list;
  per_source : (string * Fusion_net.Meter.totals) list;
  failures : int;
  partial : bool;
  critical_path : Analyze.path;
      (* The dependency/queue chain that set the response time. *)
  cost_drift : float;
      (* actual cost / estimated cost — how honest the optimizer's cost
         model was on this run (NaN when the estimate was 0). *)
  trace : Trace.span list;
      (* The spans recorded during this run ([] when tracing is off);
         the root is the run's [Trace.Run] span. *)
}

type execution = {
  x_answer : Item_set.t;
  x_steps : Fusion_plan.Exec.step list;
  x_cost : float;
  x_response_time : float;
  x_failures : int;
  x_partial : bool;
  x_critical_path : Analyze.path;
}

(* Task labels/conditions for the critical path come from the compiled
   plan's dataflow nodes: timeline task ids index into them by
   construction (see Exec_async). *)
let schedule_analysis cp (r : Fusion_plan.Exec_async.result) =
  let nodes = Fusion_plan.Plan_compile.nodes cp in
  let node id = if id >= 0 && id < Array.length nodes then Some nodes.(id) else None in
  let label id =
    match node id with
    | Some (op, _, _) ->
      Printf.sprintf "%s := %s" (Fusion_plan.Op.dst op) (Fusion_plan.Op.name op)
    | None -> Printf.sprintf "task %d" id
  in
  let cond id =
    match node id with
    | Some (Fusion_plan.Op.Select { cond; _ }, _, _)
    | Some (Fusion_plan.Op.Semijoin { cond; _ }, _, _) ->
      Some cond
    | _ -> None
  in
  Analyze.critical_path
    (Analyze.of_timeline ~label ~cond r.Fusion_plan.Exec_async.timeline)

(* The planning head shared by [run], distributed coordinators
   ([Fusion_dist.Coordinator] scatters the very plan the single-server
   mediator would execute — its oracle-equivalence anchor) and the
   server, which adds its prepared-plan table (see [Plans]). *)
type prepared = {
  prep_query : Fusion_query.Query.t;
  prep_conds : Cond.t array;
  prep_optimized : Optimized.t;
}

let optimize ~algo ~stats t query =
  let env = Opt_env.create ~stats t.sources query in
  Log.debug (fun m ->
      m "optimizing %a with %s over %d sources" Fusion_query.Query.pp query
        (Optimizer.name algo) (Array.length t.sources));
  {
    prep_query = query;
    prep_conds = env.Opt_env.conds;
    prep_optimized = Optimizer.optimize algo env;
  }

(* Prepared plans, keyed structurally on the normalized query. An entry
   is reused only while every source's relation version is the one it
   was optimized at: exact and histogram statistics are functions of
   the relation contents and the optimizers are deterministic, so the
   reused plan is the one a fresh optimize would return. Sampled
   statistics draw from a shared generator and never come here. The
   table is flushed whole at [capacity] entries, so a server that never
   sees a statement twice holds bounded state. *)
module Plans = struct
  type entry = { prepared : prepared; versions : int array }

  type t = {
    tbl : (Fusion_query.Query.t, entry) Hashtbl.t;
    mutable lookups : int;
    mutable hits : int;
    mutable stale : int; (* found, but some source changed since *)
  }

  let capacity = 1024
  let create () = { tbl = Hashtbl.create 64; lookups = 0; hits = 0; stale = 0 }
  let version s = Relation.version (Source.relation s)

  let current sources e =
    let rec go j =
      j >= Array.length sources || (version sources.(j) = e.versions.(j) && go (j + 1))
    in
    go 0

  let find_or_add p sources query fresh =
    p.lookups <- p.lookups + 1;
    match Hashtbl.find_opt p.tbl query with
    | Some e when current sources e ->
      p.hits <- p.hits + 1;
      e.prepared
    | found ->
      if Option.is_some found then p.stale <- p.stale + 1
      else if Hashtbl.length p.tbl >= capacity then Hashtbl.reset p.tbl;
      let versions = Array.map version sources in
      let prepared = fresh () in
      Hashtbl.replace p.tbl query { prepared; versions };
      prepared
end

let prepare ?plans ~algo ~stats t query =
  match Fusion_query.Query.validate (schema t) query with
  | Error msg -> Error ("invalid query: " ^ msg)
  | Ok () -> (
    (* Redundant conditions (duplicates, TRUE) would cost whole rounds. *)
    let query = Fusion_query.Query.normalize query in
    let fresh () = optimize ~algo ~stats t query in
    match (plans, stats) with
    | Some p, (Opt_env.Exact | Opt_env.Histogram _) ->
      Ok (Plans.find_or_add p t.sources query fresh)
    | _, _ -> Ok (fresh ()))

let plan_for ?(algo = Config.default.Config.algo) ?(stats = Config.default.Config.stats)
    t query =
  prepare ~algo ~stats t query

(* Every execution is one compiled engine run on the configured
   runtime: [total_cost] is the paper's total work, the makespan the
   response time. *)
let execute ?(config = Config.default) t ~conds plan =
  Array.iter Source.reset_meter t.sources;
  match Fusion_plan.Plan_compile.compile ~sources:t.sources ~conds plan with
  | Error msg -> Error ("invalid plan: " ^ msg)
  | Ok cp -> (
    match
      let rt = Runtime.of_spec config.Config.runtime ~servers:(Array.length t.sources) in
      Fun.protect
        ~finally:(fun () -> Runtime.shutdown rt)
        (fun () ->
          Fusion_plan.Exec_async.run_on ?cache:config.Config.cache
            ~policy:(Config.policy config) ~rt cp)
    with
    | r ->
      Ok
        {
          x_answer = r.Fusion_plan.Exec_async.answer;
          x_steps = Fusion_plan.Exec_async.to_exec_steps r.Fusion_plan.Exec_async.steps;
          x_cost = r.Fusion_plan.Exec_async.total_cost;
          x_response_time = r.Fusion_plan.Exec_async.makespan;
          x_failures = r.Fusion_plan.Exec_async.failures;
          x_partial = r.Fusion_plan.Exec_async.partial;
          x_critical_path = schedule_analysis cp r;
        }
    | exception Source.Unsupported msg -> Error ("execution failed: " ^ msg)
    | exception Source.Timeout msg -> Error ("execution failed (source unreachable): " ^ msg)
    | exception Fusion_plan.Exec.Runtime_error msg -> Error ("invalid plan: " ^ msg)
    | exception Invalid_argument msg -> Error msg)

let run_body ~(config : Config.t) ~ctx t query =
  match plan_for ~algo:config.Config.algo ~stats:config.Config.stats t query with
  | Error msg -> Error msg
  | Ok { prep_query = _; prep_conds = conds; prep_optimized = optimized } -> (
    Log.info (fun m ->
        m "%s chose a %d-step plan, estimated cost %.1f"
          (Optimizer.name config.Config.algo)
          (List.length (Fusion_plan.Plan.ops optimized.Optimized.plan))
          optimized.Optimized.est_cost);
    match execute ~config t ~conds optimized.Optimized.plan with
    | Error msg -> Error msg
    | Ok x ->
      Log.info (fun m ->
          m "executed: actual cost %.1f, response time %.1f, %d answers" x.x_cost
            x.x_response_time
            (Item_set.cardinal x.x_answer));
      if Trace.active ctx then
        Trace.attrs ctx
          [
            ("est_cost", Trace.Float optimized.Optimized.est_cost);
            ("actual_cost", Trace.Float x.x_cost);
            ("response_time", Trace.Float x.x_response_time);
            ("answers", Trace.Int (Item_set.cardinal x.x_answer));
          ];
      Metrics.record (fun r ->
          let labels = [ ("algo", Optimizer.name config.Config.algo) ] in
          Metrics.incr r ~labels "fusion_runs_total";
          Metrics.incr r ~labels "fusion_run_cost_total" ~by:x.x_cost;
          Metrics.observe r ~labels "fusion_answer_size" (Item_set.cardinal x.x_answer));
      Ok
        {
          algo = config.Config.algo;
          runtime = config.Config.runtime;
          optimized;
          answer = x.x_answer;
          actual_cost = x.x_cost;
          response_time = x.x_response_time;
          steps = x.x_steps;
          per_source =
            Array.to_list
              (Array.map (fun s -> (Source.name s, Source.totals s)) t.sources);
          failures = x.x_failures;
          partial = x.x_partial;
          critical_path = x.x_critical_path;
          cost_drift =
            (if optimized.Optimized.est_cost > 0.0 then
               x.x_cost /. optimized.Optimized.est_cost
             else Float.nan);
          trace = [];
        })

(* The spans the run produced under whatever collector is installed
   come back in [report.trace], with the [Run] span as the root. *)
let run ?(config = Config.default) t query =
  let marked = Option.map (fun c -> (c, Trace.mark c)) (Trace.installed ()) in
  let result =
    Trace.span Trace.Run "mediator.run" (fun ctx ->
        if Trace.active ctx then
          Trace.attrs ctx
            [
              ("algo", Trace.Str (Optimizer.name config.Config.algo));
              ("sources", Trace.Int (Array.length t.sources));
              ("query", Trace.Str (Format.asprintf "%a" Fusion_query.Query.pp query));
            ];
        run_body ~config ~ctx t query)
  in
  match result, marked with
  | Ok report, Some (c, m) -> Ok { report with trace = Trace.spans_since c m }
  | _ -> result

let run_sql ?config t text =
  match Fusion_query.Sql.parse_fusion ~schema:(schema t) ~union:t.union text with
  | Error msg -> Error msg
  | Ok query -> run ?config t query

type records = { tuples : Tuple.t list; fetch_cost : float }

type rows = {
  report : report;
  columns : string list;
  rows : Value.t list list;
  fetch_cost : float;
}

let fetch_phase2 t items =
  let tuples, fetch_cost =
    Array.fold_left
      (fun (acc, cost) source ->
        let fetched, c = Source.fetch_records source items in
        (acc @ fetched, cost +. c))
      ([], 0.0) t.sources
  in
  { tuples; fetch_cost }

let two_phase ?config t query =
  match run ?config t query with
  | Error msg -> Error msg
  | Ok report -> Ok (report, fetch_phase2 t report.answer)

let select_sql ?config t text =
  match Fusion_query.Sql.parse ~schema:(schema t) ~union:t.union text with
  | Error msg -> Error msg
  | Ok (Fusion_query.Sql.Not_fusion reason) -> Error ("not a fusion query: " ^ reason)
  | Ok (Fusion_query.Sql.Fusion (query, projection)) -> (
    match run ?config t query with
    | Error msg -> Error msg
    | Ok report ->
      let schema = schema t in
      let merge = Schema.merge schema in
      let columns = merge :: projection in
      if projection = [] then
        Ok
          {
            report;
            columns;
            rows = List.map (fun item -> [ item ]) (Item_set.to_list report.answer);
            fetch_cost = 0.0;
          }
      else begin
        let records = fetch_phase2 t report.answer in
        let project tuple = List.map (Tuple.get_attr schema tuple) columns in
        let rows = List.sort_uniq compare (List.map project records.tuples) in
        Ok { report; columns; rows; fetch_cost = records.fetch_cost }
      end)

(* One-phase baseline: push every condition to every source, shipping
   full matching tuples instead of items (no second phase needed, but
   every intermediate result pays tuple width). *)
let single_phase_cost t query =
  let conds = Fusion_query.Query.conditions query in
  Array.fold_left
    (fun acc source ->
      let relation = Source.relation source in
      let profile = Source.profile source in
      Array.fold_left
        (fun acc cond ->
          let matching = Cond_vec.count_rows (Cond_vec.compile relation cond) in
          acc
          +. profile.Fusion_net.Profile.request_overhead
          +. (profile.Fusion_net.Profile.recv_per_tuple *. float_of_int matching))
        acc conds)
    0.0 t.sources

(* Simulated time shares the cost model's units; a real clock's seconds
   print as milliseconds, with the unit. *)
let pp_duration runtime ppf t =
  match runtime with
  | `Sim -> Format.fprintf ppf "%.1f" t
  | `Domains _ -> Format.fprintf ppf "%.3f ms" (t *. 1000.0)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>algorithm: %s@,%a@,actual cost: %.1f%s%s@,answer (%d items): %a"
    (Optimizer.name r.algo)
    (Optimized.pp ?source_name:None)
    r.optimized r.actual_cost
    (match r.runtime with
     | `Sim when r.response_time >= r.actual_cost -> ""
     | runtime -> Format.asprintf " (response time %a)" (pp_duration runtime) r.response_time)
    (if r.partial then " (PARTIAL: a source was unreachable)"
     else if r.failures > 0 then Printf.sprintf " (%d retried timeouts)" r.failures
     else "")
    (Item_set.cardinal r.answer) Item_set.pp r.answer;
  List.iter
    (fun (name, totals) ->
      Format.fprintf ppf "@,%s: %a" name Fusion_net.Meter.pp_totals totals)
    r.per_source;
  if r.critical_path.Analyze.hops <> [] then begin
    let source_name j =
      match List.nth_opt r.per_source j with
      | Some (name, _) -> name
      | None -> Printf.sprintf "R%d" (j + 1)
    in
    Format.fprintf ppf "@,%a" (Analyze.pp_path ~source_name) r.critical_path
  end;
  Format.fprintf ppf "@]"

(* Serving mode: many queries multiplexed onto one shared network.
   The mediator's contribution per submission is what [run] does up
   front — validate, normalize, optimize (or reuse a prepared plan) —
   after which the job (plan, conditions, cost estimate) is handed to
   [Fusion_serve.Server] and the optimizer's estimate doubles as the
   scheduling/admission weight. *)
module Server = struct
  module S = Fusion_serve.Server

  type prepared_stats = { lookups : int; hits : int; stale : int; entries : int }

  type nonrec t = {
    med : t;
    config : Config.t;
    srv : S.t;
    plans : Plans.t;
    mutable published : prepared_stats; (* counters last exported to metrics *)
  }

  let create ?(config = Config.default) ?(policy = S.Fifo) ?(max_inflight = 64)
      ?cache_ttl ?versioned_cache ?window ?slow_log med =
    let rt =
      Runtime.of_spec config.Config.runtime ~servers:(Array.length med.sources)
    in
    {
      med;
      config;
      srv =
        S.create ~policy ~max_inflight ?cache_ttl ?versioned_cache
          ~exec_policy:(Config.policy config) ?window ?slow_log ~rt med.sources;
      plans = Plans.create ();
      published = { lookups = 0; hits = 0; stale = 0; entries = 0 };
    }

  let serve t = t.srv
  let mediator t = t.med

  let plan t query =
    prepare ~plans:t.plans ~algo:t.config.Config.algo ~stats:t.config.Config.stats t.med
      query

  let prepared_stats t =
    let p = t.plans in
    { lookups = p.Plans.lookups; hits = p.Plans.hits; stale = p.Plans.stale;
      entries = Hashtbl.length p.Plans.tbl }

  let publish_metrics t =
    S.publish_metrics t.srv;
    Metrics.record (fun r ->
        let s = prepared_stats t and p = t.published in
        let c name now last =
          if now > last then Metrics.incr r ~by:(float_of_int (now - last)) name
        in
        c "fusion_prepared_lookups_total" s.lookups p.lookups;
        c "fusion_prepared_hits_total" s.hits p.hits;
        c "fusion_prepared_stale_total" s.stale p.stale;
        Metrics.gauge r "fusion_prepared_entries" (float_of_int s.entries);
        t.published <- s)

  let submit t ~at ?(tenant = "default") ?(priority = 0) ?deadline ?(label = "")
      query =
    match plan t query with
    | Error msg -> Error msg
    | Ok p ->
      let job =
        {
          S.plan = p.prep_optimized.Optimized.plan;
          conds = p.prep_conds;
          tenant;
          priority;
          est_cost = p.prep_optimized.Optimized.est_cost;
          deadline;
          label;
        }
      in
      Ok (S.submit t.srv ~at job)

  let submit_sql t ~at ?tenant ?priority ?deadline text =
    match Fusion_query.Sql.parse_fusion ~schema:(schema t.med) ~union:t.med.union text with
    | Error msg -> Error msg
    | Ok query -> submit t ~at ?tenant ?priority ?deadline ~label:text query

  (* Standing queries: the same planning head as [submit], but the
     chosen plan is registered for incremental maintenance instead of
     being enqueued for execution. *)
  let subscribe t ?(tenant = "default") ?(label = "") query =
    match plan t query with
    | Error msg -> Error msg
    | Ok p ->
      S.subscribe t.srv ~tenant ~label ~conds:p.prep_conds p.prep_optimized.Optimized.plan

  let subscribe_sql t ?tenant text =
    match
      Fusion_query.Sql.parse_fusion ~schema:(schema t.med) ~union:t.med.union text
    with
    | Error msg -> Error msg
    | Ok query -> subscribe t ?tenant ~label:text query

  let unsubscribe t id = S.unsubscribe t.srv id

  let mutate t ~source delta = S.mutate t.srv ~source delta

  let mutate_line t ~source line =
    match
      Array.find_opt (fun s -> String.equal (Source.name s) source) t.med.sources
    with
    | None -> Error (Printf.sprintf "unknown source %s" source)
    | Some s -> (
      match
        Fusion_delta.Delta.parse (Relation.schema (Source.relation s)) line
      with
      | Error e -> Error e
      | Ok delta -> mutate t ~source delta)

  let step t = S.step t.srv
  let drain t = S.drain t.srv
  let stats t = S.stats t.srv
  let runtime t = S.runtime t.srv
  let shutdown t = Runtime.shutdown (S.runtime t.srv)
end
