(* Trace analytics: span-tree reconstruction, the critical-path
   profiler and its makespan invariant, per-source loads and blame,
   percentile summaries, and the Chrome/Prometheus exporters. *)

open Fusion_core
open Fusion_plan
module Workload = Fusion_workload.Workload
module Source = Fusion_source.Source
module Mediator = Fusion_mediator.Mediator
module Trace = Fusion_obs.Trace
module Metrics = Fusion_obs.Metrics
module Json = Fusion_obs.Json
module Jsonl = Fusion_obs.Jsonl
module Analyze = Fusion_obs.Analyze
module Summary = Fusion_obs.Summary
module Chrome = Fusion_obs.Chrome
module Prom = Fusion_obs.Prom

(* --- span tree ----------------------------------------------------------- *)

let nested_spans () =
  let c = Trace.create ~clock:(fun () -> 0.0) () in
  Trace.with_collector c (fun () ->
      Trace.span Trace.Run "run" (fun _ ->
          Trace.span Trace.Optimize "opt" (fun _ ->
              Trace.span Trace.Postopt "sja" (fun _ -> ()));
          Trace.span Trace.Step "s1" (fun _ -> ());
          Trace.span Trace.Step "s2" (fun _ ->
              Trace.span Trace.Request "rq" (fun _ -> ()))));
  Trace.spans c

let test_tree_structure () =
  let spans = nested_spans () in
  match Analyze.tree spans with
  | [ root ] ->
    Alcotest.(check string) "root" "run" root.Analyze.span.Trace.name;
    Alcotest.(check int) "root children" 3 (List.length root.Analyze.children);
    let names =
      List.map (fun n -> n.Analyze.span.Trace.name) root.Analyze.children
    in
    Alcotest.(check (list string)) "child order" [ "opt"; "s1"; "s2" ] names
  | forest -> Alcotest.failf "expected one root, got %d" (List.length forest)

let test_flatten_is_id_order () =
  let spans = nested_spans () in
  let ids = List.map (fun s -> s.Trace.id) (Analyze.flatten (Analyze.tree spans)) in
  Alcotest.(check (list int)) "preorder = id order" [ 0; 1; 2; 3; 4; 5 ] ids

(* A sub-trace whose parent span was not captured keeps its spans as
   roots instead of dropping them. *)
let test_tree_dangling_parent () =
  let spans = nested_spans () in
  let without_root =
    List.filter (fun s -> s.Trace.name <> "run") spans
  in
  let forest = Analyze.tree without_root in
  Alcotest.(check int) "three dangling roots" 3 (List.length forest)

(* --- critical path on hand-built schedules ------------------------------- *)

let task ?(deps = []) ?(cond = None) ~id ~server ~start ~finish () =
  {
    Analyze.id;
    server;
    start;
    finish;
    deps;
    label = Printf.sprintf "t%d" id;
    cond;
  }

(* Two servers; task 2 waits on a dependency, task 3 queues behind 2 on
   server 1. Path: 0 -> 2 (dep) -> 3 (queue). *)
let diamond =
  [
    task ~id:0 ~server:0 ~start:0.0 ~finish:10.0 ();
    task ~id:1 ~server:1 ~start:0.0 ~finish:4.0 ();
    task ~id:2 ~server:1 ~deps:[ 0; 1 ] ~start:10.0 ~finish:14.0 ();
    task ~id:3 ~server:1 ~start:14.0 ~finish:21.0 ();
  ]

let test_critical_path_edges () =
  let path = Analyze.critical_path diamond in
  Alcotest.(check (float 1e-9)) "total = makespan" path.Analyze.makespan
    path.Analyze.total;
  let shape =
    List.map
      (fun h ->
        ( h.Analyze.task.Analyze.id,
          match h.Analyze.edge with
          | Analyze.Start -> "start"
          | Analyze.Dep d -> Printf.sprintf "dep %d" d
          | Analyze.Queue q -> Printf.sprintf "queue %d" q ))
      path.Analyze.hops
  in
  Alcotest.(check (list (pair int string)))
    "hops"
    [ (0, "start"); (2, "dep 0"); (3, "queue 2") ]
    shape

let test_critical_path_empty () =
  let path = Analyze.critical_path [] in
  Alcotest.(check int) "no hops" 0 (List.length path.Analyze.hops);
  Alcotest.(check (float 0.0)) "zero" 0.0 path.Analyze.total

let test_source_loads () =
  match Analyze.source_loads diamond with
  | [ s0; s1 ] ->
    Alcotest.(check int) "s0 requests" 1 s0.Analyze.requests;
    Alcotest.(check (float 1e-9)) "s0 busy" 10.0 s0.Analyze.busy;
    Alcotest.(check (float 1e-9)) "s0 util" (10.0 /. 21.0) s0.Analyze.utilization;
    Alcotest.(check int) "s1 requests" 3 s1.Analyze.requests;
    Alcotest.(check (float 1e-9)) "s1 busy" 15.0 s1.Analyze.busy;
    (* Task 3 was ready at 0 but started at 14. *)
    Alcotest.(check (float 1e-9)) "s1 queue wait" 14.0 s1.Analyze.queue_wait;
    Alcotest.(check (float 1e-9)) "s1 on-path" 11.0 s1.Analyze.on_path
  | loads -> Alcotest.failf "expected 2 sources, got %d" (List.length loads)

let test_blame_shares_sum_to_one () =
  let path = Analyze.critical_path diamond in
  let total =
    List.fold_left (fun acc b -> acc +. b.Analyze.share) 0.0
      (Analyze.blame_sources path)
  in
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 total;
  (* No task carries a condition, so condition blame is empty. *)
  Alcotest.(check int) "no cond blame" 0 (List.length (Analyze.blame_conds path))

let test_to_timeline_round_trip () =
  let timeline = Analyze.to_timeline diamond in
  let back = Analyze.of_timeline timeline in
  Alcotest.(check int) "same size" (List.length diamond) (List.length back);
  List.iter2
    (fun (a : Analyze.task) (b : Analyze.task) ->
      Alcotest.(check int) "id" a.Analyze.id b.Analyze.id;
      Alcotest.(check (float 0.0)) "start" a.Analyze.start b.Analyze.start;
      Alcotest.(check (float 0.0)) "finish" a.Analyze.finish b.Analyze.finish)
    (List.sort compare diamond)
    (List.sort compare back)

(* --- schedules from real runs -------------------------------------------- *)

let dmv_spec = { Workload.default_spec with Workload.n_sources = 4; seed = 7 }

let traced_run ?(spec = dmv_spec) ?(algo = Optimizer.Sja_plus) () =
  let instance = Workload.generate spec in
  let mediator =
    Mediator.create_exn (Array.to_list instance.Workload.sources)
  in
  let config = { Mediator.Config.default with Mediator.Config.algo } in
  match
    Trace.with_collector (Trace.create ()) (fun () ->
        Mediator.run ~config mediator instance.Workload.query)
  with
  | Ok report -> report
  | Error msg -> Alcotest.failf "mediator run failed: %s" msg

let test_tasks_of_spans_match_report () =
  let report = traced_run () in
  let tasks =
    match Analyze.tasks_of_spans report.Mediator.trace with
    | Ok tasks -> tasks
    | Error msg -> Alcotest.failf "tasks_of_spans: %s" msg
  in
  Alcotest.(check bool) "some source queries dispatched" true (tasks <> []);
  (* The schedule rebuilt from the trace reproduces the report's
     response time and critical path exactly. *)
  Alcotest.(check (float 1e-9)) "makespan = response time"
    report.Mediator.response_time (Analyze.makespan tasks);
  let path = Analyze.critical_path tasks in
  Alcotest.(check (float 1e-9)) "path total = response time"
    report.Mediator.response_time path.Analyze.total;
  Alcotest.(check (list int)) "same hops as the report"
    (List.map (fun h -> h.Analyze.task.Analyze.id) report.Mediator.critical_path.Analyze.hops)
    (List.map (fun h -> h.Analyze.task.Analyze.id) path.Analyze.hops)

(* An untraced default run: its report still carries the critical
   path, sized to the makespan, through steps it dispatched. *)
let test_every_run_has_a_critical_path () =
  let instance = Workload.generate dmv_spec in
  let mediator = Mediator.create_exn (Array.to_list instance.Workload.sources) in
  match Mediator.run mediator instance.Workload.query with
  | Error msg -> Alcotest.failf "mediator run failed: %s" msg
  | Ok report ->
    let path = report.Mediator.critical_path in
    Alcotest.(check bool) "path has hops" true (path.Analyze.hops <> []);
    Alcotest.(check (float 1e-9)) "path length = response time"
      report.Mediator.response_time path.Analyze.total;
    let dispatched =
      List.filter_map
        (fun (s : Exec.step) ->
          if Op.is_source_query s.Exec.op then
            Some (Printf.sprintf "%s := %s" (Op.dst s.Exec.op) (Op.name s.Exec.op))
          else None)
        report.Mediator.steps
    in
    List.iter
      (fun h ->
        let label = h.Analyze.task.Analyze.label in
        Alcotest.(check bool) ("hop names a dispatched step: " ^ label) true
          (List.mem label dispatched))
      path.Analyze.hops;
    Alcotest.(check bool) "drift is finite" true
      (Float.is_finite report.Mediator.cost_drift)

(* --- the makespan invariant, property-tested ----------------------------- *)

let conds (instance : Workload.instance) =
  Fusion_query.Query.conditions instance.Workload.query

let plan_gen =
  QCheck2.Gen.(pair Helpers.spec_gen (int_range 0 (List.length Optimizer.all - 1)))

let plan_print (spec, i) =
  Printf.sprintf "%s %s"
    (Optimizer.name (List.nth Optimizer.all i))
    (Helpers.spec_print spec)

(* For any workload and plan: the critical path's durations sum to the
   async executor's makespan, and every hop is justified — a [Dep] edge
   is a dataflow dependency of the task, a [Queue] edge stays on the
   same server, and each blocker finishes exactly when its successor
   starts. *)
let critical_path_invariant (spec, i) =
  let instance = Workload.generate spec in
  let env =
    Opt_env.create ~universe:spec.Workload.universe instance.Workload.sources
      instance.Workload.query
  in
  let plan = (Optimizer.optimize (List.nth Optimizer.all i) env).Optimized.plan in
  Array.iter Source.reset_meter instance.Workload.sources;
  let r =
    Exec_async.run ~sources:instance.Workload.sources ~conds:(conds instance) plan
  in
  let tasks = Analyze.of_timeline r.Exec_async.timeline in
  let path = Analyze.critical_path tasks in
  let nodes = Array.of_list (Plan_compile.dataflow plan) in
  let sums = Float.abs (path.Analyze.total -. r.Exec_async.timeline.Fusion_net.Sim.makespan) < 1e-6 in
  let rec chain = function
    | [] | [ _ ] -> true
    | prev :: (next :: _ as rest) ->
      let justified =
        match next.Analyze.edge with
        | Analyze.Start -> false (* only the first hop may start the chain *)
        | Analyze.Dep d ->
          let _, _, deps = nodes.(next.Analyze.task.Analyze.id) in
          d = prev.Analyze.task.Analyze.id && List.mem d deps
        | Analyze.Queue q ->
          q = prev.Analyze.task.Analyze.id
          && prev.Analyze.task.Analyze.server = next.Analyze.task.Analyze.server
      in
      justified
      && Float.abs (prev.Analyze.task.Analyze.finish -. next.Analyze.task.Analyze.start)
         < 1e-6
      && chain rest
  in
  let first_ok =
    match path.Analyze.hops with
    | [] -> tasks = []
    | first :: _ -> first.Analyze.edge = Analyze.Start
  in
  sums && first_ok && chain path.Analyze.hops

let critical_path_matches_makespan =
  Helpers.qtest ~count:60 "critical path sums to the makespan" plan_gen plan_print
    critical_path_invariant

(* Rebuilding the schedule from the recorded spans gives the same tasks
   as reading the timeline directly. *)
let spans_agree_with_timeline (spec, i) =
  let instance = Workload.generate spec in
  let env =
    Opt_env.create ~universe:spec.Workload.universe instance.Workload.sources
      instance.Workload.query
  in
  let plan = (Optimizer.optimize (List.nth Optimizer.all i) env).Optimized.plan in
  let collector = Trace.create () in
  let r =
    Trace.with_collector collector (fun () ->
        Array.iter Source.reset_meter instance.Workload.sources;
        Exec_async.run ~sources:instance.Workload.sources ~conds:(conds instance)
          plan)
  in
  let from_timeline = Analyze.of_timeline r.Exec_async.timeline in
  match Analyze.tasks_of_spans (Trace.spans collector) with
  | Error _ -> false
  | Ok from_spans ->
    List.length from_spans = List.length from_timeline
    && List.for_all2
         (fun (a : Analyze.task) (b : Analyze.task) ->
           a.Analyze.id = b.Analyze.id
           && a.Analyze.server = b.Analyze.server
           && a.Analyze.deps = b.Analyze.deps
           && Float.abs (a.Analyze.start -. b.Analyze.start) < 1e-9
           && Float.abs (a.Analyze.finish -. b.Analyze.finish) < 1e-9)
         (List.sort compare from_spans)
         (List.sort compare from_timeline)

let trace_rebuilds_timeline =
  Helpers.qtest ~count:40 "trace spans rebuild the timeline" plan_gen plan_print
    spans_agree_with_timeline

(* --- summaries ----------------------------------------------------------- *)

let test_summary_percentiles () =
  let s = Summary.create () in
  for i = 1 to 100 do
    Summary.add s ~cost:(float_of_int i) ~response_time:(float_of_int i) ()
  done;
  let p = Summary.latency_percentiles s in
  Alcotest.(check int) "n" 100 p.Summary.n;
  Alcotest.(check (float 0.0)) "max" 100.0 p.Summary.max;
  Alcotest.(check (float 1e-9)) "mean" 50.5 p.Summary.mean;
  Alcotest.(check bool) "p50 near the median" true
    (Float.abs (p.Summary.p50 -. 50.0) <= 2.0);
  Alcotest.(check bool) "p90 near 90" true (Float.abs (p.Summary.p90 -. 90.0) <= 2.0);
  Alcotest.(check bool) "p99 near 99" true (Float.abs (p.Summary.p99 -. 99.0) <= 2.0);
  Alcotest.(check bool) "percentiles ordered" true
    (p.Summary.p50 <= p.Summary.p90 && p.Summary.p90 <= p.Summary.p99)

let test_summary_empty () =
  let s = Summary.create () in
  let p = Summary.cost_percentiles s in
  Alcotest.(check int) "no runs" 0 p.Summary.n;
  Alcotest.(check (float 0.0)) "p99 of nothing" 0.0 p.Summary.p99;
  Alcotest.(check int) "no drift groups" 0 (List.length (Summary.drift s))

let test_summary_non_finite_guard () =
  let s = Summary.create () in
  Summary.add s ~cost:Float.nan ~response_time:Float.nan ();
  Summary.add s ~cost:10.0 ~response_time:Float.infinity ();
  (* Only non-finite observations: same answer as an empty summary,
     never NaN. *)
  let p = Summary.latency_percentiles s in
  Alcotest.(check int) "non-finite runs dropped" 0 p.Summary.n;
  Alcotest.(check (float 0.0)) "p99 stays 0" 0.0 p.Summary.p99;
  Summary.add s ~cost:5.0 ~response_time:20.0 ();
  let p = Summary.latency_percentiles s in
  Alcotest.(check int) "finite run counted" 1 p.Summary.n;
  Alcotest.(check bool) "p50 is finite" true (Float.is_finite p.Summary.p50);
  Alcotest.(check (float 0.0)) "max from the finite run" 20.0 p.Summary.max

let test_summary_drift () =
  let s = Summary.create () in
  (* "honest" predicted 100, ran 105; "liar" predicted 100, ran 150. *)
  Summary.add s ~plan:"honest" ~est_cost:100.0 ~cost:105.0 ~response_time:105.0 ();
  Summary.add s ~plan:"liar" ~est_cost:100.0 ~cost:150.0 ~response_time:150.0 ();
  Summary.add s ~plan:"liar" ~est_cost:100.0 ~cost:150.0 ~response_time:150.0 ();
  match Summary.drift s with
  | [ honest; liar ] ->
    Alcotest.(check string) "keys sorted" "honest" honest.Summary.plan;
    Alcotest.(check bool) "honest not flagged" false honest.Summary.flagged;
    Alcotest.(check bool) "liar flagged" true liar.Summary.flagged;
    Alcotest.(check int) "liar runs" 2 liar.Summary.runs;
    Alcotest.(check (float 1e-9)) "liar ratio" 1.5 liar.Summary.ratio
  | groups -> Alcotest.failf "expected 2 drift groups, got %d" (List.length groups)

(* --- exporters ----------------------------------------------------------- *)

let test_chrome_is_valid_json () =
  let report = traced_run () in
  let text = Chrome.to_string report.Mediator.trace in
  let json = Helpers.check_ok (Json.of_string text) in
  match Json.member "traceEvents" json with
  | Some (Json.List events) ->
    Alcotest.(check bool) "has events" true (events <> []);
    List.iter
      (fun ev ->
        let field name = Option.is_some (Json.member name ev) in
        Alcotest.(check bool) "ph" true (field "ph");
        Alcotest.(check bool) "pid" true (field "pid");
        Alcotest.(check bool) "name" true (field "name");
        match Option.bind (Json.member "ph" ev) Json.to_str with
        | Some "X" ->
          let dur =
            Option.bind (Json.member "dur" ev) Json.to_float |> Option.get
          in
          Alcotest.(check bool) "dur >= 0" true (dur >= 0.0)
        | Some "M" -> ()
        | ph -> Alcotest.failf "unexpected phase %s" (Option.value ~default:"?" ph))
      events
  | _ -> Alcotest.fail "no traceEvents array"

let test_chrome_schedule_thread_per_source () =
  let report = traced_run () in
  let json = Chrome.of_spans report.Mediator.trace in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List events) -> events
    | _ -> Alcotest.fail "no traceEvents"
  in
  (* Every dispatched step appears in the schedule process (pid 1). *)
  let schedule_events =
    List.filter
      (fun ev ->
        Option.bind (Json.member "pid" ev) Json.to_int = Some 1
        && Option.bind (Json.member "ph" ev) Json.to_str = Some "X")
      events
  in
  let tasks =
    Helpers.check_ok
      (Result.map_error (fun e -> e) (Analyze.tasks_of_spans report.Mediator.trace))
  in
  Alcotest.(check int) "one schedule event per dispatched task"
    (List.length tasks) (List.length schedule_events)

let test_prom_exposition () =
  let r = Metrics.create () in
  Metrics.incr r ~labels:[ ("source", "R1") ] "fusion_requests_total";
  Metrics.incr r ~labels:[ ("source", "R1") ] "fusion_requests_total";
  Metrics.gauge r "fusion_up" 1.0;
  Metrics.observe r ~spec:{ Metrics.lo = 0; hi = 100; buckets = 4 } "fusion_sz" 10;
  Metrics.observe r ~spec:{ Metrics.lo = 0; hi = 100; buckets = 4 } "fusion_sz" 80;
  let text = Prom.of_registry r in
  let has needle =
    Alcotest.(check bool) needle true
      (Option.is_some (Str_find.find_substring text needle))
  in
  has "# TYPE fusion_requests_total counter";
  has "fusion_requests_total{source=\"R1\"} 2";
  has "# TYPE fusion_up gauge";
  has "# TYPE fusion_sz histogram";
  has "fusion_sz_bucket{le=\"+Inf\"} 2";
  has "fusion_sz_count 2"

let suite =
  [
    Alcotest.test_case "span tree structure" `Quick test_tree_structure;
    Alcotest.test_case "flatten is id order" `Quick test_flatten_is_id_order;
    Alcotest.test_case "dangling parents stay roots" `Quick test_tree_dangling_parent;
    Alcotest.test_case "critical path edges" `Quick test_critical_path_edges;
    Alcotest.test_case "critical path of nothing" `Quick test_critical_path_empty;
    Alcotest.test_case "source loads" `Quick test_source_loads;
    Alcotest.test_case "blame shares" `Quick test_blame_shares_sum_to_one;
    Alcotest.test_case "timeline round trip" `Quick test_to_timeline_round_trip;
    Alcotest.test_case "tasks from a traced run" `Quick test_tasks_of_spans_match_report;
    Alcotest.test_case "every run has a critical path" `Quick
      test_every_run_has_a_critical_path;
    critical_path_matches_makespan;
    trace_rebuilds_timeline;
    Alcotest.test_case "summary percentiles" `Quick test_summary_percentiles;
    Alcotest.test_case "summary of nothing" `Quick test_summary_empty;
    Alcotest.test_case "summary drops non-finite runs" `Quick
      test_summary_non_finite_guard;
    Alcotest.test_case "summary drift" `Quick test_summary_drift;
    Alcotest.test_case "chrome export is valid json" `Quick test_chrome_is_valid_json;
    Alcotest.test_case "chrome schedule view" `Quick test_chrome_schedule_thread_per_source;
    Alcotest.test_case "prometheus exposition" `Quick test_prom_exposition;
  ]
