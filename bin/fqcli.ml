(* fqcli — command-line driver for the fusion-query mediator.

   Subcommands:
     gen      generate a synthetic workload as CSV source files
     run      run a fusion query (SQL) over CSV sources
     explain  optimize only; print the plan and its estimated cost
     compare  run all algorithms over the same sources and query

   Source files are CSVs with a typed header (see Csv_io); all files in
   a directory form the union view U. *)

open Cmdliner
open Fusion_core
module Workload = Fusion_workload.Workload
module Mediator = Fusion_mediator.Mediator

let ( let* ) r f = match r with Ok v -> f v | Error msg -> Error msg

(* --- shared loading ----------------------------------------------------- *)

let load_sources ~intern dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | entries ->
    let csvs =
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".csv")
      |> List.sort compare
    in
    if csvs = [] then Error (Printf.sprintf "no .csv files in %s" dir)
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | file :: rest ->
          let name = Filename.remove_extension file in
          let* relation =
            Fusion_data.Csv_io.read_file ~name ~intern (Filename.concat dir file)
          in
          go (Fusion_source.Source.create relation :: acc) rest
      in
      go [] csvs

let with_mediator location f =
  (* One dictionary scope per invocation: every loaded relation encodes
     its merge values in the same intern table. *)
  let intern = Fusion_data.Intern.create ~name:"catalog" () in
  let* sources =
    match location with
    | `Dir dir -> load_sources ~intern dir
    | `Catalog path -> Fusion_source.Catalog.load ~intern path
  in
  Logs.debug (fun m ->
      m "dictionary: %d distinct merge values across %d sources"
        (Fusion_data.Intern.size intern) (List.length sources));
  let* mediator = Mediator.create sources in
  f mediator

let report_result = function
  | Ok () -> 0
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    1

let verbose_arg =
  let doc = "Log the mediator's optimization and execution steps to stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

(* Run [f] with a fresh trace collector and metrics registry installed,
   then dump both to [path] as JSON lines (parseable back with
   [Fusion_obs.Jsonl.parse]). *)
let with_tracing trace f =
  match trace with
  | None -> f ()
  | Some path ->
    let collector = Fusion_obs.Trace.create () in
    let registry = Fusion_obs.Metrics.create () in
    let result =
      Fusion_obs.Trace.with_collector collector (fun () ->
          Fusion_obs.Metrics.with_registry registry f)
    in
    let spans = Fusion_obs.Trace.spans collector in
    (* The run itself already succeeded; losing the trace file is worth
       a warning, not a crash. *)
    (try
       Fusion_obs.Jsonl.write_file path
         ~metrics:(Fusion_obs.Metrics.snapshot registry)
         spans;
       Format.eprintf "trace: %d spans written to %s@." (List.length spans) path
     with Sys_error msg -> Format.eprintf "trace: cannot write %s: %s@." path msg);
    result

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* --- common arguments --------------------------------------------------- *)

let dir_arg =
  let doc = "Directory holding one .csv file per source." in
  Arg.(value & opt (some dir) None & info [ "d"; "sources" ] ~docv:"DIR" ~doc)

let catalog_arg =
  let doc =
    "Federation catalog file declaring sources, capabilities and network profiles      (alternative to --sources)."
  in
  Arg.(value & opt (some file) None & info [ "c"; "catalog" ] ~docv:"FILE" ~doc)

let location_term =
  let combine dir catalog =
    match dir, catalog with
    | Some d, None -> Ok (`Dir d)
    | None, Some c -> Ok (`Catalog c)
    | None, None -> Error "one of --sources or --catalog is required"
    | Some _, Some _ -> Error "--sources and --catalog are mutually exclusive"
  in
  Term.(const combine $ dir_arg $ catalog_arg)

let sql_arg =
  let doc = "The fusion query, in SQL over the union view U." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)

let algo_conv =
  let parse s = Optimizer.of_name s |> Result.map_error (fun m -> `Msg m) in
  let print ppf a = Format.pp_print_string ppf (Optimizer.name a) in
  Arg.conv (parse, print)

let algo_arg =
  let doc = "Optimization algorithm: filter, sj, sja, sja+, greedy-sj, greedy-sja." in
  Arg.(value & opt algo_conv Optimizer.Sja_plus & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)

let sample_arg =
  let doc =
    "Estimate statistics from a sample of this many tuples per source instead of exact \
     scans."
  in
  Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"N" ~doc)

let hist_arg =
  let doc = "Estimate statistics from per-attribute histograms with this many buckets." in
  Arg.(value & opt (some int) None & info [ "hist" ] ~docv:"B" ~doc)

let stats_of_sample sample hist =
  match sample, hist with
  | Some size, _ -> Opt_env.Sampled (size, Fusion_stats.Prng.create 1)
  | None, Some buckets -> Opt_env.Histogram buckets
  | None, None -> Opt_env.Exact

let runtime_conv =
  let parse s =
    Fusion_rt.Runtime.spec_of_string s |> Result.map_error (fun m -> `Msg m)
  in
  let print ppf spec = Format.pp_print_string ppf (Fusion_rt.Runtime.spec_name spec) in
  Arg.conv (parse, print)

let runtime_arg =
  let doc =
    "Execution runtime: source queries are dispatched concurrently and the run \
     reports its total cost and makespan. $(b,sim) charges model cost units on the \
     discrete-event simulator; $(b,domains) (or $(b,domains:N)) dispatches source \
     queries on N OCaml worker domains and measures wall-clock seconds."
  in
  Arg.(value & opt runtime_conv `Sim & info [ "runtime" ] ~docv:"RT" ~doc)

(* Least-squares fit of a wall-clock cost profile from the runtime's
   per-request observations: the measured seconds play the role of
   cost, so the fitted parameters are in seconds. *)
let print_calibration observations =
  let obs =
    List.map
      (fun ((_ : int), (t : Fusion_net.Meter.totals), wall) ->
        {
          Fusion_cost.Calibration.requests = t.Fusion_net.Meter.requests;
          items_sent = t.Fusion_net.Meter.items_sent;
          items_received = t.Fusion_net.Meter.items_received;
          tuples_received = t.Fusion_net.Meter.tuples_received;
          cost = wall;
        })
      observations
  in
  match Fusion_cost.Calibration.fit obs with
  | Ok profile ->
    Format.printf "wall-clock profile (seconds, %d observations): %a@."
      (List.length obs) Fusion_net.Profile.pp profile
  | Error msg ->
    Format.printf "wall-clock calibration: %s (%d observations)@." msg (List.length obs)

(* --- run ----------------------------------------------------------------- *)

let shards_arg =
  let doc = "Shard the mediator: partition the catalog by merge-id hash across this many coordinator shards and union their answers." in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let replicas_arg =
  let doc =
    "Replicate every shard-local source this many times (a catalog's per-source \
     $(b,replicas) keys raise individual groups further)."
  in
  Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"K" ~doc)

let routing_conv =
  let parse s =
    match Fusion_dist.Replica.routing_of_string s with
    | Some r -> Ok r
    | None -> Error (`Msg (Printf.sprintf "unknown routing %S (expected primary, round-robin or least-cost)" s))
  in
  let print ppf r = Format.pp_print_string ppf (Fusion_dist.Replica.routing_name r) in
  Arg.conv (parse, print)

let routing_arg =
  let doc = "Replica selection policy: $(b,primary), $(b,round-robin) or $(b,least-cost)." in
  Arg.(value & opt routing_conv Fusion_dist.Replica.Primary & info [ "routing" ] ~docv:"POLICY" ~doc)

let hedge_arg =
  let doc =
    "Hedge straggling requests: duplicate a request onto the best alternative replica \
     when the routed replica's predicted finish exceeds FACTOR times the alternative's."
  in
  Arg.(value & opt (some float) None & info [ "hedge" ] ~docv:"FACTOR" ~doc)

(* The distributed run path: build the sharded, replicated cluster the
   flags describe and route the query through the coordinator. *)
let run_sharded ~location ~sql ~algo ~sample ~hist ~trace ~runtime ~shards ~replicas
    ~routing ~hedge =
  let intern = Fusion_data.Intern.create ~name:"catalog" () in
  let* groups =
    match location with
    | `Dir dir ->
      Result.map (List.map (fun s -> (s, replicas))) (load_sources ~intern dir)
    | `Catalog path ->
      Result.map
        (List.map (fun (s, k) -> (s, max k replicas)))
        (Fusion_source.Catalog.load_groups ~intern path)
  in
  let* cluster = Fusion_dist.Cluster.of_groups ~shards groups in
  let config =
    {
      Fusion_dist.Coordinator.Config.default with
      Fusion_dist.Coordinator.Config.algo;
      stats = stats_of_sample sample hist;
      routing;
      hedge;
      runtime;
    }
  in
  with_tracing trace (fun () ->
      let* report = Fusion_dist.Coordinator.run_sql ~config cluster sql in
      Format.printf "%a@." Fusion_dist.Coordinator.pp_report report;
      Ok ())

let run_cmd =
  let plan_arg =
    let doc = "Execute this saved plan (see 'explain --save-plan') instead of optimizing." in
    Arg.(value & opt (some file) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let trace_arg =
    let doc =
      "Record a structured trace of the run (spans for optimizer phases, plan steps \
       and source requests, plus metrics) and write it to this file as JSON lines."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let action location sql algo sample hist runtime plan_file trace shards
      replicas routing hedge verbose =
    setup_logs verbose;
    if shards > 1 || replicas > 1 || hedge <> None then
      report_result
        (let* location = location in
         if shards < 1 then Error "--shards must be at least 1"
         else if replicas < 1 then Error "--replicas must be at least 1"
         else if plan_file <> None then Error "--plan is not supported with --shards/--replicas"
         else
           run_sharded ~location ~sql ~algo ~sample ~hist ~trace ~runtime ~shards
             ~replicas ~routing ~hedge)
    else
    report_result
      (let* location = location in
       let* () =
         match runtime, trace with
         | `Domains _, Some _ ->
           Error
             "--trace spans a single simulated clock and is not available on the \
              domains runtime; drop --trace or use --runtime sim"
         | _ -> Ok ()
       in
       with_mediator location (fun mediator ->
           with_tracing trace (fun () ->
           match plan_file with
           | None ->
             let config =
               {
                 Mediator.Config.default with
                 Mediator.Config.algo;
                 stats = stats_of_sample sample hist;
                 runtime;
               }
             in
             (* The report's queue-wait breakdown needs span data;
                collect it privately unless --trace already installs a
                collector. The collector's span stack assumes one clock
                and one fibre, so skip it on the domains runtime. *)
             let select () = Mediator.select_sql ~config mediator sql in
             let* result =
               if trace = None && runtime = `Sim then
                 Fusion_obs.Trace.with_collector (Fusion_obs.Trace.create ()) select
               else select ()
             in
             Format.printf "%a@." Mediator.pp_report result.Mediator.report;
             Format.printf "makespan: %a (total cost %.1f)@."
               (Mediator.pp_duration runtime)
               result.Mediator.report.Mediator.response_time
               result.Mediator.report.Mediator.actual_cost;
             (match
                Fusion_obs.Analyze.tasks_of_spans result.Mediator.report.Mediator.trace
              with
             | Ok tasks ->
               let sources = Mediator.sources mediator in
               let source_name j =
                 if j >= 0 && j < Array.length sources then
                   Fusion_source.Source.name sources.(j)
                 else Printf.sprintf "R%d" (j + 1)
               in
               List.iter
                 (fun (l : Fusion_obs.Analyze.source_load) ->
                   Format.printf "  %-8s queue-wait %6.1f  (%d requests, busy %.1f)@."
                     (source_name l.Fusion_obs.Analyze.server)
                     l.Fusion_obs.Analyze.queue_wait l.Fusion_obs.Analyze.requests
                     l.Fusion_obs.Analyze.busy)
                 (Fusion_obs.Analyze.source_loads tasks)
             | Error _ -> ());
             if List.length result.Mediator.columns > 1 then begin
               Format.printf "@.%s@." (String.concat " | " result.Mediator.columns);
               List.iter
                 (fun row ->
                   Format.printf "%s@."
                     (String.concat " | "
                        (List.map Fusion_data.Value.to_string row)))
                 result.Mediator.rows;
               Format.printf "(%d rows; phase-2 fetch cost %.1f)@."
                 (List.length result.Mediator.rows)
                 result.Mediator.fetch_cost
             end;
             Ok ()
           | Some path ->
             let schema = Mediator.schema mediator in
             let* query = Fusion_query.Sql.parse_fusion ~schema ~union:"U" sql in
             let text = In_channel.with_open_text path In_channel.input_all in
             let* plan = Fusion_plan.Plan_text.of_string text in
             let config = { Mediator.Config.default with Mediator.Config.runtime } in
             let conds = Fusion_query.Query.conditions query in
             let* x = Mediator.execute ~config mediator ~conds plan in
             Format.printf "pinned plan executed: cost %.1f, answer (%d items): %a@."
               x.Mediator.x_cost
               (Fusion_data.Item_set.cardinal x.Mediator.x_answer)
               Fusion_data.Item_set.pp x.Mediator.x_answer;
             Ok ())))
  in
  let doc = "run a fusion query over CSV sources" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const action $ location_term $ sql_arg $ algo_arg $ sample_arg $ hist_arg
          $ runtime_arg $ plan_arg $ trace_arg
          $ shards_arg $ replicas_arg $ routing_arg $ hedge_arg $ verbose_arg)

(* --- explain ------------------------------------------------------------- *)

let explain_cmd =
  let analyze_arg =
    let doc = "Also execute the plan and print estimated vs actual cost and cardinality per step." in
    Arg.(value & flag & info [ "analyze" ] ~doc)
  in
  let save_arg =
    let doc = "Also save the chosen plan to this file (re-runnable via 'run --plan')." in
    Arg.(value & opt (some string) None & info [ "save-plan" ] ~docv:"FILE" ~doc)
  in
  let dot_arg =
    let doc = "Write the plan's dataflow as Graphviz DOT to this file." in
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)
  in
  let orderings_arg =
    let doc = "Also list the K cheapest condition orderings of the SJA search." in
    Arg.(value & opt (some int) None & info [ "orderings" ] ~docv:"K" ~doc)
  in
  let action location sql algo sample hist analyze save dot orderings =
    report_result
      (let* location = location in
       with_mediator location (fun mediator ->
           let schema = Mediator.schema mediator in
           let* query = Fusion_query.Sql.parse_fusion ~schema ~union:"U" sql in
           let env =
             Opt_env.create ~stats:(stats_of_sample sample hist)
               (Mediator.sources mediator) query
           in
           let optimized = Optimizer.optimize algo env in
           Option.iter
             (fun path ->
               Out_channel.with_open_text path (fun oc ->
                   Out_channel.output_string oc
                     (Fusion_plan.Plan_text.to_string optimized.Optimized.plan)))
             save;
           Option.iter
             (fun path ->
               let source_name j =
                 Fusion_source.Source.name (Mediator.sources mediator).(j)
               in
               Out_channel.with_open_text path (fun oc ->
                   Out_channel.output_string oc
                     (Fusion_plan.Plan_dot.to_string ~source_name optimized.Optimized.plan)))
             dot;
           let source_name j =
             Fusion_source.Source.name (Mediator.sources mediator).(j)
           in
           Option.iter
             (fun k ->
               Format.printf "cheapest condition orderings:@.";
               List.iteri
                 (fun rank (ordering, cost) ->
                   if rank < k then
                     Format.printf "  %2d. [%s]  est. cost %.1f@." (rank + 1)
                       (String.concat "; "
                          (List.map
                             (fun c -> Printf.sprintf "c%d" (c + 1))
                             (Array.to_list ordering)))
                       cost)
                 (Algorithms.sja_trace env);
               Format.printf "@.")
             orderings;
           if not analyze then begin
             Format.printf "%a@." (Optimized.pp ~source_name) optimized;
             Ok ()
           end
           else begin
             let* x =
               Mediator.execute mediator ~conds:env.Opt_env.conds optimized.Optimized.plan
             in
             let explain =
               Fusion_plan.Explain.analyze ~model:env.Opt_env.model ~est:env.Opt_env.est
                 ~sources:env.Opt_env.sources ~conds:env.Opt_env.conds
                 optimized.Optimized.plan x.Mediator.x_steps
             in
             Format.printf "%a@." (Fusion_plan.Explain.pp ~source_name) explain;
             Ok ()
           end))
  in
  let doc = "optimize only; print the chosen plan and its estimated cost" in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const action $ location_term $ sql_arg $ algo_arg $ sample_arg $ hist_arg
          $ analyze_arg $ save_arg $ dot_arg $ orderings_arg)

(* --- compare ------------------------------------------------------------- *)

let compare_cmd =
  let action location sql sample hist =
    report_result
      (let* location = location in
       with_mediator location (fun mediator ->
           Format.printf "%-12s %12s %12s %9s@." "algorithm" "est. cost" "actual cost"
             "answers";
           let rec go = function
             | [] -> Ok ()
             | algo :: rest ->
               let* report =
                 Mediator.run_sql
                   ~config:
                     {
                       Mediator.Config.default with
                       Mediator.Config.algo;
                       stats = stats_of_sample sample hist;
                     }
                   mediator sql
               in
               Format.printf "%-12s %12.1f %12.1f %9d@." (Optimizer.name algo)
                 report.Mediator.optimized.Optimized.est_cost report.Mediator.actual_cost
                 (Fusion_data.Item_set.cardinal report.Mediator.answer);
               go rest
           in
           go Optimizer.all))
  in
  let doc = "run every algorithm over the same query and tabulate costs" in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const action $ location_term $ sql_arg $ sample_arg $ hist_arg)

(* --- profile ------------------------------------------------------------- *)

module Analyze = Fusion_obs.Analyze
module Summary = Fusion_obs.Summary

let profile_cmd =
  let runs_arg =
    let doc =
      "Execute the query this many times and also report p50/p90/p99 latency and cost \
       percentiles over the runs."
    in
    Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let trace_arg =
    let doc = "Also write the recorded trace to this file as JSON lines." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let chrome_arg =
    let doc =
      "Also write the trace in Chrome trace-event format (open in Perfetto or \
       chrome://tracing) to this file."
    in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  let gantt_arg =
    let doc = "Also print the per-source Gantt chart of the schedule." in
    Arg.(value & flag & info [ "gantt" ] ~doc)
  in
  let action location sql algo sample hist runs trace chrome gantt verbose =
    setup_logs verbose;
    report_result
      (let* location = location in
       with_mediator location (fun mediator ->
           if runs < 1 then Error "profile: --runs must be at least 1"
           else begin
             let source_name j =
               Fusion_source.Source.name (Mediator.sources mediator).(j)
             in
             let config =
               {
                 Mediator.Config.default with
                 Mediator.Config.algo;
                 stats = stats_of_sample sample hist;
               }
             in
             let traced_run () =
               Fusion_obs.Trace.with_collector (Fusion_obs.Trace.create ()) (fun () ->
                   Mediator.run_sql ~config mediator sql)
             in
             (* First run: the one we profile in detail. *)
             let registry = Fusion_obs.Metrics.create () in
             let* report = Fusion_obs.Metrics.with_registry registry traced_run in
             let est = report.Mediator.optimized.Optimized.est_cost in
             Format.printf "algorithm: %s@." (Optimizer.name report.Mediator.algo);
             Format.printf
               "est. cost %.1f, actual cost %.1f (drift x%.2f), makespan %.1f@." est
               report.Mediator.actual_cost report.Mediator.cost_drift
               report.Mediator.response_time;
             if report.Mediator.partial then
               Format.printf "warning: answer is partial (a source was unreachable)@.";
             Format.printf "%a@." (Analyze.pp_path ~source_name)
               report.Mediator.critical_path;
             let* tasks = Analyze.tasks_of_spans report.Mediator.trace in
             if tasks <> [] then begin
               Format.printf "@.%-6s %8s %8s %6s %10s %9s@." "source" "requests" "busy"
                 "util" "queue-wait" "on-path";
               List.iter
                 (fun (l : Analyze.source_load) ->
                   Format.printf "%-6s %8d %8.1f %5.0f%% %10.1f %9.1f@."
                     (source_name l.Analyze.server) l.Analyze.requests l.Analyze.busy
                     (100.0 *. l.Analyze.utilization)
                     l.Analyze.queue_wait l.Analyze.on_path)
                 (Analyze.source_loads tasks);
               let path = Analyze.critical_path tasks in
               let blame title entries =
                 if entries <> [] then begin
                   Format.printf "@.%s@." title;
                   List.iter
                     (fun (b : Analyze.blame) ->
                       Format.printf "  %-8s %8.1f  %5.1f%%  (%d hops)@." b.Analyze.key
                         b.Analyze.busy
                         (100.0 *. b.Analyze.share)
                         b.Analyze.hops)
                     entries
                 end
               in
               blame "critical path by source:" (Analyze.blame_sources ~name:source_name path);
               blame "critical path by condition:" (Analyze.blame_conds path)
             end;
             if gantt && tasks <> [] then
               Format.printf "@.%a@."
                 (fun ppf -> Fusion_net.Sim.pp_gantt ~server_name:source_name ppf)
                 (Analyze.to_timeline tasks);
             Option.iter
               (fun path ->
                 Fusion_obs.Jsonl.write_file path
                   ~metrics:(Fusion_obs.Metrics.snapshot registry)
                   report.Mediator.trace;
                 Format.printf "@.trace: %d spans written to %s@."
                   (List.length report.Mediator.trace)
                   path)
               trace;
             Option.iter
               (fun path ->
                 Fusion_obs.Chrome.write_file path ~source_name report.Mediator.trace;
                 Format.printf "@.chrome trace written to %s@." path)
               chrome;
             (* Remaining runs: aggregate percentiles and drift. *)
             if runs <= 1 then Ok ()
             else begin
               let summary = Summary.create () in
               let record (r : Mediator.report) =
                 Summary.add summary
                   ~plan:(Optimizer.name r.Mediator.algo)
                   ~est_cost:r.Mediator.optimized.Optimized.est_cost
                   ~cost:r.Mediator.actual_cost ~response_time:r.Mediator.response_time
                   ()
               in
               record report;
               let rec go i =
                 if i >= runs then Ok ()
                 else
                   let* r = traced_run () in
                   record r;
                   go (i + 1)
               in
               let* () = go 1 in
               Format.printf "@.%d runs:@.%a@." runs Summary.pp summary;
               Ok ()
             end
           end))
  in
  let doc =
    "profile a fusion query: run it concurrently and print the critical path, \
     per-source utilization and blame breakdown"
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const action $ location_term $ sql_arg $ algo_arg $ sample_arg $ hist_arg
          $ runs_arg $ trace_arg $ chrome_arg $ gantt_arg $ verbose_arg)

(* --- trace --------------------------------------------------------------- *)

let trace_cmd =
  let file_arg =
    let doc = "Trace file in JSON-lines format (written by 'run --trace' or 'profile --trace')." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Write the converted output to this file instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let emit out text =
    match out with
    | None -> print_string text
    | Some path -> Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)
  in
  let cat_cmd =
    let action file =
      report_result
        (let* spans, samples = Fusion_obs.Jsonl.read_file file in
         Format.printf "%a@." Analyze.pp_tree (Analyze.tree spans);
         if samples <> [] then begin
           Format.printf "@.metrics:@.";
           List.iter
             (fun s -> Format.printf "  %a@." Fusion_obs.Metrics.pp_sample s)
             samples
         end;
         Ok ())
    in
    let doc = "print a trace file as an indented span tree (plus its metrics)" in
    Cmd.v (Cmd.info "cat" ~doc) Term.(const action $ file_arg)
  in
  let critpath_cmd =
    let action file =
      report_result
        (let* spans, _ = Fusion_obs.Jsonl.read_file file in
         let* tasks = Analyze.tasks_of_spans spans in
         if tasks = [] then
           Error
             "this trace holds no dispatched source query (every step may have been a \
              cache hit)"
         else begin
           Format.printf "%a@."
             (fun ppf -> Analyze.pp_path ppf)
             (Analyze.critical_path tasks);
           Ok ()
         end)
    in
    let doc = "recompute and print the critical path of a recorded concurrent run" in
    Cmd.v (Cmd.info "critpath" ~doc) Term.(const action $ file_arg)
  in
  let chrome_cmd =
    let action file out =
      report_result
        (let* spans, _ = Fusion_obs.Jsonl.read_file file in
         emit out (Fusion_obs.Chrome.to_string spans);
         Ok ())
    in
    let doc = "convert a trace file to Chrome trace-event JSON (Perfetto, chrome://tracing)" in
    Cmd.v (Cmd.info "chrome" ~doc) Term.(const action $ file_arg $ out_arg)
  in
  let prom_cmd =
    let action file out =
      report_result
        (let* _, samples = Fusion_obs.Jsonl.read_file file in
         emit out (Fusion_obs.Prom.of_samples samples);
         Ok ())
    in
    let doc = "export a trace file's metrics in Prometheus text-exposition format" in
    Cmd.v (Cmd.info "prom" ~doc) Term.(const action $ file_arg $ out_arg)
  in
  let doc = "inspect and convert recorded trace files" in
  Cmd.group (Cmd.info "trace" ~doc) [ cat_cmd; critpath_cmd; chrome_cmd; prom_cmd ]

(* --- gen ----------------------------------------------------------------- *)

let gen_cmd =
  let out_arg =
    let doc = "Output directory for the generated .csv files." in
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"DIR" ~doc)
  in
  let n_arg =
    let doc = "Number of sources." in
    Arg.(value & opt int 8 & info [ "n"; "sources-count" ] ~docv:"N" ~doc)
  in
  let sels_arg =
    let doc = "Per-condition selectivities (one condition per value)." in
    Arg.(value & opt (list float) [ 0.1; 0.2; 0.3 ] & info [ "selectivities" ] ~docv:"S" ~doc)
  in
  let universe_arg =
    let doc = "Number of distinct items in the world." in
    Arg.(value & opt int 2000 & info [ "universe" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let no_semijoin_arg =
    let doc = "Fraction of sources without native semijoin support." in
    Arg.(value & opt float 0.0 & info [ "no-semijoin" ] ~docv:"F" ~doc)
  in
  let slow_arg =
    let doc = "Fraction of sources with a 10x slower network profile." in
    Arg.(value & opt float 0.0 & info [ "slow" ] ~docv:"F" ~doc)
  in
  let tiny_arg =
    let doc = "Fraction of sources holding ~2% of the normal data volume." in
    Arg.(value & opt float 0.0 & info [ "tiny" ] ~docv:"F" ~doc)
  in
  let action out n sels universe seed no_semijoin slow tiny =
    report_result
      (let spec =
         {
           Workload.default_spec with
           Workload.n_sources = n;
           selectivities = Array.of_list sels;
           universe;
           seed;
           heterogeneity =
             { Workload.homogeneous with Workload.no_semijoin; slow; tiny };
         }
       in
       let instance = Workload.generate spec in
       Workload.save ~dir:out instance;
       let sql =
         Fusion_query.Query.to_sql ~union:"U"
           ~merge:(Fusion_data.Schema.merge instance.Workload.schema)
           instance.Workload.query
       in
       Format.printf
         "wrote %d sources, catalog.ini and query.sql to %s@.example query:@.  %s@."
         (Array.length instance.Workload.sources)
         out sql;
       Ok ())
  in
  let doc = "generate a synthetic workload as CSV source files + catalog" in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(const action $ out_arg $ n_arg $ sels_arg $ universe_arg $ seed_arg
          $ no_semijoin_arg $ slow_arg $ tiny_arg)

(* --- shell ----------------------------------------------------------------- *)

let shell_cmd =
  let action location =
    report_result
      (let* location = location in
       with_mediator location (fun mediator ->
           let cache = Fusion_plan.Exec.Query_cache.create () in
           let algo = ref Optimizer.Sja_plus in
           let help () =
             print_string
               "commands:\n\
               \  SELECT ...        run a fusion query (cached session)\n\
               \  .algo NAME        switch optimizer (filter, sj, sja, sja+, ...)\n\
               \  .explain SELECT.. show the plan without running it\n\
               \  .analyze SELECT.. run and show estimated vs actual per step\n\
               \  .sources          list the federation's sources\n\
               \  .stats            session cache statistics\n\
               \  .help             this text\n\
               \  .quit             leave\n"
           in
           let sources () =
             Array.iter
               (fun s -> Format.printf "  %a@." Fusion_source.Source.pp s)
               (Mediator.sources mediator)
           in
           let stats () =
             let s = Fusion_plan.Exec.Query_cache.stats cache in
             Format.printf "cache: %d hits, %d misses, %.1f cost saved@."
               s.Fusion_plan.Exec.Query_cache.hits s.Fusion_plan.Exec.Query_cache.misses
               s.Fusion_plan.Exec.Query_cache.saved_cost
           in
           let explain ~analyze sql =
             let schema = Mediator.schema mediator in
             match Fusion_query.Sql.parse_fusion ~schema ~union:"U" sql with
             | Error msg -> Format.printf "error: %s@." msg
             | Ok query -> (
               let env = Opt_env.create (Mediator.sources mediator) query in
               let optimized = Optimizer.optimize !algo env in
               let source_name j =
                 Fusion_source.Source.name (Mediator.sources mediator).(j)
               in
               if not analyze then Format.printf "%a@." (Optimized.pp ~source_name) optimized
               else
                 match
                   Mediator.execute
                     ~config:{ Mediator.Config.default with Mediator.Config.cache = Some cache }
                     mediator ~conds:env.Opt_env.conds optimized.Optimized.plan
                 with
                 | Ok x ->
                   let e =
                     Fusion_plan.Explain.analyze ~model:env.Opt_env.model
                       ~est:env.Opt_env.est ~sources:env.Opt_env.sources
                       ~conds:env.Opt_env.conds optimized.Optimized.plan x.Mediator.x_steps
                   in
                   Format.printf "%a@." (Fusion_plan.Explain.pp ~source_name) e
                 | Error msg -> Format.printf "error: %s@." msg)
           in
           let run sql =
             match
               Mediator.select_sql
                 ~config:
                   {
                     Mediator.Config.default with
                     Mediator.Config.algo = !algo;
                     cache = Some cache;
                   }
                 mediator sql
             with
             | Error msg -> Format.printf "error: %s@." msg
             | Ok result ->
               let report = result.Mediator.report in
               if List.length result.Mediator.columns = 1 then
                 Format.printf "cost %.1f, %d answers: %a@." report.Mediator.actual_cost
                   (Fusion_data.Item_set.cardinal report.Mediator.answer)
                   Fusion_data.Item_set.pp report.Mediator.answer
               else begin
                 Format.printf "%s@." (String.concat " | " result.Mediator.columns);
                 List.iter
                   (fun row ->
                     Format.printf "%s@."
                       (String.concat " | " (List.map Fusion_data.Value.to_string row)))
                   result.Mediator.rows;
                 Format.printf
                   "(%d rows; phase 1 cost %.1f, phase 2 cost %.1f)@."
                   (List.length result.Mediator.rows)
                   report.Mediator.actual_cost result.Mediator.fetch_cost
               end
           in
           let prefix p line =
             if String.length line >= String.length p && String.sub line 0 (String.length p) = p
             then Some (String.trim (String.sub line (String.length p) (String.length line - String.length p)))
             else None
           in
           Format.printf "fusion shell — %d sources; .help for commands@."
             (Array.length (Mediator.sources mediator));
           let quit = ref false in
           (try
              while not !quit do
                print_string "fq> ";
                let line = String.trim (read_line ()) in
                if line = "" then ()
                else if line = ".quit" || line = ".exit" then quit := true
                else if line = ".help" then help ()
                else if line = ".sources" then sources ()
                else if line = ".stats" then stats ()
                else
                  match prefix ".algo" line with
                  | Some name -> (
                    match Optimizer.of_name name with
                    | Ok a ->
                      algo := a;
                      Format.printf "algorithm: %s@." (Optimizer.name a)
                    | Error msg -> Format.printf "error: %s@." msg)
                  | None -> (
                    match prefix ".explain" line with
                    | Some sql -> explain ~analyze:false sql
                    | None -> (
                      match prefix ".analyze" line with
                      | Some sql -> explain ~analyze:true sql
                      | None ->
                        if String.length line > 0 && line.[0] = '.' then
                          Format.printf "unknown command %s (.help)@." line
                        else run line))
              done
            with End_of_file -> ());
           Ok ()))
  in
  let doc = "interactive fusion-query session (with the selection cache)" in
  Cmd.v (Cmd.info "shell" ~doc) Term.(const action $ location_term)

(* --- serve --------------------------------------------------------------- *)

(* A seeded open-loop serving run: N random conjunctive queries arrive
   as a Poisson stream over the shared simulated network, scheduled by
   the chosen policy; prints per-tenant goodput/latency percentiles,
   shed and cache statistics, and the conservation line the smoke test
   greps for. *)
let serve_cmd =
  let module Serve = Fusion_serve.Server in
  let queries_arg =
    let doc = "Number of queries to submit." in
    Arg.(value & opt int 200 & info [ "n"; "queries" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Poisson arrival rate (queries per simulated time unit)." in
    Arg.(value & opt float 0.01 & info [ "rate" ] ~docv:"R" ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed for query generation and arrivals." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let policy_arg =
    let doc = "Scheduling policy: fifo, priority, fair, sjf." in
    Arg.(value & opt string "fifo" & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let tenants_arg =
    let doc = "Number of tenants queries are spread across (round-robin)." in
    Arg.(value & opt int 3 & info [ "tenants" ] ~docv:"K" ~doc)
  in
  let cache_ttl_arg =
    let doc =
      "Replay completed answers for this long (simulated time); omitted: in-flight \
       request coalescing only."
    in
    Arg.(value & opt (some float) None & info [ "cache-ttl" ] ~docv:"T" ~doc)
  in
  let max_inflight_arg =
    let doc = "Admission cap on concurrently executing queries." in
    Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"M" ~doc)
  in
  let versioned_cache_arg =
    let doc =
      "Track answer-cache staleness by source version instead of the clock: \
       entries are patched or invalidated when $(b,mut) statements change a \
       source, and version-matching replays report exact staleness 0."
    in
    Arg.(value & flag & info [ "versioned-cache" ] ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-query response-time budget; arrivals that cannot meet it are shed."
    in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"D" ~doc)
  in
  let prom_arg =
    let doc = "Write the run's metrics in Prometheus exposition format to this file." in
    Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"FILE" ~doc)
  in
  let gantt_arg =
    let doc = "Print the shared network's Gantt chart after the run." in
    Arg.(value & flag & info [ "gantt" ] ~doc)
  in
  let listen_arg =
    let doc =
      "Serve real clients over TCP on this address (e.g. 127.0.0.1:7477): one SQL \
       statement per line in, one response line per statement out. Requires \
       $(b,--runtime domains); the run ends after $(b,--queries) statements."
    in
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"HOST:PORT" ~doc)
  in
  let admin_arg =
    let doc =
      "With $(b,--listen): also serve the admin HTTP endpoints ($(b,/metrics), \
       $(b,/healthz), $(b,/statusz)) on this address. Port 0 picks a free port \
       (printed on startup)."
    in
    Arg.(value & opt (some string) None & info [ "admin" ] ~docv:"HOST:PORT" ~doc)
  in
  let window_arg =
    let doc =
      "Sliding-window span (seconds of server clock) behind the live per-tenant \
       latency percentiles."
    in
    Arg.(value & opt (some float) None & info [ "window" ] ~docv:"SECS" ~doc)
  in
  let slow_threshold_arg =
    let doc =
      "Record every query slower than this many seconds of response time in the \
       structured slow-query log (surfaced on $(b,/statusz) and after the run)."
    in
    Arg.(value & opt (some float) None & info [ "slow-threshold" ] ~docv:"SECS" ~doc)
  in
  let action location queries rate seed policy tenants cache_ttl versioned_cache
      max_inflight deadline prom gantt runtime listen admin window slow_threshold
      algo verbose =
    setup_logs verbose;
    report_result
      (let* location = location in
       let* policy =
         match Serve.policy_of_name policy with
         | Some p -> Ok p
         | None ->
           Error (Printf.sprintf "unknown policy %S (expected fifo|priority|fair|sjf)" policy)
       in
       if queries < 0 then Error "--queries must be non-negative"
       else if rate <= 0.0 then Error "--rate must be positive"
       else if tenants < 1 then Error "--tenants must be >= 1"
       else
       match listen with
       | Some addr ->
         (* The TCP front end: statements arrive from sockets instead of
            the seeded generator; --rate/--tenants/--seed are unused. *)
         let module Tcp = Fusion_mediator.Tcp_front in
         let* addr = Tcp.sockaddr_of_string addr in
         let* admin =
           match admin with
           | None -> Ok None
           | Some a -> Result.map Option.some (Tcp.sockaddr_of_string a)
         in
         let* () =
           match runtime with
           | `Domains _ -> Ok ()
           | `Sim ->
             Error
               "serve --listen waits on real sockets: combine it with --runtime \
                domains (the simulated clock cannot pace a TCP connection)"
         in
         with_mediator location (fun mediator ->
             (* The front end publishes runtime/serving gauges into the
                installed registry; install one for the whole run so the
                admin scrape (and --prom) see every counter. *)
             let registry = Fusion_obs.Metrics.create () in
             Fusion_obs.Metrics.with_registry registry (fun () ->
                 let config =
                   { Mediator.Config.default with Mediator.Config.algo; runtime }
                 in
                 Format.printf "listening on %s (%s runtime, policy %s), stopping \
                                after %d queries@."
                   (Tcp.sockaddr_to_string addr)
                   (Fusion_rt.Runtime.spec_name runtime)
                   (Serve.policy_name policy) queries;
                 let admin_on_listen a =
                   Format.printf "admin endpoints on http://%s/ (metrics, healthz, \
                                  statusz)@."
                     (Tcp.sockaddr_to_string a)
                 in
                 let* report =
                   Tcp.serve ~config ~policy ~max_inflight ?cache_ttl
                     ~versioned_cache ~max_queries:queries ?window
                     ?slow_threshold ?admin ~admin_on_listen ~listen:addr
                     mediator
                 in
                 Format.printf
                   "served %d statements over %d connections (%d rejected before \
                    admission)@."
                   report.Tcp.received report.Tcp.connections report.Tcp.rejected;
                 Format.printf "%a@." Serve.pp_stats report.Tcp.stats;
                 print_calibration report.Tcp.observations;
                 (match prom with
                 | Some path ->
                   Fusion_obs.Prom.write_file path
                     (Fusion_obs.Metrics.snapshot registry);
                   Format.eprintf "metrics written to %s@." path
                 | None -> ());
                 Ok ()))
       | None ->
         with_mediator location (fun mediator ->
             let registry = Fusion_obs.Metrics.create () in
             Fusion_obs.Metrics.with_registry registry (fun () ->
                 let config =
                   { Mediator.Config.default with Mediator.Config.algo; runtime }
                 in
                 let slow_log =
                   Option.map
                     (fun t -> Fusion_serve.Slow_log.create ~threshold:t ())
                     slow_threshold
                 in
                 let srv =
                   Mediator.Server.create ~config ~policy ~max_inflight ?cache_ttl
                     ~versioned_cache ?window ?slow_log mediator
                 in
                 let prng = Fusion_stats.Prng.create seed in
                 let schema = Mediator.schema mediator in
                 let attrs =
                   List.filter_map
                     (fun (a, ty) ->
                       if a <> Fusion_data.Schema.merge schema && ty = Fusion_data.Value.Tint
                       then Some a
                       else None)
                     (Fusion_data.Schema.attrs schema)
                   |> Array.of_list
                 in
                 if Array.length attrs = 0 then Error "schema has no integer attributes"
                 else begin
                   (* Random conjunctive queries: 1-3 range conditions on
                      integer attributes, thresholds over the generator's
                      default domain. *)
                   let random_query () =
                     let m = 1 + Fusion_stats.Prng.int prng 3 in
                     let conds =
                       List.init m (fun _ ->
                           let attr = Fusion_stats.Prng.pick prng attrs in
                           let threshold = Fusion_stats.Prng.int prng 1000 in
                           Fusion_cond.Cond.Cmp
                             (attr, Fusion_cond.Cond.Lt, Fusion_data.Value.Int threshold))
                     in
                     Fusion_query.Query.create_exn conds
                   in
                   let real = Fusion_rt.Runtime.is_real (Mediator.Server.runtime srv) in
                   if real then
                     Format.printf
                       "(domains runtime: Poisson pacing is simulator-only, all \
                        arrivals are immediate)@.";
                   (* A real-clock runtime keeps no record per request,
                      so its chart is rebuilt from the completions'
                      schedule slots. *)
                   let completed =
                     if gantt && real then
                       Some (Fusion_serve.Driver.collect (Mediator.Server.serve srv))
                     else None
                   in
                   let at = ref 0.0 in
                   let submit_errors = ref 0 in
                   for i = 0 to queries - 1 do
                     at := !at +. Fusion_stats.Prng.exponential prng rate;
                     let tenant = Printf.sprintf "t%d" ((i mod tenants) + 1) in
                     let priority = i mod tenants in
                     match
                       Mediator.Server.submit srv
                         ~at:(if real then 0.0 else !at)
                         ~tenant ~priority ?deadline (random_query ())
                     with
                     | Ok _ -> ()
                     | Error _ -> incr submit_errors
                   done;
                   Mediator.Server.drain srv;
                   let s = Mediator.Server.stats srv in
                   let server = Mediator.Server.serve srv in
                   let makespan = Serve.now server in
                   Format.printf "policy %s: %d queries over %d tenants, makespan %.1f@."
                     (Serve.policy_name policy) queries tenants makespan;
                   if !submit_errors > 0 then
                     Format.printf "(%d submissions rejected before admission)@."
                       !submit_errors;
                   Format.printf "%-8s %9s %9s %5s %9s %8s %8s@." "tenant" "submitted"
                     "completed" "shed" "goodput" "p50" "p99";
                   List.iter
                     (fun (name, ts) ->
                       let p =
                         Fusion_obs.Summary.latency_percentiles ts.Serve.ts_summary
                       in
                       Format.printf "%-8s %9d %9d %5d %9.4f %8.1f %8.1f@." name
                         ts.Serve.ts_submitted ts.Serve.ts_completed ts.Serve.ts_shed
                         (if makespan > 0.0 then
                            float_of_int ts.Serve.ts_completed /. makespan
                          else 0.0)
                         p.Fusion_obs.Summary.p50 p.Fusion_obs.Summary.p99)
                     (Serve.tenants server);
                   let shed_rate =
                     if s.Serve.submitted > 0 then
                       float_of_int s.Serve.shed /. float_of_int s.Serve.submitted
                     else 0.0
                   in
                   Format.printf "shed rate: %.1f%%@." (100.0 *. shed_rate);
                   Format.printf "answer cache: %a@." Fusion_plan.Answer_cache.pp_stats
                     (Serve.cache_stats server);
                   (match slow_log with
                   | None -> ()
                   | Some l ->
                     let module Sl = Fusion_serve.Slow_log in
                     Format.printf "slow queries (> %gs response): %d recorded@."
                       (Sl.threshold l) (Sl.recorded l);
                     List.iter
                       (fun e -> Format.printf "  %a@." Sl.pp_entry e)
                       (Sl.entries l));
                   Format.printf "%a@." Serve.pp_stats s;
                   if gantt then begin
                     let sources = Mediator.sources mediator in
                     let server_name j =
                       if j >= 0 && j < Array.length sources then
                         Fusion_source.Source.name sources.(j)
                       else Printf.sprintf "R%d" (j + 1)
                     in
                     let timeline =
                       match completed with
                       | None -> Serve.timeline server
                       | Some completions ->
                         List.concat_map
                           (fun c ->
                             Fusion_plan.Exec_async.scheduled_of_steps ~real:true
                               c.Serve.c_steps)
                           (completions ())
                         |> Fusion_net.Sim.timeline_of
                     in
                     Format.printf "%a@."
                       (Fusion_net.Sim.pp_gantt ?width:None ~server_name)
                       timeline
                   end;
                   (match prom with
                   | Some path ->
                     Fusion_obs.Prom.write_file path
                       (Fusion_obs.Metrics.snapshot registry);
                     Format.eprintf "metrics written to %s@." path
                   | None -> ());
                   if real then
                     print_calibration
                       (Fusion_rt.Runtime.observations (Mediator.Server.runtime srv));
                   Mediator.Server.shutdown srv;
                   Ok ()
                 end)))
  in
  let doc = "serve a stream of fusion queries on one shared network" in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const action $ location_term $ queries_arg $ rate_arg $ seed_arg $ policy_arg
          $ tenants_arg $ cache_ttl_arg $ versioned_cache_arg $ max_inflight_arg
          $ deadline_arg $ prom_arg $ gantt_arg $ runtime_arg $ listen_arg
          $ admin_arg $ window_arg $ slow_threshold_arg $ algo_arg $ verbose_arg)

(* --- client -------------------------------------------------------------- *)

(* The counterpart of serve --listen: send SQL statements (positional
   arguments, or stdin lines when none are given) to a running TCP
   front end and print its response lines. *)
let client_cmd =
  let module Tcp = Fusion_mediator.Tcp_front in
  let connect_arg =
    let doc = "Address of a running 'fqcli serve --listen' front end." in
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"HOST:PORT" ~doc)
  in
  let sqls_arg =
    let doc = "SQL statements to send, one response line each (stdin when omitted)." in
    Arg.(value & pos_all string [] & info [] ~docv:"SQL" ~doc)
  in
  let retries_arg =
    let doc = "Connection attempts (100 ms apart) before giving up." in
    Arg.(value & opt int 50 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let action connect sqls retries verbose =
    setup_logs verbose;
    report_result
      (let* addr = Tcp.sockaddr_of_string connect in
       let statements =
         if sqls <> [] then sqls
         else In_channel.input_lines In_channel.stdin
              |> List.map String.trim
              |> List.filter (fun l -> l <> "")
       in
       if statements = [] then Error "nothing to send: pass SQL statements or pipe them in"
       else
         let* responses = Tcp.client ~retries ~connect:addr statements in
         List.iter print_endline responses;
         Ok ())
  in
  let doc = "send fusion queries to a TCP serving front end" in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(const action $ connect_arg $ sqls_arg $ retries_arg $ verbose_arg)

(* --- watch ---------------------------------------------------------------- *)

(* The streaming counterpart of client: subscribe one fusion SQL
   statement as a standing query and print the server's lines as they
   arrive — the initial answer, then one push line per answer diff. *)
let watch_cmd =
  let module Tcp = Fusion_mediator.Tcp_front in
  let connect_arg =
    let doc = "Address of a running 'fqcli serve --listen' front end." in
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"HOST:PORT" ~doc)
  in
  let sql_arg =
    let doc = "The fusion SQL statement to subscribe." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)
  in
  let pushes_arg =
    let doc =
      "Exit successfully after this many push lines (0: stream until the \
       connection closes)."
    in
    Arg.(value & opt int 0 & info [ "pushes" ] ~docv:"N" ~doc)
  in
  let retries_arg =
    let doc = "Connection attempts (100 ms apart) before giving up." in
    Arg.(value & opt int 50 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let action connect sql pushes retries verbose =
    setup_logs verbose;
    report_result
      (let* addr = Tcp.sockaddr_of_string connect in
       if pushes < 0 then Error "--pushes must be non-negative"
       else
         Tcp.watch ~retries ~pushes ~connect:addr
           ~on_line:(fun line ->
             print_endline line;
             flush stdout)
           sql)
  in
  let doc = "subscribe a standing fusion query and stream its answer diffs" in
  Cmd.v (Cmd.info "watch" ~doc)
    Term.(const action $ connect_arg $ sql_arg $ pushes_arg $ retries_arg
          $ verbose_arg)

(* --- top ------------------------------------------------------------------ *)

(* A polling terminal view over a running front end's /statusz: the
   serving counters, scheduler/pool introspection and per-tenant
   sliding-window percentiles, refreshed every --interval seconds. *)
let top_cmd =
  let module Tcp = Fusion_mediator.Tcp_front in
  let module Admin = Fusion_mediator.Admin_front in
  let module Json = Fusion_obs.Json in
  let connect_arg =
    let doc = "Admin address of a running 'fqcli serve --listen --admin' front end." in
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"HOST:PORT" ~doc)
  in
  let interval_arg =
    let doc = "Seconds between refreshes." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECS" ~doc)
  in
  let iterations_arg =
    let doc = "Stop after this many refreshes (0: until interrupted or the \
               server goes away)." in
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N" ~doc)
  in
  let raw_arg =
    let doc = "Print the raw /statusz JSON instead of the rendered view (for \
               scripts and CI)." in
    Arg.(value & flag & info [ "raw" ] ~doc)
  in
  (* Total accessors: a missing or mistyped field renders as 0/"?"
     rather than failing the whole view — the server may be older or
     newer than this client. *)
  let fld j name = Option.value ~default:Json.Null (Json.member name j) in
  let inum j name = Option.value ~default:0 (Option.bind (Json.member name j) Json.to_int) in
  let fnum j name = Option.value ~default:0.0 (Option.bind (Json.member name j) Json.to_float) in
  let snum j name = Option.value ~default:"?" (Option.bind (Json.member name j) Json.to_str) in
  let render j =
    Format.printf "uptime %.0fs  runtime %s  policy %s  window %gs@."
      (fnum j "uptime_seconds") (snum j "runtime") (snum j "policy")
      (fnum j "window_span_seconds");
    Format.printf "front end: %d connections, %d received, %d rejected@."
      (inum j "connections") (inum j "received") (inum j "rejected");
    let st = fld j "stats" and sbr = fld j "shed_by_reason" in
    Format.printf
      "queries: %d submitted  %d queued  %d in-flight  %d completed  %d shed \
       (queue-full %d, deadline %d)@."
      (inum st "submitted") (inum st "queued") (inum st "in_flight")
      (inum st "completed") (inum st "shed") (inum sbr "queue_full")
      (inum sbr "deadline_unmeetable");
    (match fld j "pool" with
    | Json.Obj _ as p ->
      Format.printf
        "pool: %d domains, %d/%d lanes busy, %d queued (high water %d), %d executed@."
        (inum p "domains") (inum p "busy_lanes") (inum p "lanes")
        (inum p "queued_jobs") (inum p "queue_high_water") (inum p "executed")
    | _ -> ());
    (match fld j "scheduler" with
    | Json.Obj _ as sc ->
      Format.printf
        "scheduler: %d fibres (run queue %d, sleeping %d, io %d, external %d), \
         %d polls, %.3fs poll wait@."
        (inum sc "fibres_live") (inum sc "run_queue") (inum sc "sleepers")
        (inum sc "io_waiting") (inum sc "ext_pending") (inum sc "polls")
        (fnum sc "poll_wait_seconds")
    | _ -> ());
    let c = fld j "cache" in
    Format.printf "cache: %d lookups, %d coalesced, %d replayed, %d expired@."
      (inum c "lookups") (inum c "inflight_hits") (inum c "cached_hits")
      (inum c "expirations");
    (match fld j "tenants" with
    | Json.List (_ :: _ as ts) ->
      Format.printf "%-10s %9s %5s %8s %8s %8s %8s@." "tenant" "completed" "shed"
        "win_n" "p50" "p90" "p99";
      List.iter
        (fun t ->
          let w = fld t "window" in
          Format.printf "%-10s %9d %5d %8d %8.3f %8.3f %8.3f@." (snum t "tenant")
            (inum t "completed") (inum t "shed") (inum w "n") (fnum w "p50")
            (fnum w "p90") (fnum w "p99"))
        ts
    | _ -> ());
    (match fld j "slow_queries" with
    | Json.Obj _ as sq ->
      Format.printf "slow queries (> %gs): %d recorded@." (fnum sq "threshold")
        (inum sq "recorded");
      (match fld sq "entries" with
      | Json.List entries ->
        List.iteri
          (fun i e ->
            if i < 5 then
              let label = snum e "label" in
              let label =
                if String.length label > 48 then String.sub label 0 45 ^ "..."
                else label
              in
              Format.printf "  id=%d %s %.3fs [%s] %s@." (inum e "id")
                (snum e "tenant") (fnum e "response") (snum e "plan_shape") label)
          entries
      | _ -> ())
    | _ -> ());
    Format.printf "@."
  in
  let action connect interval iterations raw verbose =
    setup_logs verbose;
    report_result
      (let* addr = Tcp.sockaddr_of_string connect in
       if interval <= 0.0 then Error "--interval must be positive"
       else if iterations < 0 then Error "--iterations must be non-negative"
       else
         let clear = (not raw) && Unix.isatty Unix.stdout in
         let rec loop k =
           if iterations > 0 && k > iterations then Ok ()
           else
             (* Retry only the first dial: once we have seen the server,
                a refused connection means it is gone. *)
             let* status, body =
               Admin.http_get ~retries:(if k = 1 then 50 else 0) ~connect:addr
                 "/statusz"
             in
             if status <> 200 then
               Error (Printf.sprintf "/statusz returned HTTP %d" status)
             else
               let* () =
                 if raw then begin
                   print_string body;
                   if not (String.length body > 0 && body.[String.length body - 1] = '\n')
                   then print_newline ();
                   Ok ()
                 end
                 else
                   let* j = Json.of_string (String.trim body) in
                   if clear then print_string "\027[H\027[2J";
                   render j;
                   Ok ()
               in
               if iterations > 0 && k = iterations then Ok ()
               else begin
                 Unix.sleepf interval;
                 loop (k + 1)
               end
         in
         loop 1)
  in
  let doc = "live view of a serving front end's /statusz" in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const action $ connect_arg $ interval_arg $ iterations_arg $ raw_arg
          $ verbose_arg)

let main_cmd =
  let doc = "fusion queries over (simulated) Internet databases" in
  let info = Cmd.info "fqcli" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ gen_cmd; run_cmd; explain_cmd; compare_cmd; profile_cmd; trace_cmd; shell_cmd;
      serve_cmd; client_cmd; watch_cmd; top_cmd ]

let () = exit (Cmd.eval' main_cmd)
