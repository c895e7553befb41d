(* The serving layer: conservation under every scheduling policy,
   byte-identical single-query execution (the equivalence anchor),
   cross-query answer-cache semantics, admission-control shedding, and
   fair-share isolation under overload. *)

open Fusion_data
open Fusion_core
module Workload = Fusion_workload.Workload
module Source = Fusion_source.Source
module Prng = Fusion_stats.Prng
module Mediator = Fusion_mediator.Mediator
module Serve = Fusion_serve.Server
module Driver = Fusion_serve.Driver
module Answer_cache = Fusion_plan.Answer_cache
module Exec_async = Fusion_plan.Exec_async

let optimize instance =
  let env =
    Opt_env.create instance.Workload.sources instance.Workload.query
  in
  (env, Optimizer.optimize Optimizer.Sja_plus env)

let job_of ?(tenant = "t1") ?(priority = 0) ?deadline env (optimized : Optimized.t) =
  {
    Serve.plan = optimized.Optimized.plan;
    conds = env.Opt_env.conds;
    tenant;
    priority;
    est_cost = optimized.Optimized.est_cost;
    deadline;
    label = "";
  }

(* A job whose plan fails to compile completes as failed at admission
   (the TCP front end turns that into an [error] line) instead of
   raising out of the event loop; the server keeps serving. *)
let test_uncompilable_job_fails () =
  let instance = Workload.fig1 () in
  let env, optimized = optimize instance in
  let srv = Serve.create instance.Workload.sources in
  let completions = Driver.collect srv in
  let bad =
    {
      (job_of env optimized) with
      Serve.plan =
        Fusion_plan.Plan.create
          ~ops:[ Fusion_plan.Op.Union { dst = "X"; args = [ "nope" ] } ]
          ~output:"X";
    }
  in
  let bad_id = Serve.submit srv ~at:0.0 bad in
  let good_id = Serve.submit srv ~at:0.0 (job_of env optimized) in
  Serve.drain srv;
  let completion id =
    List.find (fun c -> c.Serve.c_id = id) (completions ())
  in
  let failed = completion bad_id in
  Alcotest.(check bool) "failed completion" true (failed.Serve.c_failed <> None);
  Alcotest.(check bool) "no answer" true (failed.Serve.c_answer = None);
  Alcotest.(check (float 0.0)) "nothing charged" 0.0 failed.Serve.c_cost;
  Alcotest.(check bool) "the valid job is answered" true
    ((completion good_id).Serve.c_answer <> None);
  let s = Serve.stats srv in
  Alcotest.(check int) "both completed" 2 s.Serve.completed;
  Alcotest.(check bool) "conserves" true (Serve.conservation_ok s)

(* --- conservation -------------------------------------------------------- *)

(* submitted = queued + in_flight + completed + shed after every single
   scheduling step, under every policy, with both shed paths reachable
   (a tight in-flight cap and tight deadlines); at drain nothing is
   left queued or in flight, and the shared timeline's task ids are
   unique across queries. *)
let conservation_gen = QCheck2.Gen.(pair Helpers.spec_gen (int_range 4 14))

let conservation_print (spec, k) =
  Printf.sprintf "%d jobs, %s" k (Helpers.spec_print spec)

let check_conservation srv =
  let s = Serve.stats srv in
  if not (Serve.conservation_ok s) then
    Alcotest.fail ("conservation broken: " ^ Format.asprintf "%a" Serve.pp_stats s)

let conservation_prop =
  Helpers.qtest ~count:12 "conservation at every step, all policies" conservation_gen
    conservation_print (fun (spec, k) ->
      List.for_all
        (fun policy ->
          let instance = Workload.generate spec in
          let env, optimized = optimize instance in
          let srv =
            Serve.create ~policy ~max_inflight:3 instance.Workload.sources
          in
          let prng = Prng.create (spec.Workload.seed + 97) in
          let mean_gap = Float.max 1.0 (optimized.Optimized.est_cost /. 4.0) in
          let at = ref 0.0 in
          for i = 0 to k - 1 do
            at := !at +. Prng.exponential prng (1.0 /. mean_gap);
            let deadline =
              (* Every third job gets a budget tight enough to shed
                 once backlog builds. *)
              if i mod 3 = 2 then Some (Float.max 1.0 optimized.Optimized.est_cost)
              else None
            in
            let tenant = Printf.sprintf "t%d" ((i mod 3) + 1) in
            ignore
              (Serve.submit srv ~at:!at
                 (job_of ~tenant ~priority:(i mod 3) ?deadline env optimized));
            check_conservation srv
          done;
          while Serve.step srv do
            check_conservation srv
          done;
          let s = Serve.stats srv in
          let timeline = Serve.timeline srv in
          let ids =
            List.map (fun e -> e.Fusion_net.Sim.task.Fusion_net.Sim.id)
              timeline.Fusion_net.Sim.events
          in
          Serve.conservation_ok s && s.Serve.queued = 0 && s.Serve.in_flight = 0
          && s.Serve.submitted = k
          && List.length ids = List.length (List.sort_uniq compare ids))
        Serve.all_policies)

(* --- single-query equivalence -------------------------------------------- *)

(* A lone query through the serving stack under Fifo must be
   byte-identical to the concurrent executor driven directly: same
   answer, same per-step costs and sizes (hence the same fault-draw
   sequence), same response time. Faults are enabled to make any
   divergence in draw order visible. *)
let equivalence_gen = QCheck2.Gen.(pair Helpers.spec_gen (int_range 0 2))

let equivalence_print (spec, f) =
  Printf.sprintf "faults=%d %s" f (Helpers.spec_print spec)

let set_faults fault_seed probability sources =
  Array.iteri
    (fun j s ->
      Source.set_fault s
        (Some
           {
             Source.probability;
             prng = Prng.create (fault_seed + (31 * j));
           }))
    sources

let equivalence_prop =
  Helpers.qtest ~count:20 "single query = Exec_async byte for byte" equivalence_gen
    equivalence_print (fun (spec, fault_level) ->
      let probability = 0.15 *. float_of_int fault_level in
      let config =
        {
          Mediator.Config.default with
          Mediator.Config.retries = 3;
          on_exhausted = `Partial;
        }
      in
      (* Two fresh worlds from the same spec: one executed directly,
         one through the serving stack. *)
      let direct = Workload.generate spec in
      if probability > 0.0 then set_faults 11 probability direct.Workload.sources;
      let reference =
        Helpers.check_ok
          (Mediator.create (Array.to_list direct.Workload.sources))
      in
      let report =
        Helpers.check_ok (Mediator.run ~config reference direct.Workload.query)
      in
      let served = Workload.generate spec in
      if probability > 0.0 then set_faults 11 probability served.Workload.sources;
      let med =
        Helpers.check_ok (Mediator.create (Array.to_list served.Workload.sources))
      in
      let srv = Mediator.Server.create ~config ~policy:Serve.Fifo med in
      let completions = Driver.collect (Mediator.Server.serve srv) in
      (match Mediator.Server.submit srv ~at:0.0 served.Workload.query with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "submit failed: %s" msg);
      Mediator.Server.drain srv;
      match completions () with
      | [ c ] ->
        Item_set.equal report.Mediator.answer (Option.get c.Serve.c_answer)
        && Float.equal report.Mediator.actual_cost c.Serve.c_cost
        && Float.equal report.Mediator.response_time c.Serve.c_response
        && report.Mediator.partial = c.Serve.c_partial
        && report.Mediator.steps = Exec_async.to_exec_steps c.Serve.c_steps
      | other -> Alcotest.failf "expected 1 completion, got %d" (List.length other))

(* --- answer cache -------------------------------------------------------- *)

let outcome_label = function
  | Answer_cache.Inflight _ -> "inflight"
  | Answer_cache.Cached _ -> "cached"
  | Answer_cache.Miss -> "miss"

let check_outcome label expected actual =
  Alcotest.(check string) label expected (outcome_label actual)

let test_cache_windows () =
  let c = Answer_cache.create ~ttl:10.0 () in
  let find ready = Answer_cache.find c ~source:"R1" ~cond:"A1 < 5" ~ready () in
  let answer = Helpers.items_of_strings [ "a"; "b" ] in
  check_outcome "empty" "miss" (find 0.0);
  Answer_cache.note c ~source:"R1" ~cond:"A1 < 5" ~finish:100.0 answer;
  (match find 50.0 with
  | Answer_cache.Inflight (finish, got) ->
    Alcotest.(check (float 0.0)) "join at the leader's finish" 100.0 finish;
    Alcotest.check Helpers.item_set "shared answer" answer got
  | o -> Alcotest.failf "expected inflight, got %s" (outcome_label o));
  (match find 105.0 with
  | Answer_cache.Cached (staleness, got) ->
    Alcotest.(check (float 0.0)) "staleness accounted" 5.0 staleness;
    Alcotest.check Helpers.item_set "replayed answer" answer got
  | o -> Alcotest.failf "expected cached, got %s" (outcome_label o));
  check_outcome "ttl boundary is inclusive" "cached" (find 110.0);
  check_outcome "past the ttl" "miss" (find 110.5);
  (* The expired entry was evicted: even an in-flight-window probe
     misses now. *)
  check_outcome "evicted" "miss" (find 50.0);
  let s = Answer_cache.stats c in
  Alcotest.(check int) "lookups" 6 s.Answer_cache.lookups;
  Alcotest.(check int) "inflight hits" 1 s.Answer_cache.inflight_hits;
  Alcotest.(check int) "cached hits" 2 s.Answer_cache.cached_hits;
  Alcotest.(check int) "expirations" 1 s.Answer_cache.expirations;
  Alcotest.(check (float 1e-9)) "staleness sum" 15.0 s.Answer_cache.staleness_sum;
  Alcotest.(check (float 1e-9)) "staleness max" 10.0 s.Answer_cache.staleness_max

let test_cache_no_ttl_is_inflight_only () =
  let c = Answer_cache.create () in
  let answer = Helpers.items_of_strings [ "x" ] in
  Answer_cache.note c ~source:"R1" ~cond:"A1 < 5" ~finish:100.0 answer;
  check_outcome "still in flight" "inflight"
    (Answer_cache.find c ~source:"R1" ~cond:"A1 < 5" ~ready:99.9 ());
  (* finish = ready is NOT in flight — the historical coalescer's
     boundary, load-bearing for the equivalence invariant. *)
  check_outcome "completed answers never replayed" "miss"
    (Answer_cache.find c ~source:"R1" ~cond:"A1 < 5" ~ready:100.0 ());
  Alcotest.check_raises "negative ttl" (Invalid_argument "Answer_cache.create: negative ttl")
    (fun () -> ignore (Answer_cache.create ~ttl:(-1.0) ()))

(* A serving run with a TTL actually shares answers across queries:
   submit the same query many times far enough apart that requests
   don't overlap, close enough to stay within the TTL. *)
let test_cross_query_reuse () =
  let instance = Workload.generate { Workload.default_spec with seed = 5 } in
  let env, optimized = optimize instance in
  let run ~cache_ttl =
    let srv = Serve.create ~policy:Serve.Fifo ?cache_ttl instance.Workload.sources in
    let completions = Driver.collect srv in
    for i = 0 to 4 do
      ignore
        (Serve.submit srv
           ~at:(float_of_int i *. 2.0 *. Float.max 1.0 optimized.Optimized.est_cost)
           (job_of env optimized))
    done;
    Serve.drain srv;
    (srv, completions ())
  in
  let without, without_done = run ~cache_ttl:None in
  let with_ttl, with_ttl_done = run ~cache_ttl:(Some 1e9) in
  Alcotest.(check int) "no replay without a ttl" 0
    (Serve.cache_stats without).Answer_cache.cached_hits;
  Alcotest.(check bool) "replays with a ttl" true
    ((Serve.cache_stats with_ttl).Answer_cache.cached_hits > 0);
  (* Replayed queries do the same job for less total service cost. *)
  let total =
    List.fold_left (fun acc (c : Serve.completion) -> acc +. c.Serve.c_cost) 0.0
  in
  Alcotest.(check bool) "cache saves work" true (total with_ttl_done < total without_done);
  List.iter
    (fun (c : Serve.completion) ->
      Alcotest.check Helpers.item_set "cached answers are the real answers"
        (Fusion_core.Reference.answer_query ~sources:instance.Workload.sources
           instance.Workload.query)
        (Option.get c.Serve.c_answer))
    with_ttl_done

(* --- admission control --------------------------------------------------- *)

let collect_sheds srv =
  let got = ref [] in
  Serve.on_shed srv (fun sh -> got := sh :: !got);
  fun () -> List.rev !got

let test_shedding () =
  let instance = Workload.generate { Workload.default_spec with seed = 9 } in
  let env, optimized = optimize instance in
  let srv = Serve.create ~policy:Serve.Fifo ~max_inflight:2 instance.Workload.sources in
  let sheds = collect_sheds srv in
  (* A burst at t=0: the cap admits 2, sheds the rest at admission. *)
  for _ = 1 to 6 do
    ignore (Serve.submit srv ~at:0.0 (job_of env optimized))
  done;
  Serve.drain srv;
  let s = Serve.stats srv in
  Alcotest.(check bool) "queue-full sheds" true (s.Serve.shed > 0);
  Alcotest.(check bool) "some still complete" true (s.Serve.completed >= 2);
  Alcotest.(check bool) "conservation" true (Serve.conservation_ok s);
  List.iter
    (fun (sh : Serve.shed) ->
      Alcotest.(check string) "reason" "queue_full"
        (Serve.shed_reason_name sh.Serve.s_reason))
    (sheds ());
  Alcotest.(check int) "every shed reached the hook" s.Serve.shed (List.length (sheds ()));
  Alcotest.(check (pair int int)) "shed counts by reason" (s.Serve.shed, 0)
    (Serve.shed_counts srv);
  (* An impossible deadline is refused up front. *)
  let srv2 = Serve.create ~policy:Serve.Fifo instance.Workload.sources in
  let sheds2 = collect_sheds srv2 in
  ignore
    (Serve.submit srv2 ~at:0.0
       (job_of ~deadline:(optimized.Optimized.est_cost /. 1e6) env optimized));
  Serve.drain srv2;
  match sheds2 () with
  | [ sh ] ->
    Alcotest.(check string) "deadline shed" "deadline_unmeetable"
      (Serve.shed_reason_name sh.Serve.s_reason)
  | other -> Alcotest.failf "expected 1 shed, got %d" (List.length other)

(* --- fair share under overload ------------------------------------------- *)

(* One heavy tenant floods the server while a light tenant trickles.
   Under Fifo the light tenant waits behind the flood; Fair_share
   schedules by least service consumed, so the light tenant's mean
   response improves and the heavy tenant cannot starve it. *)
let test_fair_share_isolates_light_tenant () =
  let spec = { Workload.default_spec with seed = 17; n_sources = 4 } in
  let run policy =
    let instance = Workload.generate spec in
    let env, optimized = optimize instance in
    let srv = Serve.create ~policy ~max_inflight:64 instance.Workload.sources in
    let completions = Driver.collect srv in
    let est = Float.max 1.0 optimized.Optimized.est_cost in
    (* Heavy: 24 jobs arriving every est/4 — 4x oversubscribed. *)
    for i = 0 to 23 do
      ignore
        (Serve.submit srv
           ~at:(float_of_int i *. (est /. 4.0))
           (job_of ~tenant:"heavy" env optimized))
    done;
    (* Light: 4 jobs spread over the same window. *)
    for i = 0 to 3 do
      ignore
        (Serve.submit srv
           ~at:(float_of_int i *. (est *. 1.5))
           (job_of ~tenant:"light" env optimized))
    done;
    Serve.drain srv;
    let mean tenant =
      let mine =
        List.filter
          (fun (c : Serve.completion) -> c.Serve.c_job.Serve.tenant = tenant)
          (completions ())
      in
      List.fold_left (fun acc (c : Serve.completion) -> acc +. c.Serve.c_response) 0.0
        mine
      /. float_of_int (List.length mine)
    in
    (mean "light", mean "heavy", Serve.stats srv)
  in
  let fifo_light, _, fifo_stats = run Serve.Fifo in
  let fair_light, fair_heavy, fair_stats = run Serve.Fair_share in
  Alcotest.(check bool) "fifo conserves" true (Serve.conservation_ok fifo_stats);
  Alcotest.(check bool) "fair conserves" true (Serve.conservation_ok fair_stats);
  Alcotest.(check bool)
    (Printf.sprintf "fair share protects the light tenant (%.1f < %.1f)" fair_light
       fifo_light)
    true (fair_light < fifo_light);
  Alcotest.(check bool) "light is not starved behind heavy" true
    (fair_light < fair_heavy)

(* --- observability: windows, slow log, exported gauges ------------------- *)

module Window = Fusion_obs.Window
module Summary = Fusion_obs.Summary
module Slow_log = Fusion_serve.Slow_log
module Metrics = Fusion_obs.Metrics

(* Completions land in the per-tenant sliding window on the server
   clock; against a span wide enough that nothing evicts, the window
   holds exactly the completions and agrees with the cumulative summary
   (same values, same bucket count). A zero-threshold slow log sees
   every completion. *)
let test_tenant_windows_and_slow_log () =
  let instance = Workload.generate { Workload.default_spec with seed = 5 } in
  let env, optimized = optimize instance in
  let slow_log = Slow_log.create ~threshold:0.0 () in
  let srv =
    Serve.create ~policy:Serve.Fifo ~window:1e9 ~slow_log
      instance.Workload.sources
  in
  let est = Float.max 1.0 optimized.Optimized.est_cost in
  for i = 0 to 4 do
    let tenant = Printf.sprintf "t%d" ((i mod 2) + 1) in
    ignore
      (Serve.submit srv ~at:(float_of_int i *. est) (job_of ~tenant env optimized))
  done;
  Serve.drain srv;
  let s = Serve.stats srv in
  Alcotest.(check int) "all complete" 5 s.Serve.completed;
  Alcotest.(check int) "every completion was slow at threshold 0" 5
    (Slow_log.recorded slow_log);
  (match Slow_log.entries slow_log with
  | e :: _ ->
    Alcotest.(check bool) "entries carry a plan shape" true
      (String.length e.Slow_log.e_plan_shape > 0)
  | [] -> Alcotest.fail "slow log kept no entries");
  let ts = Serve.tenants srv in
  Alcotest.(check int) "both tenants tracked" 2 (List.length ts);
  let now = Serve.now srv in
  List.iter
    (fun (_, t) ->
      let w = Window.snapshot t.Serve.ts_window ~now in
      Alcotest.(check int) "window counts every completion"
        t.Serve.ts_completed w.Summary.n;
      let c = Summary.latency_percentiles t.Serve.ts_summary in
      Alcotest.(check bool) "unevicted window = cumulative summary" true
        (w.Summary.p50 = c.Summary.p50 && w.Summary.p99 = c.Summary.p99
        && w.Summary.mean = c.Summary.mean && w.Summary.max = c.Summary.max))
    ts

(* publish_metrics drops the point-in-time view into the ambient
   registry: queue gauges, both shed reasons, and the per-tenant window
   percentile family with tenant labels. *)
let test_publish_metrics () =
  let instance = Workload.generate { Workload.default_spec with seed = 5 } in
  let env, optimized = optimize instance in
  let registry = Metrics.create () in
  Metrics.with_registry registry (fun () ->
      let srv =
        Serve.create ~policy:Serve.Fifo ~window:1e9 instance.Workload.sources
      in
      for i = 0 to 3 do
        ignore (Serve.submit srv ~at:(float_of_int i) (job_of env optimized))
      done;
      Serve.drain srv;
      Serve.publish_metrics srv);
  let samples = Metrics.snapshot registry in
  let find name labels =
    List.find_opt
      (fun (s : Metrics.sample) ->
        s.Metrics.name = name
        && List.for_all (fun l -> List.mem l s.Metrics.labels) labels)
      samples
  in
  let gauge_value name labels =
    match find name labels with
    | Some { Metrics.value = Metrics.Vgauge v; _ } -> v
    | Some _ -> Alcotest.failf "%s is not a gauge" name
    | None -> Alcotest.failf "missing %s" name
  in
  Alcotest.(check (float 0.0)) "drained queue" 0.0
    (gauge_value "fusion_serve_queued" []);
  Alcotest.(check (float 0.0)) "nothing in flight" 0.0
    (gauge_value "fusion_serve_in_flight" []);
  Alcotest.(check (float 0.0)) "queue-full sheds exported" 0.0
    (gauge_value "fusion_serve_shed" [ ("reason", "queue_full") ]);
  Alcotest.(check (float 0.0)) "deadline sheds exported" 0.0
    (gauge_value "fusion_serve_shed" [ ("reason", "deadline_unmeetable") ]);
  Alcotest.(check int) "window percentile family carries the tenant" 4
    (int_of_float (gauge_value "fusion_serve_window_count" [ ("tenant", "t1") ]));
  List.iter
    (fun name ->
      match find name [ ("tenant", "t1") ] with
      | Some { Metrics.value = Metrics.Vgauge v; _ } ->
        Alcotest.(check bool) (name ^ " is finite and non-negative") true
          (Float.is_finite v && v >= 0.0)
      | _ -> Alcotest.failf "missing %s" name)
    [
      "fusion_serve_window_p50";
      "fusion_serve_window_p90";
      "fusion_serve_window_p99";
    ]

(* --- drivers ------------------------------------------------------------- *)

(* --- the domains runtime behind the serving stack ------------------------ *)

(* The same serving stack on the real-concurrency runtime: jobs pumped
   through worker domains must all complete, conserve, and answer
   exactly what the sequential executor answers. *)
let test_serve_on_domains () =
  let module Runtime = Fusion_rt.Runtime in
  let instance = Workload.generate { Workload.default_spec with seed = 5 } in
  let env, optimized = optimize instance in
  let expected =
    Fusion_plan.Exec.run ~sources:instance.Workload.sources
      ~conds:env.Opt_env.conds optimized.Optimized.plan
  in
  Array.iter Source.reset_meter instance.Workload.sources;
  let rt =
    Runtime.domains ~domains:2
      ~servers:(Array.length instance.Workload.sources) ()
  in
  Fun.protect
    ~finally:(fun () -> Runtime.shutdown rt)
    (fun () ->
      let srv = Serve.create ~policy:Serve.Fifo ~rt instance.Workload.sources in
      let collected = Driver.collect srv in
      for i = 0 to 4 do
        ignore
          (Serve.submit srv ~at:(float_of_int i)
             (job_of ~tenant:(Printf.sprintf "t%d" (i mod 2)) env optimized))
      done;
      Serve.drain srv;
      let s = Serve.stats srv in
      Alcotest.(check int) "all complete" 5 s.Serve.completed;
      Alcotest.(check bool) "conserves" true (Serve.conservation_ok s);
      let completions = collected () in
      Alcotest.(check int) "five completions" 5 (List.length completions);
      List.iter
        (fun (c : Serve.completion) ->
          match c.Serve.c_answer with
          | Some a ->
            Alcotest.(check bool) "answer matches sequential executor" true
              (Item_set.equal expected.Fusion_plan.Exec.answer a)
          | None -> Alcotest.fail "query failed on the domains runtime")
        completions;
      (* The runtime keeps no slot per request; the shared schedule is
         rebuilt from the completions' steps, one slot per dispatched
         request, task ids unique across queries. *)
      let steps = List.concat_map (fun c -> c.Serve.c_steps) completions in
      let dispatched =
        List.length
          (List.filter
             (fun s ->
               match s.Fusion_plan.Exec_async.sched with
               | Some { Fusion_plan.Exec_async.dispatched = true; _ } -> true
               | Some _ | None -> false)
             steps)
      in
      let timeline =
        Fusion_net.Sim.timeline_of
          (Fusion_plan.Exec_async.scheduled_of_steps ~real:true steps)
      in
      let events = timeline.Fusion_net.Sim.events in
      let ids = List.map (fun e -> e.Fusion_net.Sim.task.Fusion_net.Sim.id) events in
      Alcotest.(check bool) "some requests dispatched" true (dispatched > 0);
      Alcotest.(check int) "one slot per dispatched request" dispatched
        (List.length events);
      Alcotest.(check int) "task ids unique" (List.length ids)
        (List.length (List.sort_uniq compare ids));
      Alcotest.(check bool) "slots are wall-clock spans" true
        (List.for_all
           (fun e -> e.Fusion_net.Sim.finish >= e.Fusion_net.Sim.start)
           events))

(* A long-running server holds nothing per answered statement: results
   leave through the completion hook. The same statement is served K
   and then 10·K times behind a TTL cache that answers every selection
   after the first (a FILTER plan issues selections only), so the
   runtime books no further requests; what may remain per statement is
   the tenant summary's run record and window sample. *)
let test_server_keeps_nothing_per_statement () =
  let instance = Workload.generate { Workload.default_spec with seed = 5 } in
  let med = Helpers.check_ok (Mediator.create (Array.to_list instance.Workload.sources)) in
  let config = { Mediator.Config.default with Mediator.Config.algo = Optimizer.Filter } in
  let srv = Mediator.Server.create ~config ~cache_ttl:1e12 med in
  let serve = Mediator.Server.serve srv in
  let answered = ref 0 in
  Serve.on_complete serve (fun c -> if c.Serve.c_answer <> None then incr answered);
  let run k =
    for _ = 1 to k do
      ignore
        (Helpers.check_ok
           (Mediator.Server.submit srv ~at:(Serve.now serve) instance.Workload.query));
      Mediator.Server.drain srv
    done
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let k = 200 in
  run k;
  let after_k = live () in
  run (9 * k);
  let after_10k = live () in
  (* Read the server after the second measurement, so it (and the
     world it serves) is live at both. *)
  Alcotest.(check int) "every statement answered" (10 * k) !answered;
  Alcotest.(check int) "every statement counted" (10 * k)
    (Mediator.Server.stats srv).Serve.completed;
  let per = float_of_int (after_10k - after_k) /. float_of_int (9 * k) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f live words per extra statement (< 50)" per)
    true (per < 50.0)

let test_drivers () =
  let instance = Workload.generate { Workload.default_spec with seed = 3 } in
  let env, optimized = optimize instance in
  let srv = Serve.create ~policy:Serve.Fifo instance.Workload.sources in
  Driver.open_loop srv ~prng:(Prng.create 4) ~rate:0.01 ~count:10 (fun i ->
      job_of ~tenant:(Printf.sprintf "t%d" (i mod 2)) env optimized);
  Serve.drain srv;
  let s = Serve.stats srv in
  Alcotest.(check int) "open loop submits all" 10 s.Serve.submitted;
  Alcotest.(check bool) "conserves" true (Serve.conservation_ok s);
  (* Closed loop: population bounds concurrency; all jobs complete. *)
  let srv2 = Serve.create ~policy:Serve.Fifo instance.Workload.sources in
  Driver.closed_loop srv2 ~clients:2 ~think:5.0 ~count:9 (fun _ -> job_of env optimized);
  Serve.drain srv2;
  let s2 = Serve.stats srv2 in
  Alcotest.(check int) "closed loop issues all" 9 s2.Serve.submitted;
  Alcotest.(check int) "all complete" 9 s2.Serve.completed;
  Alcotest.(check bool) "conserves" true (Serve.conservation_ok s2);
  (* Interarrival determinism: the same seed reproduces the stream. *)
  let arrivals seed =
    let srv = Serve.create ~policy:Serve.Fifo instance.Workload.sources in
    let completions = Driver.collect srv in
    Driver.open_loop srv ~prng:(Prng.create seed) ~rate:0.05 ~count:6 (fun _ ->
        job_of env optimized);
    Serve.drain srv;
    List.map (fun (c : Serve.completion) -> c.Serve.c_submitted) (completions ())
  in
  Alcotest.(check bool) "same seed, same arrivals" true (arrivals 8 = arrivals 8);
  Alcotest.(check bool) "different seed, different arrivals" true
    (arrivals 8 <> arrivals 9)

let suite =
  [
    conservation_prop;
    equivalence_prop;
    Alcotest.test_case "answer cache windows and stats" `Quick test_cache_windows;
    Alcotest.test_case "no ttl means in-flight only" `Quick
      test_cache_no_ttl_is_inflight_only;
    Alcotest.test_case "cross-query reuse with a ttl" `Quick test_cross_query_reuse;
    Alcotest.test_case "admission control sheds" `Quick test_shedding;
    Alcotest.test_case "uncompilable job fails at admission" `Quick
      test_uncompilable_job_fails;
    Alcotest.test_case "fair share isolates the light tenant" `Quick
      test_fair_share_isolates_light_tenant;
    Alcotest.test_case "tenant windows and slow log" `Quick
      test_tenant_windows_and_slow_log;
    Alcotest.test_case "publish metrics" `Quick test_publish_metrics;
    Alcotest.test_case "open and closed loop drivers" `Quick test_drivers;
    Alcotest.test_case "server keeps nothing per statement" `Quick
      test_server_keeps_nothing_per_statement;
    Alcotest.test_case "serving on the domains runtime" `Quick test_serve_on_domains;
  ]
