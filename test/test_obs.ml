(* The observability stack: Trace collectors and span structure, the
   Metrics registry, JSONL export/parse round-trips, and the end-to-end
   acceptance properties — a traced mediator run whose request spans
   reproduce the meter accounting exactly, at zero cost when off. *)

open Fusion_core
module Workload = Fusion_workload.Workload
module Mediator = Fusion_mediator.Mediator
module Trace = Fusion_obs.Trace
module Metrics = Fusion_obs.Metrics
module Json = Fusion_obs.Json
module Jsonl = Fusion_obs.Jsonl

(* --- Trace unit tests ---------------------------------------------------- *)

let test_trace_disabled_is_noop () =
  Alcotest.(check bool) "not enabled" false (Trace.enabled ());
  let result =
    Trace.span Trace.Step "noop" (fun ctx ->
        Alcotest.(check bool) "ctx inactive" false (Trace.active ctx);
        Trace.attr ctx "k" (Trace.Int 1);
        Trace.charge ctx 5.0;
        42)
  in
  Alcotest.(check int) "value passes through" 42 result

let test_trace_nesting_and_attrs () =
  let c = Trace.create ~clock:(fun () -> 0.0) () in
  Trace.with_collector c (fun () ->
      Trace.span Trace.Run "outer" (fun ctx ->
          Trace.attr ctx "algo" (Trace.Str "sja+");
          Trace.span Trace.Step "inner" (fun ctx ->
              Trace.charge ctx 3.0;
              Trace.attrs ctx [ ("cost", Trace.Float 3.0); ("n", Trace.Int 2) ]);
          Trace.span Trace.Step "sibling" (fun _ -> ())));
  match Trace.spans c with
  | [ inner; sibling; outer ] ->
    (* Finish order: children close before their parent. *)
    Alcotest.(check string) "inner name" "inner" inner.Trace.name;
    Alcotest.(check (option int)) "inner parent" (Some outer.Trace.id) inner.Trace.parent;
    Alcotest.(check (option int)) "sibling parent" (Some outer.Trace.id) sibling.Trace.parent;
    Alcotest.(check (option int)) "outer is root" None outer.Trace.parent;
    Alcotest.(check (float 1e-9)) "inner cost" 3.0 (Trace.cost inner);
    Alcotest.(check (float 1e-9)) "outer absorbs charge" 3.0 (Trace.cost outer);
    Alcotest.(check (float 1e-9)) "sibling free" 0.0 (Trace.cost sibling);
    (match Trace.find_attr inner "n" with
    | Some (Trace.Int 2) -> ()
    | _ -> Alcotest.fail "attr n lost");
    Alcotest.(check int) "outer children" 2
      (List.length (Trace.children (Trace.spans c) outer.Trace.id));
    Alcotest.(check int) "one root" 1 (List.length (Trace.roots (Trace.spans c)))
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_trace_finishes_on_exception () =
  let c = Trace.create () in
  (try
     Trace.with_collector c (fun () ->
         Trace.span Trace.Run "outer" (fun _ ->
             Trace.span Trace.Step "inner" (fun _ -> failwith "boom")))
   with Failure _ -> ());
  Alcotest.(check int) "both spans finished" 2 (List.length (Trace.spans c));
  Alcotest.(check bool) "collector not installed afterwards" false (Trace.enabled ())

let test_trace_mark_brackets () =
  let c = Trace.create () in
  Trace.with_collector c (fun () ->
      Trace.span Trace.Step "before" (fun _ -> ());
      let m = Trace.mark c in
      Trace.span Trace.Step "after" (fun _ -> ());
      match Trace.spans_since c m with
      | [ s ] -> Alcotest.(check string) "only the bracketed span" "after" s.Trace.name
      | l -> Alcotest.failf "expected 1 span, got %d" (List.length l))

let test_trace_backwards_clock () =
  (* A real clock can step backwards (NTP) between span open and close;
     no span may finish before it starts. *)
  let now = ref 100.0 in
  let clock () =
    let v = !now in
    now := v -. 25.0;
    v
  in
  let c = Trace.create ~clock () in
  Trace.with_collector c (fun () ->
      Trace.span Trace.Run "outer" (fun _ ->
          Trace.span Trace.Step "inner" (fun _ -> ())));
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%s finishes at or after start" s.Trace.name)
        true
        (s.Trace.finish_wall >= s.Trace.start_wall))
    (Trace.spans c)

let test_summary_real_clock_latencies () =
  (* A wall-clock latency can come out negative (backwards clock step)
     or non-finite; percentiles must stay finite and count every run. *)
  let module Summary = Fusion_obs.Summary in
  let s = Summary.create () in
  Summary.add s ~cost:1.0 ~response_time:(-5.0) ();
  Summary.add s ~cost:2.0 ~response_time:3.0 ();
  Summary.add s ~cost:3.0 ~response_time:7.0 ();
  let p = Summary.latency_percentiles s in
  Alcotest.(check int) "finite runs counted" 3 p.Summary.n;
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " finite") true (Float.is_finite v);
      Alcotest.(check bool) (name ^ " non-negative") true (v >= 0.0))
    [ ("p50", p.Summary.p50); ("p90", p.Summary.p90); ("p99", p.Summary.p99);
      ("mean", p.Summary.mean); ("max", p.Summary.max) ];
  (* All-negative input degrades to the all-zero distribution, not NaN. *)
  let s2 = Summary.create () in
  Summary.add s2 ~cost:1.0 ~response_time:(-1.0) ();
  let p2 = Summary.latency_percentiles s2 in
  Alcotest.(check int) "clamped run counted" 1 p2.Summary.n;
  Alcotest.(check (float 1e-9)) "clamped max" 0.0 p2.Summary.max

let test_kind_strings () =
  List.iter
    (fun k ->
      Alcotest.(check bool) "kind round-trips" true
        (Trace.kind_of_string (Trace.kind_to_string k) = k))
    [ Trace.Run; Trace.Optimize; Trace.Postopt; Trace.Step; Trace.Request;
      Trace.Phase "warmup" ]

(* --- Metrics ------------------------------------------------------------- *)

let test_metrics_series () =
  let r = Metrics.create () in
  Metrics.incr r ~labels:[ ("a", "1"); ("b", "2") ] "reqs";
  (* Label order must not split the series. *)
  Metrics.incr r ~labels:[ ("b", "2"); ("a", "1") ] "reqs" ~by:2.0;
  Metrics.gauge r "depth" 7.0;
  Metrics.observe r "sizes" 10;
  Metrics.observe r "sizes" 200;
  let samples = Metrics.snapshot r in
  Alcotest.(check int) "three series" 3 (List.length samples);
  List.iter
    (fun s ->
      match s.Metrics.name, s.Metrics.value with
      | "reqs", Metrics.Vcounter v -> Alcotest.(check (float 1e-9)) "counter" 3.0 v
      | "depth", Metrics.Vgauge v -> Alcotest.(check (float 1e-9)) "gauge" 7.0 v
      | "sizes", Metrics.Vhist h ->
        Alcotest.(check (float 1e-9)) "hist total" 2.0
          (Array.fold_left ( +. ) 0.0 (Fusion_stats.Histogram.counts h))
      | name, _ -> Alcotest.failf "unexpected series %s" name)
    samples

let test_metrics_record_when_off () =
  (* [record] must be a no-op with no registry installed. *)
  Alcotest.(check bool) "none installed" true (Metrics.installed () = None);
  Metrics.record (fun _ -> Alcotest.fail "record ran without a registry")

(* Four domains hammering one registry — same counter series, same
   gauge, same histogram — must lose nothing: the registry serializes
   access with an internal mutex. Against the earlier unguarded
   Hashtbl this crashes or drops increments. *)
let test_metrics_domain_hammer () =
  let r = Metrics.create () in
  let domains = 4 and per = 25_000 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Metrics.incr r ~labels:[ ("shared", "yes") ] "hammer_total";
              Metrics.gauge r "hammer_depth" (float_of_int i);
              Metrics.observe r
                ~spec:{ Metrics.lo = 0; hi = 100; buckets = 10 }
                "hammer_sizes" (i mod 100)
            done))
  in
  List.iter Domain.join workers;
  let samples = Metrics.snapshot r in
  Alcotest.(check int) "three series despite the contention" 3
    (List.length samples);
  List.iter
    (fun s ->
      match (s.Metrics.name, s.Metrics.value) with
      | "hammer_total", Metrics.Vcounter v ->
        Alcotest.(check (float 1e-9)) "every increment counted"
          (float_of_int (domains * per)) v
      | "hammer_depth", Metrics.Vgauge v ->
        Alcotest.(check bool) "gauge holds one of the written values" true
          (v >= 1.0 && v <= float_of_int per)
      | "hammer_sizes", Metrics.Vhist h ->
        Alcotest.(check (float 1e-9)) "every observation bucketed"
          (float_of_int (domains * per))
          (Array.fold_left ( +. ) 0.0 (Fusion_stats.Histogram.counts h))
      | name, _ -> Alcotest.failf "unexpected series %s" name)
    samples

(* install/uninstall race: flipping the registry while another domain
   records through [Metrics.record] must never crash, and everything
   recorded while a registry was installed is accounted there. *)
let test_metrics_install_race () =
  let r = Metrics.create () in
  Metrics.install r;
  let stop = Atomic.make false in
  let flipper =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Metrics.uninstall ();
          Metrics.install r
        done)
  in
  let recorded () =
    List.fold_left
      (fun acc s ->
        match s.Metrics.value with
        | Metrics.Vcounter v when s.Metrics.name = "flippy_total" -> acc +. v
        | _ -> acc)
      0.0 (Metrics.snapshot r)
  in
  (* Hammer until an increment provably lands: with a fixed-length loop
     the flipper can sit descheduled right after an [uninstall], letting
     every record run against the empty slot. *)
  let attempts = ref 0 in
  while recorded () = 0.0 && !attempts < 200 do
    incr attempts;
    for _ = 1 to 50_000 do
      Metrics.record (fun reg -> Metrics.incr reg "flippy_total")
    done
  done;
  Atomic.set stop true;
  Domain.join flipper;
  Metrics.uninstall ();
  Alcotest.(check bool) "no crash, some increments landed" true (recorded () > 0.0)

(* --- JSON codec ---------------------------------------------------------- *)

let test_json_round_trip () =
  let tricky =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\te\x01f");
        ("i", Json.Int (-42));
        ("f", Json.Float 0.1);
        ("tiny", Json.Float 1.2345678901234567e-300);
        ("neg", Json.Float (-0.0));
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 2.5; Json.Str "" ]);
        ("o", Json.Obj [ ("nested", Json.List []) ]);
      ]
  in
  match Json.of_string (Json.to_string tricky) with
  | Ok parsed ->
    Alcotest.(check bool) "structural equality" true (parsed = tricky)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_json_rejects_garbage () =
  List.iter
    (fun text ->
      match Json.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

let json_float_round_trip =
  Helpers.qtest ~count:300 "every float survives JSON text"
    QCheck2.Gen.(float_bound_inclusive 1e9)
    string_of_float
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') -> Int64.bits_of_float f' = Int64.bits_of_float f
      | _ -> false)

(* --- JSONL round-trips --------------------------------------------------- *)

let traced_fig1 () =
  let instance = Workload.fig1 () in
  let mediator = Mediator.create_exn (Array.to_list instance.Workload.sources) in
  let collector = Trace.create () in
  let report =
    Helpers.check_ok
      (Trace.with_collector collector (fun () ->
           Mediator.run mediator instance.Workload.query))
  in
  (collector, report)

let test_jsonl_round_trip () =
  let collector, report = traced_fig1 () in
  let registry = Metrics.create () in
  Metrics.incr registry ~labels:[ ("source", "R1") ] "fusion_requests_total" ~by:4.0;
  Metrics.observe registry "fusion_answer_size" (Fusion_data.Item_set.cardinal report.Mediator.answer);
  let metrics = Metrics.snapshot registry in
  let spans = Trace.spans collector in
  Alcotest.(check bool) "trace is non-trivial" true (List.length spans > 3);
  let text = Jsonl.export ~metrics spans in
  let spans', samples' = Helpers.check_ok (Jsonl.parse text) in
  Alcotest.(check bool) "spans round-trip exactly" true (spans' = spans);
  Alcotest.(check int) "samples survive" (List.length metrics) (List.length samples');
  (* Re-exporting the parsed lines reproduces the file byte-for-byte. *)
  Alcotest.(check string) "re-export is identical" text (Jsonl.export ~metrics:samples' spans')

let test_jsonl_rejects_unknown () =
  (match Jsonl.parse "{\"type\":\"widget\"}" with
  | Ok _ -> Alcotest.fail "accepted unknown line type"
  | Error _ -> ());
  match Jsonl.parse "not json at all" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ()

(* --- end-to-end acceptance ----------------------------------------------- *)

(* The sum of the source-request spans' costs is the run's actual cost:
   every meter charge happens inside exactly one [Request] span. *)
let test_request_spans_reproduce_actual_cost () =
  let collector, report = traced_fig1 () in
  let requests =
    List.filter (fun s -> s.Trace.kind = Trace.Request) report.Mediator.trace
  in
  Alcotest.(check bool) "has request spans" true (requests <> []);
  let by_charge = List.fold_left (fun acc s -> acc +. Trace.cost s) 0.0 requests in
  let by_attr =
    List.fold_left
      (fun acc s ->
        match Trace.find_attr s "cost" with
        | Some (Trace.Float c) -> acc +. c
        | _ -> Alcotest.failf "request span %s lacks a cost attr" s.Trace.name)
      0.0 requests
  in
  Alcotest.(check (float 1e-6)) "charges sum to actual cost"
    report.Mediator.actual_cost by_charge;
  Alcotest.(check (float 1e-6)) "cost attrs sum to actual cost"
    report.Mediator.actual_cost by_attr;
  ignore collector

(* Per source, the request spans' "requests" attributes add up to what
   that source's meter counted — including emulated semijoins, where one
   span covers many metered lookups. *)
let test_request_spans_match_meters () =
  let _, report = traced_fig1 () in
  let span_requests name =
    List.fold_left
      (fun acc s ->
        match Trace.find_attr s "source", Trace.find_attr s "requests" with
        | Some (Trace.Str n), Some (Trace.Int r) when n = name -> acc + r
        | _ -> acc)
      0 report.Mediator.trace
  in
  Alcotest.(check bool) "several sources" true (List.length report.Mediator.per_source >= 2);
  List.iter
    (fun (name, totals) ->
      Alcotest.(check int)
        (Printf.sprintf "span requests match meter for %s" name)
        totals.Fusion_net.Meter.requests (span_requests name))
    report.Mediator.per_source

let test_trace_shape () =
  let _, report = traced_fig1 () in
  match Trace.roots report.Mediator.trace with
  | [ root ] ->
    Alcotest.(check bool) "root is the run span" true
      (root.Trace.kind = Trace.Run && root.Trace.name = "mediator.run");
    let kids = Trace.children report.Mediator.trace root.Trace.id in
    Alcotest.(check bool) "optimizer span under the run" true
      (List.exists (fun s -> s.Trace.kind = Trace.Optimize) kids);
    Alcotest.(check bool) "step spans under the run" true
      (List.exists (fun s -> s.Trace.kind = Trace.Step) kids)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

(* Tracing must not perturb the computation: the reports of an untraced
   and a traced run agree on everything but the trace itself. *)
let test_tracing_is_zero_overhead () =
  let run traced =
    let instance = Workload.fig1 () in
    let mediator = Mediator.create_exn (Array.to_list instance.Workload.sources) in
    let run () = Mediator.run mediator instance.Workload.query in
    Helpers.check_ok (if traced then Trace.with_collector (Trace.create ()) run else run ())
  in
  let off = run false and on = run true in
  Alcotest.(check bool) "no trace when off" true (off.Mediator.trace = []);
  Alcotest.(check bool) "trace when on" true (on.Mediator.trace <> []);
  Alcotest.check Helpers.item_set "same answer" off.Mediator.answer on.Mediator.answer;
  Alcotest.(check (float 1e-9)) "same actual cost" off.Mediator.actual_cost
    on.Mediator.actual_cost;
  Alcotest.(check (float 1e-9)) "same estimated cost"
    off.Mediator.optimized.Optimized.est_cost on.Mediator.optimized.Optimized.est_cost;
  Alcotest.(check bool) "same steps" true (off.Mediator.steps = on.Mediator.steps);
  Alcotest.(check bool) "same per-source meters" true
    (off.Mediator.per_source = on.Mediator.per_source);
  Alcotest.(check int) "same failures" off.Mediator.failures on.Mediator.failures;
  Alcotest.(check bool) "same partial flag" off.Mediator.partial on.Mediator.partial

let test_cache_hit_miss_attrs () =
  let instance = Workload.fig1 () in
  let mediator = Mediator.create_exn (Array.to_list instance.Workload.sources) in
  let cache = Fusion_plan.Exec.Query_cache.create () in
  let collector = Trace.create () in
  (* Filter always issues sq/sjq (the cacheable ops); SJA+ may post-opt
     the whole plan into loads, which never consult the cache. *)
  let run () =
    Helpers.check_ok
      (Trace.with_collector collector (fun () ->
           Mediator.run
             ~config:
               {
                 Mediator.Config.default with
                 Mediator.Config.algo = Optimizer.Filter;
                 cache = Some cache;
               }
             mediator instance.Workload.query))
  in
  let first = run () and second = run () in
  let outcome report =
    List.fold_left
      (fun (hits, misses) s ->
        match Trace.find_attr s "cache" with
        | Some (Trace.Str "hit") -> (hits + 1, misses)
        | Some (Trace.Str "miss") -> (hits, misses + 1)
        | _ -> (hits, misses))
      (0, 0) report.Mediator.trace
  in
  let h1, m1 = outcome first and h2, m2 = outcome second in
  Alcotest.(check int) "first run never hits" 0 h1;
  Alcotest.(check bool) "first run misses" true (m1 > 0);
  Alcotest.(check bool) "second run hits" true (h2 > 0);
  Alcotest.(check int) "second run never misses" 0 m2

let test_run_metrics () =
  let instance = Workload.fig1 () in
  let mediator = Mediator.create_exn (Array.to_list instance.Workload.sources) in
  let registry = Metrics.create () in
  let report =
    Metrics.with_registry registry (fun () ->
        Helpers.check_ok (Mediator.run mediator instance.Workload.query))
  in
  let meter_requests =
    List.fold_left
      (fun acc (_, t) -> acc + t.Fusion_net.Meter.requests)
      0 report.Mediator.per_source
  in
  let counter name =
    List.fold_left
      (fun acc s ->
        match s.Metrics.value with
        | Metrics.Vcounter v when s.Metrics.name = name -> acc +. v
        | _ -> acc)
      0.0 (Metrics.snapshot registry)
  in
  Alcotest.(check (float 1e-9)) "request counter matches meters"
    (float_of_int meter_requests)
    (counter "fusion_requests_total");
  Alcotest.(check (float 1e-6)) "cost counter matches actual cost"
    report.Mediator.actual_cost
    (counter "fusion_request_cost_total");
  Alcotest.(check (float 1e-9)) "one run recorded" 1.0 (counter "fusion_runs_total")

let suite =
  [
    Alcotest.test_case "disabled tracing is a no-op" `Quick test_trace_disabled_is_noop;
    Alcotest.test_case "span nesting, attrs and charges" `Quick test_trace_nesting_and_attrs;
    Alcotest.test_case "spans finish on exceptions" `Quick test_trace_finishes_on_exception;
    Alcotest.test_case "mark brackets a region" `Quick test_trace_mark_brackets;
    Alcotest.test_case "kind strings round-trip" `Quick test_kind_strings;
    Alcotest.test_case "backwards wall clock" `Quick test_trace_backwards_clock;
    Alcotest.test_case "summary on real-clock latencies" `Quick
      test_summary_real_clock_latencies;
    Alcotest.test_case "metrics series" `Quick test_metrics_series;
    Alcotest.test_case "metrics record when off" `Quick test_metrics_record_when_off;
    Alcotest.test_case "metrics domain hammer" `Quick test_metrics_domain_hammer;
    Alcotest.test_case "metrics install race" `Quick test_metrics_install_race;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    json_float_round_trip;
    Alcotest.test_case "jsonl round trip" `Quick test_jsonl_round_trip;
    Alcotest.test_case "jsonl rejects unknown lines" `Quick test_jsonl_rejects_unknown;
    Alcotest.test_case "request spans reproduce actual cost" `Quick
      test_request_spans_reproduce_actual_cost;
    Alcotest.test_case "request spans match meters" `Quick test_request_spans_match_meters;
    Alcotest.test_case "trace shape" `Quick test_trace_shape;
    Alcotest.test_case "tracing is zero overhead" `Quick test_tracing_is_zero_overhead;
    Alcotest.test_case "cache hit and miss attrs" `Quick test_cache_hit_miss_attrs;
    Alcotest.test_case "run metrics" `Quick test_run_metrics;
  ]
