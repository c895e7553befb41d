(* Golden-output regression tests: the exact renderings of the DMV
   example's (Figure 1) SJA+ and Filter plans through Plan_text,
   Plan_dot and Explain. Any intentional change to these formats should
   update the literals below — the point is that such changes are
   explicit, reviewed diffs rather than silent drift.

   The literals were generated from this very code path; regenerate by
   printing the corresponding [to_string]/[pp] output for
   [Workload.fig1 ()]. *)

open Fusion_core
open Fusion_plan
module Workload = Fusion_workload.Workload

let sja_plus_text = "L3 := lq(R3)\nL2 := lq(R2)\nL1 := lq(R1)\nX1_1 := lsq(c1, L1)\nX1_2 := lsq(c1, L2)\nX1_3 := lsq(c1, L3)\nX1 := union(X1_1, X1_2, X1_3)\nX2_1 := lsq(c2, L1)\nS2 := union(X2_1)\nD2_1 := diff(X1, S2)\nX2_2_t := lsq(c2, L2)\nX2_2 := inter(X2_2_t, D2_1)\nD2_2 := diff(D2_1, X2_2)\nX2_3_t := lsq(c2, L3)\nX2_3 := inter(X2_3_t, D2_2)\nU2 := union(X2_1, X2_2, X2_3)\nX2 := inter(X1, U2)\nanswer X2\n"

let filter_text = "X1_1 := sq(c1, R1)\nX1_2 := sq(c1, R2)\nX1_3 := sq(c1, R3)\nX1 := union(X1_1, X1_2, X1_3)\nX2_1 := sq(c2, R1)\nX2_2 := sq(c2, R2)\nX2_3 := sq(c2, R3)\nU2 := union(X2_1, X2_2, X2_3)\nX2 := inter(X1, U2)\nanswer X2\n"

let sja_plus_dot = "digraph plan {\n  rankdir=TB;\n  node [fontsize=11];\n  n0 [label=\"L3 := lq(R3)\", shape=box3d];\n  n1 [label=\"L2 := lq(R2)\", shape=box3d];\n  n2 [label=\"L1 := lq(R1)\", shape=box3d];\n  n3 [label=\"X1_1 := sq(c1, local)\", shape=ellipse];\n  n2 -> n3;\n  n4 [label=\"X1_2 := sq(c1, local)\", shape=ellipse];\n  n1 -> n4;\n  n5 [label=\"X1_3 := sq(c1, local)\", shape=ellipse];\n  n0 -> n5;\n  n6 [label=\"X1 := \226\136\170\", shape=ellipse];\n  n3 -> n6;\n  n4 -> n6;\n  n5 -> n6;\n  n7 [label=\"X2_1 := sq(c2, local)\", shape=ellipse];\n  n2 -> n7;\n  n8 [label=\"S2 := \226\136\170\", shape=ellipse];\n  n7 -> n8;\n  n9 [label=\"D2_1 := \226\136\146\", shape=ellipse];\n  n6 -> n9;\n  n8 -> n9;\n  n10 [label=\"X2_2_t := sq(c2, local)\", shape=ellipse];\n  n1 -> n10;\n  n11 [label=\"X2_2 := \226\136\169\", shape=ellipse];\n  n10 -> n11;\n  n9 -> n11;\n  n12 [label=\"D2_2 := \226\136\146\", shape=ellipse];\n  n9 -> n12;\n  n11 -> n12;\n  n13 [label=\"X2_3_t := sq(c2, local)\", shape=ellipse];\n  n0 -> n13;\n  n14 [label=\"X2_3 := \226\136\169\", shape=ellipse];\n  n13 -> n14;\n  n12 -> n14;\n  n15 [label=\"U2 := \226\136\170\", shape=ellipse];\n  n7 -> n15;\n  n11 -> n15;\n  n14 -> n15;\n  n16 [label=\"X2 := \226\136\169\", shape=ellipse];\n  n6 -> n16;\n  n15 -> n16;\n  answer [shape=doublecircle, label=\"answer\"];\n  n16 -> answer;\n}\n"

let sja_plus_explain = " 1) L3 := lq(R3)                           cost     74.0 /    74.0   rows      3.0 /     3\n 2) L2 := lq(R2)                           cost     74.0 /    74.0   rows      3.0 /     3\n 3) L1 := lq(R1)                           cost     74.0 /    74.0   rows      3.0 /     3\n 4) X1_1 := sq(c1, L1)                     cost      0.0 /     0.0   rows      2.0 /     2\n 5) X1_2 := sq(c1, L2)                     cost      0.0 /     0.0   rows      1.0 /     1\n 6) X1_3 := sq(c1, L3)                     cost      0.0 /     0.0   rows      0.0 /     0\n 7) X1 := X1_1 \226\136\170 X1_2 \226\136\170 X1_3           cost      0.0 /     0.0   rows      3.0 /     3\n 8) X2_1 := sq(c2, L1)                     cost      0.0 /     0.0   rows      1.0 /     1\n 9) S2 := X2_1                             cost      0.0 /     0.0   rows      1.0 /     1\n10) D2_1 := X1 - S2                        cost      0.0 /     0.0   rows      3.0 /     2\n11) X2_2_t := sq(c2, L2)                   cost      0.0 /     0.0   rows      2.0 /     2\n12) X2_2 := X2_2_t \226\136\169 D2_1                cost      0.0 /     0.0   rows      0.0 /     1\n13) D2_2 := D2_1 - X2_2                    cost      0.0 /     0.0   rows      3.0 /     1\n14) X2_3_t := sq(c2, L3)                   cost      0.0 /     0.0   rows      2.0 /     2\n15) X2_3 := X2_3_t \226\136\169 D2_2                cost      0.0 /     0.0   rows      0.0 /     0\n16) U2 := X2_1 \226\136\170 X2_2 \226\136\170 X2_3           cost      0.0 /     0.0   rows      0.0 /     2\n17) X2 := X1 \226\136\169 U2                        cost      0.0 /     0.0   rows      0.0 /     2\ntotal                                      222.0 /   222.0"

let fig1_env () =
  let instance = Workload.fig1 () in
  let env =
    Opt_env.create ~universe:instance.Workload.spec.Workload.universe
      instance.Workload.sources instance.Workload.query
  in
  (instance, env)

let plan_of env algo = (Optimizer.optimize algo env).Optimized.plan

let test_plan_text_golden () =
  let _, env = fig1_env () in
  Alcotest.(check string) "sja+ plan text" sja_plus_text
    (Plan_text.to_string (plan_of env Optimizer.Sja_plus));
  Alcotest.(check string) "filter plan text" filter_text
    (Plan_text.to_string (plan_of env Optimizer.Filter))

let test_plan_dot_golden () =
  let _, env = fig1_env () in
  Alcotest.(check string) "sja+ dot" sja_plus_dot
    (Plan_dot.to_string (plan_of env Optimizer.Sja_plus))

let test_explain_golden () =
  let instance, env = fig1_env () in
  let plan = plan_of env Optimizer.Sja_plus in
  let result = Helpers.execute_plan instance plan in
  let explain =
    Explain.analyze ~model:env.Opt_env.model ~est:env.Opt_env.est
      ~sources:env.Opt_env.sources ~conds:env.Opt_env.conds plan result.Exec.steps
  in
  Alcotest.(check string) "sja+ explain" sja_plus_explain
    (Format.asprintf "%a" (Explain.pp ?source_name:None) explain)

(* The golden plan text is not just stable — it still parses back to
   the plan it came from. *)
let test_golden_text_reparses () =
  let _, env = fig1_env () in
  List.iter
    (fun (label, text, algo) ->
      let plan = Helpers.check_ok (Plan_text.of_string text) in
      Alcotest.(check bool) label true (plan = plan_of env algo))
    [
      ("sja+ reparses", sja_plus_text, Optimizer.Sja_plus);
      ("filter reparses", filter_text, Optimizer.Filter);
    ]

(* --- exporter goldens ----------------------------------------------------

   A tiny deterministic two-step trace (fixed clock, hand-set schedule
   attributes) and metrics registry, rendered through the Chrome
   trace-event and Prometheus exporters. As above: format changes must
   show up as explicit diffs to these literals. *)

module Trace = Fusion_obs.Trace
module Metrics = Fusion_obs.Metrics
module Analyze = Fusion_obs.Analyze

let golden_spans () =
  let c = Trace.create ~clock:(fun () -> 0.0) () in
  Trace.with_collector c (fun () ->
      Trace.span Trace.Run "mediator.run" (fun ctx ->
          Trace.attr ctx "algo" (Trace.Str "sja+");
          Trace.span Trace.Step "sq" (fun ctx ->
              Trace.charge ctx 10.0;
              Trace.attrs ctx
                [
                  ("dst", Trace.Str "X1");
                  ("cost", Trace.Float 10.0);
                  ("t_start", Trace.Float 0.0);
                  ("t_finish", Trace.Float 10.0);
                  ("task", Trace.Int 0);
                  ("server", Trace.Int 0);
                  ("deps", Trace.Str "");
                  ("dispatched", Trace.Bool true);
                ]);
          Trace.span Trace.Step "sjq" (fun ctx ->
              Trace.charge ctx 5.0;
              Trace.attrs ctx
                [
                  ("dst", Trace.Str "X2");
                  ("cost", Trace.Float 5.0);
                  ("t_start", Trace.Float 10.0);
                  ("t_finish", Trace.Float 15.0);
                  ("task", Trace.Int 1);
                  ("server", Trace.Int 1);
                  ("deps", Trace.Str "0");
                  ("dispatched", Trace.Bool true);
                ])));
  Trace.spans c

let golden_registry () =
  let r = Metrics.create () in
  Metrics.incr r ~labels:[ ("source", "R1"); ("op", "sq") ] "fusion_requests_total";
  Metrics.incr r ~labels:[ ("source", "R1"); ("op", "sq") ] "fusion_requests_total";
  Metrics.incr r ~labels:[ ("source", "R2"); ("op", "sjq") ] "fusion_requests_total";
  Metrics.gauge r "fusion_sources" 2.0;
  Metrics.observe r ~spec:{ Metrics.lo = 0; hi = 16; buckets = 4 } "fusion_answer_size" 3;
  Metrics.observe r ~spec:{ Metrics.lo = 0; hi = 16; buckets = 4 } "fusion_answer_size" 13;
  r

let chrome_golden = "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"cost clock\"}},{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"spans\"}},{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"simulated schedule\"}},{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"R1\"}},{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"R2\"}},{\"name\":\"mediator.run\",\"cat\":\"run\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0.0,\"dur\":15.0,\"args\":{\"span\":0,\"algo\":\"sja+\"}},{\"name\":\"sq\",\"cat\":\"step\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0.0,\"dur\":10.0,\"args\":{\"span\":1,\"parent\":0,\"dst\":\"X1\",\"cost\":10.0,\"t_start\":0.0,\"t_finish\":10.0,\"task\":0,\"server\":0,\"deps\":\"\",\"dispatched\":true}},{\"name\":\"sjq\",\"cat\":\"step\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":10.0,\"dur\":5.0,\"args\":{\"span\":2,\"parent\":0,\"dst\":\"X2\",\"cost\":5.0,\"t_start\":10.0,\"t_finish\":15.0,\"task\":1,\"server\":1,\"deps\":\"0\",\"dispatched\":true}},{\"name\":\"X1 := sq\",\"cat\":\"schedule\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.0,\"dur\":10.0,\"args\":{\"span\":1,\"parent\":0,\"dst\":\"X1\",\"cost\":10.0,\"t_start\":0.0,\"t_finish\":10.0,\"task\":0,\"server\":0,\"deps\":\"\",\"dispatched\":true}},{\"name\":\"X2 := sjq\",\"cat\":\"schedule\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":10.0,\"dur\":5.0,\"args\":{\"span\":2,\"parent\":0,\"dst\":\"X2\",\"cost\":5.0,\"t_start\":10.0,\"t_finish\":15.0,\"task\":1,\"server\":1,\"deps\":\"0\",\"dispatched\":true}}],\"displayTimeUnit\":\"ms\"}"

let prom_golden =
  "# TYPE fusion_requests_total counter\n\
   fusion_requests_total{op=\"sq\",source=\"R1\"} 2\n\
   fusion_requests_total{op=\"sjq\",source=\"R2\"} 1\n\
   # TYPE fusion_sources gauge\n\
   fusion_sources 2\n\
   # HELP fusion_answer_size bucketed values (sum approximated from bucket midpoints)\n\
   # TYPE fusion_answer_size histogram\n\
   fusion_answer_size_bucket{le=\"4.25\"} 1\n\
   fusion_answer_size_bucket{le=\"8.5\"} 1\n\
   fusion_answer_size_bucket{le=\"12.75\"} 1\n\
   fusion_answer_size_bucket{le=\"17\"} 2\n\
   fusion_answer_size_bucket{le=\"+Inf\"} 2\n\
   fusion_answer_size_sum 17\n\
   fusion_answer_size_count 2\n"

let test_chrome_golden () =
  Alcotest.(check string) "chrome trace-event json" chrome_golden
    (Fusion_obs.Chrome.to_string (golden_spans ()))

let test_prom_golden () =
  Alcotest.(check string) "prometheus exposition" prom_golden
    (Fusion_obs.Prom.of_registry (golden_registry ()))

(* All three metric kinds under labels, with the histogram family split
   over two label sets and the families' samples deliberately
   interleaved at registration: the exposition must still emit each
   family contiguously, TYPE (and HELP for histograms) exactly once,
   and the per-label-set _sum/_count lines. *)
let labeled_registry () =
  let r = Metrics.create () in
  let spec = { Metrics.lo = 0; hi = 8; buckets = 2 } in
  Metrics.observe r ~spec ~labels:[ ("tenant", "t1") ] "fusion_serve_response_time" 2;
  Metrics.incr r ~labels:[ ("shard", "s0") ] "fusion_serve_submitted_total";
  Metrics.observe r ~spec ~labels:[ ("tenant", "t2") ] "fusion_serve_response_time" 7;
  Metrics.gauge r ~labels:[ ("tenant", "t1") ] "fusion_serve_window_p99" 0.5;
  Metrics.incr r ~labels:[ ("shard", "s1") ] "fusion_serve_submitted_total";
  Metrics.observe r ~spec ~labels:[ ("tenant", "t1") ] "fusion_serve_response_time" 5;
  r

let prom_labeled_golden =
  "# HELP fusion_serve_response_time bucketed values (sum approximated from bucket midpoints)\n\
   # TYPE fusion_serve_response_time histogram\n\
   fusion_serve_response_time_bucket{tenant=\"t1\",le=\"4.5\"} 1\n\
   fusion_serve_response_time_bucket{tenant=\"t1\",le=\"9\"} 2\n\
   fusion_serve_response_time_bucket{tenant=\"t1\",le=\"+Inf\"} 2\n\
   fusion_serve_response_time_sum{tenant=\"t1\"} 9\n\
   fusion_serve_response_time_count{tenant=\"t1\"} 2\n\
   fusion_serve_response_time_bucket{tenant=\"t2\",le=\"4.5\"} 0\n\
   fusion_serve_response_time_bucket{tenant=\"t2\",le=\"9\"} 1\n\
   fusion_serve_response_time_bucket{tenant=\"t2\",le=\"+Inf\"} 1\n\
   fusion_serve_response_time_sum{tenant=\"t2\"} 6.75\n\
   fusion_serve_response_time_count{tenant=\"t2\"} 1\n\
   # TYPE fusion_serve_submitted_total counter\n\
   fusion_serve_submitted_total{shard=\"s0\"} 1\n\
   fusion_serve_submitted_total{shard=\"s1\"} 1\n\
   # TYPE fusion_serve_window_p99 gauge\n\
   fusion_serve_window_p99{tenant=\"t1\"} 0.5\n"

let test_prom_labeled_golden () =
  Alcotest.(check string) "labeled prometheus exposition" prom_labeled_golden
    (Fusion_obs.Prom.of_registry (labeled_registry ()))

(* Two raw names that sanitize to the same family ("fusion latency" and
   "fusion.latency"), registered either side of another family: the
   exposition groups by the sanitized name, so the family is one
   contiguous block with a single TYPE line. *)
let test_prom_sanitized_grouping () =
  let r = Metrics.create () in
  Metrics.incr r ~labels:[ ("k", "a") ] "fusion latency";
  Metrics.gauge r "fusion_other" 1.0;
  Metrics.incr r ~labels:[ ("k", "b") ] "fusion.latency";
  let expected =
    "# TYPE fusion_latency counter\n\
     fusion_latency{k=\"a\"} 1\n\
     fusion_latency{k=\"b\"} 1\n\
     # TYPE fusion_other gauge\n\
     fusion_other 1\n"
  in
  Alcotest.(check string) "collided names form one contiguous family" expected
    (Fusion_obs.Prom.of_registry r)

(* JSONL -> span tree -> flatten -> JSONL is the identity on id-sorted
   input: ids are assigned in opening order, so the pre-order traversal
   of the rebuilt tree re-exports byte-identically. *)
let test_jsonl_tree_round_trip () =
  let metrics = Metrics.snapshot (golden_registry ()) in
  let sorted =
    List.sort (fun a b -> compare a.Trace.id b.Trace.id) (golden_spans ())
  in
  let exported = Fusion_obs.Jsonl.export ~metrics sorted in
  let spans, samples = Helpers.check_ok (Fusion_obs.Jsonl.parse exported) in
  let rebuilt = Analyze.flatten (Analyze.tree spans) in
  Alcotest.(check string) "round trip is the identity" exported
    (Fusion_obs.Jsonl.export ~metrics:samples rebuilt)

let suite =
  [
    Alcotest.test_case "plan text golden" `Quick test_plan_text_golden;
    Alcotest.test_case "plan dot golden" `Quick test_plan_dot_golden;
    Alcotest.test_case "explain golden" `Quick test_explain_golden;
    Alcotest.test_case "golden text reparses" `Quick test_golden_text_reparses;
    Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
    Alcotest.test_case "prometheus golden" `Quick test_prom_golden;
    Alcotest.test_case "prometheus labeled golden" `Quick test_prom_labeled_golden;
    Alcotest.test_case "prometheus sanitized grouping" `Quick
      test_prom_sanitized_grouping;
    Alcotest.test_case "jsonl tree round trip" `Quick test_jsonl_tree_round_trip;
  ]
