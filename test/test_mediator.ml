(* Mediator runtime: end-to-end SQL → plan → answer, two-phase
   processing, per-source accounting. *)

open Fusion_data
open Fusion_core
module Workload = Fusion_workload.Workload
module Mediator = Fusion_mediator.Mediator

let fig1_mediator () =
  let instance = Workload.fig1 () in
  (instance, Mediator.create_exn (Array.to_list instance.Workload.sources))

let dmv_sql =
  "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"

let expected = Helpers.items_of_strings [ "J55"; "T21" ]

let test_create_rejects_empty_and_mismatched () =
  ignore (Helpers.check_err "empty" (Mediator.create []));
  let instance = Workload.fig1 () in
  let other =
    Fusion_source.Source.create
      (Helpers.abc_relation [ Helpers.abc_row "k" 1 "x" ])
  in
  ignore
    (Helpers.check_err "schema mismatch"
       (Mediator.create (other :: Array.to_list instance.Workload.sources)))

let test_run_sql_every_algorithm () =
  let _, mediator = fig1_mediator () in
  List.iter
    (fun algo ->
      let report = Helpers.check_ok (Mediator.run_sql
          ~config:{ Mediator.Config.default with Mediator.Config.algo }
          mediator dmv_sql) in
      Alcotest.check Helpers.item_set (Optimizer.name algo) expected
        report.Mediator.answer)
    Optimizer.all

let test_run_sql_rejects_non_fusion () =
  let _, mediator = fig1_mediator () in
  ignore
    (Helpers.check_err "non-fusion"
       (Mediator.run_sql mediator
          "SELECT u1.V FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui'"));
  ignore (Helpers.check_err "parse error" (Mediator.run_sql mediator "SELECT FROM"))

let test_run_rejects_invalid_query () =
  let _, mediator = fig1_mediator () in
  let bad =
    Fusion_query.Query.create_exn [ Fusion_cond.Cond.Cmp ("Z", Fusion_cond.Cond.Eq, Value.Int 1) ]
  in
  ignore (Helpers.check_err "invalid" (Mediator.run mediator bad))

let test_runtime_config () =
  let _, mediator = fig1_mediator () in
  (* The domains runtime answers exactly what the simulator answers,
     and its schedule still yields a critical path. *)
  let config = { Mediator.Config.default with Mediator.Config.runtime = `Domains 2 } in
  let report = Helpers.check_ok (Mediator.run_sql ~config mediator dmv_sql) in
  Alcotest.check Helpers.item_set "domains answer" expected report.Mediator.answer;
  Alcotest.(check bool) "critical path present" true
    (report.Mediator.critical_path.Fusion_obs.Analyze.hops <> []);
  (* Wall-clock seconds print as milliseconds, with the unit. *)
  let expected_line =
    Format.asprintf "actual cost: %.1f (response time %.3f ms)" report.Mediator.actual_cost
      (report.Mediator.response_time *. 1000.0)
  in
  Alcotest.(check bool) "response time printed in ms" true
    (List.mem expected_line
       (String.split_on_char '\n' (Format.asprintf "%a" Mediator.pp_report report)))

(* The TCP front end, in-process: a server thread on an ephemeral
   loopback port, a blocking client sending two good statements and one
   bad one, answers checked against the known fig1 result. *)
let test_tcp_front () =
  let module Tcp = Fusion_mediator.Tcp_front in
  let _, mediator = fig1_mediator () in
  let loopback = Unix.ADDR_INET (Unix.inet_addr_loopback, 0) in
  ignore
    (Helpers.check_err "sim runtime rejected"
       (Tcp.serve ~max_queries:1 ~listen:loopback mediator));
  let config =
    { Mediator.Config.default with Mediator.Config.runtime = `Domains 2 }
  in
  let addr = ref None and result = ref (Error "server never ran") in
  let m = Mutex.create () and cv = Condition.create () in
  let on_listen a =
    Mutex.lock m;
    addr := Some a;
    Condition.signal cv;
    Mutex.unlock m
  in
  let server =
    Thread.create
      (fun () ->
        result := Tcp.serve ~config ~max_queries:3 ~on_listen ~listen:loopback mediator)
      ()
  in
  Mutex.lock m;
  while !addr = None do
    Condition.wait cv m
  done;
  let connect = Option.get !addr in
  Mutex.unlock m;
  let responses =
    Helpers.check_ok (Tcp.client ~connect [ dmv_sql; "SELECT nonsense"; dmv_sql ])
  in
  Thread.join server;
  Alcotest.(check int) "three responses" 3 (List.length responses);
  let starts p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  let oks = List.filter (starts "ok ") responses in
  Alcotest.(check int) "two answers" 2 (List.length oks);
  Alcotest.(check int) "one parse error" 1
    (List.length (List.filter (starts "error ") responses));
  let rows = Printf.sprintf "rows=%d" (Item_set.cardinal expected) in
  List.iter
    (fun l ->
      let contains =
        let n = String.length rows and h = String.length l in
        let rec go i = i + n <= h && (String.sub l i n = rows || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "answer cardinality in the response" true contains)
    oks;
  let report = Helpers.check_ok !result in
  Alcotest.(check int) "received" 3 report.Tcp.received;
  Alcotest.(check int) "rejected" 1 report.Tcp.rejected;
  Alcotest.(check int) "connections" 1 report.Tcp.connections;
  Alcotest.(check bool) "conserves" true
    (Fusion_serve.Server.conservation_ok report.Tcp.stats)

(* A client streaming an unbounded line gets an error and a closed
   connection; another client is served meanwhile. The overlong line
   counts as one received, rejected statement. *)
let test_tcp_front_line_bound () =
  let module Tcp = Fusion_mediator.Tcp_front in
  let _, mediator = fig1_mediator () in
  let loopback = Unix.ADDR_INET (Unix.inet_addr_loopback, 0) in
  let config =
    { Mediator.Config.default with Mediator.Config.runtime = `Domains 2 }
  in
  let addr = ref None and result = ref (Error "server never ran") in
  let m = Mutex.create () and cv = Condition.create () in
  let on_listen a =
    Mutex.lock m;
    addr := Some a;
    Condition.signal cv;
    Mutex.unlock m
  in
  let server =
    Thread.create
      (fun () ->
        result := Tcp.serve ~config ~max_queries:2 ~on_listen ~listen:loopback mediator)
      ()
  in
  Mutex.lock m;
  while !addr = None do
    Condition.wait cv m
  done;
  let connect = Option.get !addr in
  Mutex.unlock m;
  let fd = Unix.socket (Unix.domain_of_sockaddr connect) Unix.SOCK_STREAM 0 in
  Unix.connect fd connect;
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  output_string oc (String.make 65537 'x');
  flush oc;
  let reply = input_line ic in
  Alcotest.(check bool) ("overlong line rejected: " ^ reply) true
    (String.starts_with ~prefix:"error " reply);
  Alcotest.(check bool) "connection closed after the error" true
    (match input_line ic with _ -> false | exception End_of_file -> true);
  close_in ic;
  let responses = Helpers.check_ok (Tcp.client ~connect [ dmv_sql ]) in
  Alcotest.(check bool) "other connection still served" true
    (List.for_all (String.starts_with ~prefix:"ok ") responses);
  Thread.join server;
  let report = Helpers.check_ok !result in
  Alcotest.(check int) "received" 2 report.Tcp.received;
  Alcotest.(check int) "rejected" 1 report.Tcp.rejected;
  Alcotest.(check int) "connections" 2 report.Tcp.connections

(* The admin plane, in-process: a serve run with an admin listener on a
   second ephemeral loopback port, scraped with the blocking HTTP
   client between client batches. The exposition must carry the runtime
   and serving metric families, /statusz must parse as JSON with the
   operational sections, and the zero-threshold slow log must have seen
   the query. *)
let test_admin_front () =
  let module Tcp = Fusion_mediator.Tcp_front in
  let module Admin = Fusion_mediator.Admin_front in
  let module Json = Fusion_obs.Json in
  let _, mediator = fig1_mediator () in
  let loopback = Unix.ADDR_INET (Unix.inet_addr_loopback, 0) in
  let config =
    { Mediator.Config.default with Mediator.Config.runtime = `Domains 2 }
  in
  let addr = ref None and admin = ref None in
  let result = ref (Error "server never ran") in
  let m = Mutex.create () and cv = Condition.create () in
  let set cell a =
    Mutex.lock m;
    cell := Some a;
    Condition.signal cv;
    Mutex.unlock m
  in
  let server =
    Thread.create
      (fun () ->
        result :=
          Tcp.serve ~config ~max_queries:2 ~window:30.0 ~slow_threshold:0.0
            ~admin:loopback ~admin_on_listen:(set admin) ~on_listen:(set addr)
            ~listen:loopback mediator)
      ()
  in
  Mutex.lock m;
  while !addr = None || !admin = None do
    Condition.wait cv m
  done;
  let connect = Option.get !addr and admin_addr = Option.get !admin in
  Mutex.unlock m;
  let get path = Helpers.check_ok (Admin.http_get ~connect:admin_addr path) in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (* Health before any query traffic. *)
  let code, body = get "/healthz" in
  Alcotest.(check int) "healthz 200" 200 code;
  Alcotest.(check string) "healthz body" "ok\n" body;
  (* One query through the front end, then scrape mid-run. *)
  ignore (Helpers.check_ok (Tcp.client ~connect [ dmv_sql ]));
  let code, metrics = get "/metrics" in
  Alcotest.(check int) "metrics 200" 200 code;
  List.iter
    (fun family ->
      Alcotest.(check bool) (family ^ " exported") true (contains family metrics))
    [
      "fusion_rt_pool_domains";
      "fusion_rt_fibres_live";
      "fusion_serve_queued";
      "fusion_serve_window_p99";
      "# TYPE";
    ];
  let code, status = get "/statusz" in
  Alcotest.(check int) "statusz 200" 200 code;
  let j = Helpers.check_ok (Json.of_string status) in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("statusz has " ^ key) true (Json.member key j <> None))
    [
      "uptime_seconds"; "runtime"; "policy"; "stats"; "shed_by_reason";
      "pool"; "scheduler"; "cache"; "tenants"; "slow_queries";
    ];
  Alcotest.(check (option string)) "runtime names the backend" (Some "domains:2")
    (Option.bind (Json.member "runtime" j) Json.to_str);
  Alcotest.(check (option (float 0.0))) "window span surfaced" (Some 30.0)
    (Option.bind (Json.member "window_span_seconds" j) Json.to_float);
  (match Json.member "tenants" j with
  | Some (Json.List (t :: _)) ->
    Alcotest.(check bool) "tenant has a window block" true
      (Json.member "window" t <> None)
  | _ -> Alcotest.fail "statusz lists no tenants");
  (match Json.member "slow_queries" j with
  | Some (Json.Obj _ as sq) ->
    (match Json.member "entries" sq with
    | Some (Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "zero-threshold slow log saw no entries")
  | _ -> Alcotest.fail "slow_queries missing from statusz");
  let code, _ = get "/nope" in
  Alcotest.(check int) "unknown path is a 404" 404 code;
  (* The second query lets the server reach max_queries and exit. *)
  ignore (Helpers.check_ok (Tcp.client ~connect [ dmv_sql ]));
  Thread.join server;
  let report = Helpers.check_ok !result in
  Alcotest.(check int) "received" 2 report.Tcp.received;
  Alcotest.(check bool) "conserves" true
    (Fusion_serve.Server.conservation_ok report.Tcp.stats)

(* A plan that fails to compile is an [Error] from the execution path
   [run] uses. *)
let test_execute_rejects_invalid_plan () =
  let instance, mediator = fig1_mediator () in
  let conds = Fusion_query.Query.conditions instance.Workload.query in
  let bad =
    Fusion_plan.Plan.create
      ~ops:[ Fusion_plan.Op.Select { dst = "X"; cond = 0; source = 99 } ]
      ~output:"X"
  in
  let msg = Helpers.check_err "invalid plan" (Mediator.execute mediator ~conds bad) in
  Alcotest.(check bool) ("error names the plan: " ^ msg) true
    (String.starts_with ~prefix:"invalid plan" msg);
  let good =
    Helpers.check_ok (Mediator.plan_for mediator instance.Workload.query)
  in
  let x =
    Helpers.check_ok
      (Mediator.execute mediator ~conds:good.Mediator.prep_conds
         good.Mediator.prep_optimized.Optimized.plan)
  in
  Alcotest.check Helpers.item_set "a valid plan still runs"
    (Helpers.check_ok (Mediator.run mediator instance.Workload.query)).Mediator.answer
    x.Mediator.x_answer

let test_per_source_accounting () =
  let _, mediator = fig1_mediator () in
  let report = Helpers.check_ok (Mediator.run_sql
      ~config:{ Mediator.Config.default with Mediator.Config.algo = Optimizer.Filter }
      mediator dmv_sql) in
  Alcotest.(check int) "three sources" 3 (List.length report.Mediator.per_source);
  let total =
    List.fold_left
      (fun acc (_, t) -> acc +. t.Fusion_net.Meter.cost)
      0.0 report.Mediator.per_source
  in
  Alcotest.(check (float 0.001)) "meters sum to actual cost" report.Mediator.actual_cost total;
  List.iter
    (fun (_, t) -> Alcotest.(check int) "2 requests each" 2 t.Fusion_net.Meter.requests)
    report.Mediator.per_source

let test_two_phase () =
  let _, mediator = fig1_mediator () in
  let query =
    Helpers.check_ok
      (Fusion_query.Sql.parse_fusion ~schema:(Mediator.schema mediator) ~union:"U" dmv_sql)
  in
  let report, records = Helpers.check_ok (Mediator.two_phase mediator query) in
  Alcotest.check Helpers.item_set "phase-1 answer" expected report.Mediator.answer;
  (* J55 has 2 tuples (R1 dui, R2 sp); T21 has 3 (R1 sp, R2 dui, R3 sp). *)
  Alcotest.(check int) "all answer records" 5 (List.length records.Mediator.tuples);
  Alcotest.(check bool) "fetch has a cost" true (records.Mediator.fetch_cost > 0.0);
  (* Every fetched record belongs to an answer item. *)
  List.iter
    (fun tuple ->
      let item = Tuple.item (Mediator.schema mediator) tuple in
      Alcotest.(check bool) "record of an answer item" true (Item_set.mem item expected))
    records.Mediator.tuples

let test_two_phase_beats_single_phase_on_wide_tuples () =
  (* Generated tuples are narrow, so make the comparison on a world with
     a selective query: phase 1 ships items only, phase 2 only the
     answers' records; single-phase ships every matching record. *)
  let instance =
    Workload.generate
      {
        Workload.default_spec with
        n_sources = 5;
        selectivities = [| 0.05; 0.3 |];
        seed = 51;
      }
  in
  let mediator = Mediator.create_exn (Array.to_list instance.Workload.sources) in
  let report, records =
    Helpers.check_ok (Mediator.two_phase mediator instance.Workload.query)
  in
  let two_phase_cost = report.Mediator.actual_cost +. records.Mediator.fetch_cost in
  let single = Mediator.single_phase_cost mediator instance.Workload.query in
  Alcotest.(check bool)
    (Printf.sprintf "two-phase %.1f < single-phase %.1f" two_phase_cost single)
    true (two_phase_cost < single)

let test_select_sql_projection () =
  let _, mediator = fig1_mediator () in
  let result =
    Helpers.check_ok
      (Mediator.select_sql mediator
         "SELECT u1.L, u1.V, u1.D FROM U u1, U u2 \
          WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'")
  in
  Alcotest.(check (list string)) "columns" [ "L"; "V"; "D" ] result.Mediator.columns;
  Alcotest.(check bool) "phase 2 paid" true (result.Mediator.fetch_cost > 0.0);
  (* All 5 records of J55 and T21 (Figure 1), projected. *)
  Alcotest.(check int) "five records" 5 (List.length result.Mediator.rows);
  List.iter
    (fun row ->
      match row with
      | [ Value.String l; Value.String _; Value.Int _ ] ->
        Alcotest.(check bool) "answer item" true (l = "J55" || l = "T21")
      | _ -> Alcotest.fail "unexpected row shape")
    result.Mediator.rows

let test_select_sql_merge_only_skips_phase2 () =
  let _, mediator = fig1_mediator () in
  let result = Helpers.check_ok (Mediator.select_sql mediator dmv_sql) in
  Alcotest.(check (list string)) "columns" [ "L" ] result.Mediator.columns;
  Alcotest.(check (float 0.0)) "no phase 2" 0.0 result.Mediator.fetch_cost;
  Alcotest.(check int) "two rows" 2 (List.length result.Mediator.rows)

let test_of_catalog () =
  let dir = Filename.temp_file "fusion_medcat" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let instance =
        Workload.generate
          { Workload.default_spec with n_sources = 3; tuples_per_source = (10, 20); seed = 71 }
      in
      Workload.save ~dir instance;
      let mediator =
        Helpers.check_ok (Mediator.of_catalog (Filename.concat dir "catalog.ini"))
      in
      let report = Helpers.check_ok (Mediator.run mediator instance.Workload.query) in
      Alcotest.check Helpers.item_set "answers match direct construction"
        (Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query)
        report.Mediator.answer;
      ignore (Helpers.check_err "missing file" (Mediator.of_catalog "/nonexistent/x.ini")))

let qcheck_mediator_end_to_end =
  Helpers.qtest ~count:40 "mediator answer = reference on generated worlds"
    Helpers.spec_gen Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let mediator = Mediator.create_exn (Array.to_list instance.Workload.sources) in
      let report =
        Helpers.check_ok (Mediator.run
          ~config:
            { Mediator.Config.default with Mediator.Config.algo = Optimizer.Sja_plus }
          mediator instance.Workload.query)
      in
      Item_set.equal report.Mediator.answer
        (Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query))

let qcheck_sql_round_trip_through_mediator =
  Helpers.qtest ~count:40 "query → SQL → mediator gives the same answer"
    Helpers.spec_gen Helpers.spec_print (fun spec ->
      let instance = Workload.generate spec in
      let mediator = Mediator.create_exn (Array.to_list instance.Workload.sources) in
      let sql =
        Fusion_query.Query.to_sql ~union:"U"
          ~merge:(Schema.merge instance.Workload.schema)
          instance.Workload.query
      in
      let direct = Helpers.check_ok (Mediator.run mediator instance.Workload.query) in
      let via_sql = Helpers.check_ok (Mediator.run_sql mediator sql) in
      Item_set.equal direct.Mediator.answer via_sql.Mediator.answer)

let suite =
  [
    Alcotest.test_case "creation errors" `Quick test_create_rejects_empty_and_mismatched;
    Alcotest.test_case "SQL end-to-end, all algorithms" `Quick test_run_sql_every_algorithm;
    Alcotest.test_case "non-fusion SQL rejected" `Quick test_run_sql_rejects_non_fusion;
    Alcotest.test_case "invalid query rejected" `Quick test_run_rejects_invalid_query;
    Alcotest.test_case "runtime selection in the config" `Quick test_runtime_config;
    Alcotest.test_case "tcp front end round trip" `Quick test_tcp_front;
    Alcotest.test_case "tcp front end line bound" `Quick test_tcp_front_line_bound;
    Alcotest.test_case "admin front scrape" `Quick test_admin_front;
    Alcotest.test_case "execute rejects an invalid plan" `Quick
      test_execute_rejects_invalid_plan;
    Alcotest.test_case "per-source accounting" `Quick test_per_source_accounting;
    Alcotest.test_case "two-phase processing" `Quick test_two_phase;
    Alcotest.test_case "two-phase beats single-phase" `Quick
      test_two_phase_beats_single_phase_on_wide_tuples;
    Alcotest.test_case "select_sql with projection" `Quick test_select_sql_projection;
    Alcotest.test_case "select_sql merge-only" `Quick test_select_sql_merge_only_skips_phase2;
    Alcotest.test_case "mediator from a catalog" `Quick test_of_catalog;
    qcheck_mediator_end_to_end;
    qcheck_sql_round_trip_through_mediator;
  ]
