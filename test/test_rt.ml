(* The runtime layer: fibre scheduler semantics (fork/await, sleep
   ordering, cancellation, timeouts, the no-leaked-fibres switch
   invariant), the per-lane domain pool, and oracle equivalence of the
   domains backend against the simulator (answers and model costs must
   match [Exec.run]/[Exec_async.run]; only the clock differs). *)

open Fusion_rt
module Workload = Fusion_workload.Workload
module Item_set = Fusion_data.Item_set
module Exec = Fusion_plan.Exec
module Exec_async = Fusion_plan.Exec_async
module Optimizer = Fusion_core.Optimizer
module Opt_env = Fusion_core.Opt_env
module Optimized = Fusion_core.Optimized

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- fibre scheduler ------------------------------------------------------ *)

let test_fork_await () =
  let r =
    Fiber.run (fun () ->
        Fiber.Switch.run (fun sw ->
            let a = Fiber.Switch.fork_promise sw (fun () -> 6 * 7) in
            let b = Fiber.Switch.fork_promise sw (fun () -> Fiber.yield (); 100) in
            Fiber.Promise.await a + Fiber.Promise.await b))
  in
  check_int "forked results combine" 142 r

let test_fork_ordering () =
  (* Fibres run cooperatively in fork order between suspension points. *)
  let log = ref [] in
  Fiber.run (fun () ->
      Fiber.Switch.run (fun sw ->
          Fiber.Switch.fork sw (fun () -> log := 1 :: !log; Fiber.yield (); log := 3 :: !log);
          Fiber.Switch.fork sw (fun () -> log := 2 :: !log; Fiber.yield (); log := 4 :: !log)));
  Alcotest.(check (list int)) "interleaved in fork order" [ 1; 2; 3; 4 ] (List.rev !log)

let test_sleep_ordering () =
  let log = ref [] in
  Fiber.run (fun () ->
      Fiber.Switch.run (fun sw ->
          Fiber.Switch.fork sw (fun () -> Fiber.sleep 0.03; log := "slow" :: !log);
          Fiber.Switch.fork sw (fun () -> Fiber.sleep 0.005; log := "fast" :: !log)));
  Alcotest.(check (list string)) "wakes in deadline order" [ "fast"; "slow" ] (List.rev !log)

let test_switch_joins () =
  (* Switch.run must not return before its fibres are done, and no
     fibre survives the switch: the leak-check invariant. *)
  Fiber.run (fun () ->
      let done_ = ref false in
      Fiber.Switch.run (fun sw ->
          Fiber.Switch.fork sw (fun () -> Fiber.sleep 0.005; done_ := true));
      check_bool "forked fibre completed before run returned" true !done_;
      check_int "no fibres outlive their switch" 0 (Fiber.pending_fibres ()))

let test_cancellation () =
  Fiber.run (fun () ->
      let cancelled = ref false and after = ref false in
      (try
         Fiber.Switch.run (fun sw ->
             Fiber.Switch.fork sw (fun () ->
                 try Fiber.sleep 60.0; after := true
                 with Fiber.Cancelled as e -> cancelled := true; raise e);
             Fiber.yield ();
             Fiber.Switch.cancel sw)
       with Fiber.Cancelled -> ());
      check_bool "sleeping fibre saw Cancelled" true !cancelled;
      check_bool "cancelled fibre did not continue" false !after;
      check_int "cancelled fibres are joined at switch exit" 0 (Fiber.pending_fibres ()))

let test_child_failure_cancels_siblings () =
  let sibling_cancelled = ref false in
  let r =
    Fiber.run (fun () ->
        match
          Fiber.Switch.run (fun sw ->
              Fiber.Switch.fork sw (fun () ->
                  try Fiber.sleep 60.0
                  with Fiber.Cancelled as e -> sibling_cancelled := true; raise e);
              Fiber.Switch.fork sw (fun () -> Fiber.yield (); failwith "boom");
              ())
        with
        | () -> "returned"
        | exception Failure msg -> msg)
  in
  Alcotest.(check string) "child failure re-raised from Switch.run" "boom" r;
  check_bool "failure cancelled the sibling" true !sibling_cancelled

let test_timeout () =
  Fiber.run (fun () ->
      (match Fiber.timeout 0.01 (fun () -> Fiber.sleep 60.0) with
      | None -> ()
      | Some () -> Alcotest.fail "slept through the timeout");
      (match Fiber.timeout 10.0 (fun () -> Fiber.sleep 0.001; 17) with
      | Some v -> check_int "fast body wins the timeout" 17 v
      | None -> Alcotest.fail "spurious timeout");
      check_int "timeout timers don't leak" 0 (Fiber.pending_fibres ()))

(* An outer cancellation arriving while an inner Switch.run is joining
   must not abort the join: children and daemons (and their
   finalizers) still complete before the inner switch returns. *)
let test_cancelled_join_runs_finalizers () =
  let child_finalized = ref false and daemon_finalized = ref false in
  Fiber.run (fun () ->
      (match
         Fiber.timeout 0.01 (fun () ->
             Fiber.Switch.run (fun sw ->
                 Fiber.Switch.fork sw (fun () ->
                     Fun.protect
                       ~finally:(fun () -> child_finalized := true)
                       (fun () -> Fiber.sleep 60.0));
                 Fiber.Switch.fork_daemon sw (fun () ->
                     Fun.protect
                       ~finally:(fun () -> daemon_finalized := true)
                       (fun () -> Fiber.sleep 60.0));
                 Fiber.sleep 60.0))
       with
      | None -> ()
      | Some () -> Alcotest.fail "slept through the timeout");
      check_bool "child finalizer ran before the switch returned" true !child_finalized;
      check_bool "daemon finalizer ran before the switch returned" true !daemon_finalized;
      check_int "no fibres leaked past the cancelled switch" 0 (Fiber.pending_fibres ()))

let test_stream_try_add () =
  Fiber.run (fun () ->
      let st = Fiber.Stream.create ~capacity:2 in
      check_bool "try_add below capacity" true (Fiber.Stream.try_add st 1);
      check_bool "try_add at capacity" true (Fiber.Stream.try_add st 2);
      check_bool "try_add refuses a full stream" false (Fiber.Stream.try_add st 3);
      check_int "buffered values unharmed" 1 (Fiber.Stream.take st);
      check_bool "take freed a slot" true (Fiber.Stream.try_add st 3);
      let got = ref 0 in
      Fiber.Switch.run (fun sw ->
          Fiber.Switch.fork sw (fun () ->
              ignore (Fiber.Stream.take st : int);
              ignore (Fiber.Stream.take st : int);
              got := Fiber.Stream.take st);
          Fiber.yield ();  (* let the reader drain the queue and park *)
          check_bool "try_add hands off to a waiting reader" true
            (Fiber.Stream.try_add st 9));
      check_int "parked reader received the value" 9 !got)

let test_semaphore_mutual_exclusion () =
  let inside = ref 0 and peak = ref 0 in
  Fiber.run (fun () ->
      let sem = Fiber.Semaphore.create 2 in
      Fiber.Switch.run (fun sw ->
          for _ = 1 to 8 do
            Fiber.Switch.fork sw (fun () ->
                Fiber.Semaphore.acquire sem;
                incr inside;
                peak := max !peak !inside;
                Fiber.yield ();
                decr inside;
                Fiber.Semaphore.release sem)
          done));
  check_int "semaphore bounds concurrency" 2 !peak

let test_stream_fifo () =
  let got = ref [] in
  Fiber.run (fun () ->
      let st = Fiber.Stream.create ~capacity:2 in
      Fiber.Switch.run (fun sw ->
          Fiber.Switch.fork sw (fun () ->
              for i = 1 to 5 do Fiber.Stream.add st i done);
          Fiber.Switch.fork sw (fun () ->
              for _ = 1 to 5 do got := Fiber.Stream.take st :: !got done)));
  Alcotest.(check (list int)) "stream preserves order through backpressure"
    [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_deadlock_detection () =
  check_bool "awaiting a never-resolved promise raises Deadlock" true
    (try
       Fiber.run (fun () ->
           let p : int Fiber.Promise.t = Fiber.Promise.create () in
           ignore (Fiber.Promise.await p));
       false
     with Fiber.Deadlock -> true)

(* A completion fired on a worker domain is in flight between the
   resolver and the scheduler's wake queue; the idle loop must not read
   that window as "nothing left to wait for". Thousands of back-to-back
   immediate completions make the window likely to be hit. *)
let test_external_completion_loop () =
  let pool = Pool.create ~domains:1 ~lanes:1 in
  let rounds = 20_000 in
  let total =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Fiber.run (fun () ->
            let total = ref 0 in
            for _ = 1 to rounds do
              total :=
                !total
                + Fiber.suspend_external (fun resume ->
                      Pool.submit pool ~lane:0 (fun () -> 1) resume)
            done;
            !total))
  in
  check_int "every external completion resumed its fibre" rounds total

(* --- domain pool ---------------------------------------------------------- *)

let test_pool_lane_serialization () =
  let pool = Pool.create ~domains:3 ~lanes:2 in
  let lock = Mutex.create () in
  let running = Array.make 2 0 and overlap = ref false and finished = ref 0 in
  let m = Mutex.create () and c = Condition.create () in
  for i = 0 to 19 do
    let lane = i mod 2 in
    Pool.submit pool ~lane
      (fun () ->
        Mutex.lock lock;
        running.(lane) <- running.(lane) + 1;
        if running.(lane) > 1 then overlap := true;
        Mutex.unlock lock;
        Thread.yield ();
        Mutex.lock lock;
        running.(lane) <- running.(lane) - 1;
        Mutex.unlock lock)
      (fun _ ->
        Mutex.lock m;
        incr finished;
        Condition.signal c;
        Mutex.unlock m)
  done;
  Mutex.lock m;
  while !finished < 20 do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Pool.shutdown pool;
  check_bool "jobs on one lane never overlap" false !overlap

let test_pool_exception_delivery () =
  let pool = Pool.create ~domains:1 ~lanes:1 in
  let got = ref None in
  let m = Mutex.create () and c = Condition.create () in
  Pool.submit pool ~lane:0
    (fun () -> failwith "worker boom")
    (fun r ->
      Mutex.lock m;
      got := Some r;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while !got = None do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Pool.shutdown pool;
  match !got with
  | Some (Error (Failure msg)) -> Alcotest.(check string) "exception crosses domains" "worker boom" msg
  | _ -> Alcotest.fail "expected Error (Failure _) from the worker"

let test_pool_stats () =
  let pool = Pool.create ~domains:2 ~lanes:3 in
  let s0 = Pool.stats pool in
  check_int "domains" 2 s0.Pool.domains;
  check_int "lanes" 3 s0.Pool.lane_count;
  check_int "nothing executed yet" 0 s0.Pool.executed;
  check_int "nothing queued yet" 0 s0.Pool.queued_jobs;
  let jobs = 30 in
  let m = Mutex.create () and c = Condition.create () and finished = ref 0 in
  for i = 0 to jobs - 1 do
    Pool.submit pool ~lane:(i mod 3)
      (fun () -> Thread.yield ())
      (fun _ ->
        Mutex.lock m;
        incr finished;
        Condition.signal c;
        Mutex.unlock m)
  done;
  Mutex.lock m;
  while !finished < jobs do
    Condition.wait c m
  done;
  Mutex.unlock m;
  let s = Pool.stats pool in
  Pool.shutdown pool;
  check_int "every job counted as executed" jobs s.Pool.executed;
  check_int "queues drained" 0 s.Pool.queued_jobs;
  check_bool "high water saw queueing" true (s.Pool.queue_high_water >= 1);
  check_bool "busy lanes within bounds" true
    (s.Pool.busy_lanes >= 0 && s.Pool.busy_lanes <= 3)

let test_fiber_stats () =
  check_bool "no scheduler outside run" true (Fiber.stats () = None);
  let seen = ref None in
  Fiber.run (fun () ->
      Fiber.Switch.run (fun sw ->
          Fiber.Switch.fork sw (fun () -> Fiber.sleep 0.02);
          Fiber.Switch.fork sw (fun () ->
              Fiber.yield ();
              seen := Fiber.stats ())));
  (match !seen with
  | None -> Alcotest.fail "stats unavailable inside the scheduler"
  | Some s ->
    check_bool "some fibres were live" true (s.Fiber.live >= 1);
    check_bool "sleeper registered" true (s.Fiber.sleepers >= 1);
    check_bool "counters are non-negative" true
      (s.Fiber.run_queue >= 0 && s.Fiber.io_waiting >= 0
     && s.Fiber.ext_pending >= 0));
  (* The full run slept ~20ms: the poller must have both polled and
     accumulated wait time. *)
  check_bool "gone again after run" true (Fiber.stats () = None)

let test_fiber_poll_accounting () =
  let final = ref None in
  Fiber.run (fun () ->
      Fiber.sleep 0.02;
      final := Fiber.stats ());
  match !final with
  | None -> Alcotest.fail "stats unavailable"
  | Some s ->
    check_bool "poller ran" true (s.Fiber.polls >= 1);
    check_bool "waited roughly the sleep" true (s.Fiber.poll_wait >= 0.01)

let test_stream_high_water () =
  Fiber.run (fun () ->
      let st = Fiber.Stream.create ~capacity:4 in
      check_int "empty stream" 0 (Fiber.Stream.high_water st);
      Fiber.Stream.add st 1;
      Fiber.Stream.add st 2;
      Fiber.Stream.add st 3;
      check_int "rises with occupancy" 3 (Fiber.Stream.high_water st);
      ignore (Fiber.Stream.take st : int);
      ignore (Fiber.Stream.take st : int);
      Fiber.Stream.add st 4;
      check_int "remembers the peak, not the present" 3
        (Fiber.Stream.high_water st))

(* --- runtime backends ----------------------------------------------------- *)

let test_spec_parsing () =
  check_bool "sim" (Runtime.spec_of_string "sim" = Ok `Sim) true;
  check_bool "domains" (Runtime.spec_of_string "domains" = Ok (`Domains 0)) true;
  check_bool "domains:3" (Runtime.spec_of_string "domains:3" = Ok (`Domains 3)) true;
  check_bool "garbage rejected" (Result.is_error (Runtime.spec_of_string "threads")) true;
  check_bool "domains:0 rejected" (Result.is_error (Runtime.spec_of_string "domains:0")) true

let test_domains_call_measures_wall () =
  let rt = Runtime.domains ~domains:2 ~servers:2 () in
  Fun.protect ~finally:(fun () -> Runtime.shutdown rt) @@ fun () ->
  let v, sched =
    Runtime.call rt ~id:0 ~server:1 ~ready:0.0 ~deps:[] (fun () ->
        Thread.yield ();
        ("answer", 12.5, true))
  in
  Alcotest.(check string) "value returned" "answer" v;
  check_bool "finish >= start" true Fusion_net.Sim.(sched.finish >= sched.start);
  check_int "dispatched" 1 (Runtime.dispatched rt);
  check_bool "timeline has wall-clock makespan" true
    ((Runtime.timeline rt).Fusion_net.Sim.makespan >= 0.0);
  check_bool "is_real" true (Runtime.is_real rt)

(* The domains backend keeps counters, not a record per request: the
   slot a call returns is the caller's. The live heap after 10·K calls
   is the heap after K calls, plus less than [bound] words per extra
   call; a kept slot (list cell, [Sim.scheduled], task, boxed floats)
   costs about 20. *)
let test_domains_calls_keep_no_record () =
  let rt = Runtime.domains ~domains:1 ~servers:2 () in
  Fun.protect ~finally:(fun () -> Runtime.shutdown rt) @@ fun () ->
  let calls ~from n =
    for id = from to from + n - 1 do
      ignore
        (Runtime.call rt ~id ~server:(id land 1) ~ready:0.0 ~deps:[ id - 1 ] (fun () ->
             ((), 1.0, true))
          : unit * Fusion_net.Sim.scheduled)
    done
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let k = 500 and bound = 2.0 in
  calls ~from:0 k;
  let before = live () in
  calls ~from:k (9 * k);
  let after = live () in
  check_int "dispatched" (10 * k) (Runtime.dispatched rt);
  let per_call = float_of_int (after - before) /. float_of_int (9 * k) in
  check_bool
    (Printf.sprintf "%.2f live words per extra call (bound %.0f)" per_call bound)
    true (per_call < bound);
  check_bool "no events kept" true ((Runtime.timeline rt).Fusion_net.Sim.events = [])

let test_runtime_publish_metrics () =
  let r = Fusion_obs.Metrics.create () in
  Fusion_obs.Metrics.with_registry r (fun () ->
      let rt = Runtime.domains ~domains:2 ~servers:2 () in
      Fun.protect ~finally:(fun () -> Runtime.shutdown rt) @@ fun () ->
      ignore
        (Runtime.call rt ~id:0 ~server:0 ~ready:0.0 ~deps:[] (fun () ->
             (1, 1.0, true)));
      (* Publish from inside the fibre scheduler so the fibre gauges
         are exported alongside the pool and GC families. *)
      Runtime.run rt (fun () -> Runtime.publish_metrics rt));
  let names =
    List.map (fun s -> s.Fusion_obs.Metrics.name) (Fusion_obs.Metrics.snapshot r)
  in
  List.iter
    (fun n -> check_bool n true (List.mem n names))
    [
      "fusion_rt_pool_domains"; "fusion_rt_pool_lanes"; "fusion_rt_calls";
      "fusion_rt_fibres_live"; "fusion_rt_polls"; "fusion_rt_gc_minor_words";
      "fusion_rt_gc_heap_words";
    ];
  let value n =
    List.find_map
      (fun s ->
        match s.Fusion_obs.Metrics.value with
        | Fusion_obs.Metrics.Vgauge v when s.Fusion_obs.Metrics.name = n -> Some v
        | _ -> None)
      (Fusion_obs.Metrics.snapshot r)
  in
  Alcotest.(check (option (float 1e-9))) "calls gauge counted the call"
    (Some 1.0) (value "fusion_rt_calls");
  Alcotest.(check (option (float 1e-9))) "pool gauge saw both domains"
    (Some 2.0) (value "fusion_rt_pool_domains")

let test_domains_concurrent_servers () =
  (* Two calls on different servers from two fibres must both complete
     under the fibre scheduler (real parallelism when cores allow). *)
  let rt = Runtime.domains ~domains:2 ~servers:2 () in
  Fun.protect ~finally:(fun () -> Runtime.shutdown rt) @@ fun () ->
  let total =
    Runtime.run rt (fun () ->
        Fiber.Switch.run (fun sw ->
            let a =
              Fiber.Switch.fork_promise sw (fun () ->
                  fst (Runtime.call rt ~id:0 ~server:0 ~ready:0.0 ~deps:[] (fun () -> (1, 0.0, true))))
            in
            let b =
              Fiber.Switch.fork_promise sw (fun () ->
                  fst (Runtime.call rt ~id:1 ~server:1 ~ready:0.0 ~deps:[] (fun () -> (2, 0.0, true))))
            in
            Fiber.Promise.await a + Fiber.Promise.await b))
  in
  check_int "both offloaded calls completed" 3 total;
  check_int "both booked" 2 (Runtime.dispatched rt)

(* --- oracle equivalence: domains backend vs the simulator ---------------- *)

let plan_of inst algo =
  let env = Opt_env.create inst.Workload.sources inst.Workload.query in
  let optimized = Optimizer.optimize algo env in
  (optimized.Optimized.plan, env.Opt_env.conds)

let instance_gen =
  QCheck2.Gen.map2
    (fun spec k -> (spec, k))
    Helpers.spec_gen
    (QCheck2.Gen.int_bound (List.length Optimizer.all - 1))

let instance_print (spec, k) =
  Printf.sprintf "%s algo=%s" (Helpers.spec_print spec)
    (Optimizer.name (List.nth Optimizer.all k))

(* Answers and model costs from the domains backend equal the
   sequential executor's: sources are deterministic (no faults here),
   so every op's value is a pure function of the data whatever the
   interleaving, and per-lane FIFO keeps each source's request
   sequence in plan order. *)
let domains_oracle_agreement (spec, k) =
  let inst = Workload.generate spec in
  let algo = List.nth Optimizer.all k in
  let plan, conds = plan_of inst algo in
  let seq = Exec.run ~sources:inst.Workload.sources ~conds plan in
  Array.iter Fusion_source.Source.reset_meter inst.Workload.sources;
  let rt = Runtime.domains ~domains:2 ~servers:(Array.length inst.Workload.sources) () in
  let dom =
    Fun.protect ~finally:(fun () -> Runtime.shutdown rt) @@ fun () ->
    Exec_async.run_on ~rt
      (Helpers.check_ok
         (Fusion_plan.Plan_compile.compile ~sources:inst.Workload.sources ~conds plan))
  in
  Item_set.equal dom.Exec_async.answer seq.Exec.answer
  && abs_float (dom.Exec_async.total_cost -. seq.Exec.total_cost) < 1e-6
  && dom.Exec_async.failures = seq.Exec.failures
  && (not dom.Exec_async.partial)
  && dom.Exec_async.makespan >= 0.0

let suite =
  [
    Alcotest.test_case "fiber: fork/await" `Quick test_fork_await;
    Alcotest.test_case "fiber: fork ordering" `Quick test_fork_ordering;
    Alcotest.test_case "fiber: sleep ordering" `Quick test_sleep_ordering;
    Alcotest.test_case "fiber: switch joins fibres" `Quick test_switch_joins;
    Alcotest.test_case "fiber: cancellation" `Quick test_cancellation;
    Alcotest.test_case "fiber: child failure cancels siblings" `Quick
      test_child_failure_cancels_siblings;
    Alcotest.test_case "fiber: timeout" `Quick test_timeout;
    Alcotest.test_case "fiber: cancelled join runs finalizers" `Quick
      test_cancelled_join_runs_finalizers;
    Alcotest.test_case "fiber: stream try_add" `Quick test_stream_try_add;
    Alcotest.test_case "fiber: semaphore" `Quick test_semaphore_mutual_exclusion;
    Alcotest.test_case "fiber: stream backpressure" `Quick test_stream_fifo;
    Alcotest.test_case "fiber: deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "fiber: external completion loop" `Quick
      test_external_completion_loop;
    Alcotest.test_case "fiber: scheduler stats" `Quick test_fiber_stats;
    Alcotest.test_case "fiber: poll accounting" `Quick test_fiber_poll_accounting;
    Alcotest.test_case "fiber: stream high water" `Quick test_stream_high_water;
    Alcotest.test_case "pool: lane serialization" `Quick test_pool_lane_serialization;
    Alcotest.test_case "pool: exception delivery" `Quick test_pool_exception_delivery;
    Alcotest.test_case "pool: stats" `Quick test_pool_stats;
    Alcotest.test_case "runtime: spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "runtime: domains call" `Quick test_domains_call_measures_wall;
    Alcotest.test_case "runtime: domains calls keep no record" `Quick
      test_domains_calls_keep_no_record;
    Alcotest.test_case "runtime: publish metrics" `Quick test_runtime_publish_metrics;
    Alcotest.test_case "runtime: concurrent servers" `Quick test_domains_concurrent_servers;
    Helpers.qtest ~count:25 "runtime: domains answers equal the sequential oracle"
      instance_gen instance_print domains_oracle_agreement;
  ]
