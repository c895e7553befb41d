(* X19 — extension: the runtime API and its domains backend.

   PR 7 re-routed every executor through one request-dispatch
   signature (Fusion_rt.Runtime) with two backends: the discrete-event
   simulator (the oracle) and an effects-based fibre scheduler over an
   OCaml 5 domain pool with real OS concurrency. Two questions:

   1. Is the domains backend correct?  Answers, failure counts and
      total work must equal the sequential executor's on the same
      sources — concurrency may only change the clock.
   2. Does it scale?  The same served query batch on 1, 2 and 4
      worker domains should complete in measurably less wall time as
      the pool grows (up to the lane count / core count).

   The gated tables record only machine-independent cells — answer
   cardinalities, equality/conservation verdicts, completion counts.
   Wall-clock seconds and the measured speedup go to stdout only: they
   depend on the host's core count (a single-core runner shows ~1x). *)

module Runtime = Fusion_rt.Runtime
module Workload = Fusion_workload.Workload
module Item_set = Fusion_data.Item_set
module Value = Fusion_data.Value
module Cond = Fusion_cond.Cond
module Source = Fusion_source.Source
module Serve = Fusion_serve.Server
module Driver = Fusion_serve.Driver
module Exec = Fusion_plan.Exec
module Exec_async = Fusion_plan.Exec_async
module Reference = Fusion_core.Reference
open Fusion_core

let verdict b = if b then "yes" else "no"

let optimize sources query =
  let env = Opt_env.create sources query in
  (env, Optimizer.optimize Optimizer.Sja_plus env)

(* --- 1: oracle equivalence ----------------------------------------------- *)

(* One plan, two executions on the same sources: the sequential
   executor, then the domains backend (2 workers). Every row is
   deterministic — the dataflow driver may reorder dispatches, but the
   answer set, charged work and failure count may not move. *)
let equivalence () =
  let rows =
    List.map
      (fun seed ->
        let inst = Workload.generate { Workload.default_spec with Workload.seed } in
        let env, optimized = optimize inst.Workload.sources inst.Workload.query in
        let reference =
          Exec.run ~sources:inst.Workload.sources ~conds:env.Opt_env.conds
            optimized.Optimized.plan
        in
        Array.iter Source.reset_meter inst.Workload.sources;
        let rt =
          Runtime.domains ~domains:2
            ~servers:(Array.length inst.Workload.sources) ()
        in
        let r =
          Fun.protect
            ~finally:(fun () -> Runtime.shutdown rt)
            (fun () ->
              Exec_async.run_on ~rt
                (Result.get_ok
                   (Fusion_plan.Plan_compile.compile ~sources:inst.Workload.sources
                      ~conds:env.Opt_env.conds optimized.Optimized.plan)))
        in
        [
          Tables.i seed;
          Tables.i (Item_set.cardinal r.Exec_async.answer);
          verdict (Item_set.equal r.Exec_async.answer reference.Exec.answer);
          verdict
            (Float.abs (r.Exec_async.total_cost -. reference.Exec.total_cost)
             < 1e-6);
          Tables.i r.Exec_async.failures;
        ])
      [ 1901; 1902; 1903; 1904; 1905 ]
  in
  Tables.print ~title:"x19: domains backend vs sequential oracle (2 workers)"
    ~header:[ "seed"; "answer"; "exact"; "same work"; "failures" ]
    rows

(* --- 2: served batch, scaling the pool ----------------------------------- *)

let spec =
  {
    Workload.default_spec with
    Workload.n_sources = 6;
    universe = 12000;
    tuples_per_source = (2500, 3500);
    seed = 1910;
  }

let batch = 24

(* Distinct conjunctive queries so concurrent jobs cannot all coalesce
   onto one in-flight request — the pool must do real parallel work. *)
let query_of i =
  Fusion_query.Query.create_exn
    [
      Cond.Cmp ("A1", Cond.Lt, Value.Int (200 + (29 * (i mod 19))));
      Cond.Cmp ("A2", Cond.Lt, Value.Int (300 + (23 * (i mod 17))));
      Cond.Cmp ("A3", Cond.Lt, Value.Int (400 + (31 * (i mod 13))));
    ]

(* Serves the whole batch on a fresh world with a [domains]-wide pool;
   returns machine-independent verdicts plus the measured wall time. *)
let serve_batch ~domains ~expected =
  let inst = Workload.generate spec in
  let sources = inst.Workload.sources in
  let rt = Runtime.domains ~domains ~servers:(Array.length sources) () in
  Fun.protect
    ~finally:(fun () -> Runtime.shutdown rt)
    (fun () ->
      let srv = Serve.create ~policy:Serve.Fifo ~rt sources in
      let completions = Driver.collect srv in
      let owner = Hashtbl.create batch in
      for i = 0 to batch - 1 do
        let env, optimized = optimize sources (query_of i) in
        let id =
          Serve.submit srv ~at:0.0
            {
              Serve.plan = optimized.Optimized.plan;
              conds = env.Opt_env.conds;
              tenant = "bench";
              priority = 0;
              est_cost = optimized.Optimized.est_cost;
              deadline = None;
              label = "";
            }
        in
        Hashtbl.replace owner id i
      done;
      let t0 = Unix.gettimeofday () in
      Serve.drain srv;
      let wall = Unix.gettimeofday () -. t0 in
      let s = Serve.stats srv in
      let exact =
        List.for_all
          (fun (c : Serve.completion) ->
            match (Hashtbl.find_opt owner c.Serve.c_id, c.Serve.c_answer) with
            | Some i, Some answer -> Item_set.equal answer expected.(i)
            | _ -> false)
          (completions ())
      in
      (s, exact, wall))

(* --- 3: raw pool parallelism --------------------------------------------- *)

(* The pool on pure compute: one fixed-size job spun across 8 lanes.
   Per-lane FIFO still serializes within a lane, so with enough lanes
   the wall time should shrink with the worker count (bounded by the
   host's cores). This isolates the OS-concurrency claim from the
   serving stack's scheduler-domain work above. *)
let pool_scaling () =
  let module Pool = Fusion_rt.Pool in
  let lanes = 8 and jobs = 64 in
  (* ~2-4 ms of arithmetic per job; enough to dwarf handoff overhead. *)
  let work () =
    let acc = ref 0.0 in
    for i = 1 to 400_000 do
      acc := !acc +. (1.0 /. float_of_int i)
    done;
    !acc
  in
  let wall_of domains =
    let pool = Pool.create ~domains ~lanes in
    let m = Mutex.create () and cv = Condition.create () in
    let left = ref jobs and failed = ref 0 in
    let t0 = Unix.gettimeofday () in
    for j = 0 to jobs - 1 do
      Pool.submit pool ~lane:(j mod lanes) work (fun r ->
          Mutex.lock m;
          (match r with Ok _ -> () | Error _ -> incr failed);
          decr left;
          if !left = 0 then Condition.signal cv;
          Mutex.unlock m)
    done;
    Mutex.lock m;
    while !left > 0 do
      Condition.wait cv m
    done;
    Mutex.unlock m;
    let wall = Unix.gettimeofday () -. t0 in
    Pool.shutdown pool;
    (wall, !failed)
  in
  let runs = List.map (fun d -> (d, wall_of d)) [ 1; 2; 4 ] in
  Tables.print
    ~title:
      (Printf.sprintf "x19: pool compute batch (%d jobs over %d lanes)" jobs lanes)
    ~header:[ "domains"; "jobs"; "failures" ]
    (List.map
       (fun (d, (_, failed)) -> [ Tables.i d; Tables.i jobs; Tables.i failed ])
       runs);
  let base = match runs with (_, (w, _)) :: _ -> w | [] -> 0.0 in
  Printf.printf "\n  pool wall-clock (host-dependent, not gated):\n";
  List.iter
    (fun (d, (wall, _)) ->
      Printf.printf "    domains=%d  wall %.3fs  speedup x%.2f\n" d wall
        (if wall > 0.0 then base /. wall else 0.0))
    runs

let scaling () =
  let truth = Workload.generate spec in
  let expected =
    Array.init batch (fun i ->
        Reference.answer_query ~sources:truth.Workload.sources (query_of i))
  in
  let runs =
    List.map
      (fun domains ->
        let s, exact, wall = serve_batch ~domains ~expected in
        (domains, s, exact, wall))
      [ 1; 2; 4 ]
  in
  Tables.print
    ~title:
      (Printf.sprintf "x19: served batch across pool sizes (%d queries, %d lanes)"
         batch spec.Workload.n_sources)
    ~header:[ "domains"; "completed"; "shed"; "conserves"; "all exact" ]
    (List.map
       (fun (domains, s, exact, _) ->
         [
           Tables.i domains;
           Tables.i s.Serve.completed;
           Tables.i s.Serve.shed;
           verdict (Serve.conservation_ok s);
           verdict exact;
         ])
       runs);
  (* Wall-clock scaling: stdout only — the speedup is a property of the
     host (cores, load), not of the reproduction. *)
  let base = match runs with (_, _, _, w) :: _ -> w | [] -> 0.0 in
  Printf.printf "\n  wall-clock (host-dependent, not gated; %d cores available):\n"
    (Runtime.default_domains ());
  List.iter
    (fun (domains, _, _, wall) ->
      Printf.printf "    domains=%d  wall %.3fs  speedup x%.2f\n" domains wall
        (if wall > 0.0 then base /. wall else 0.0))
    runs

let run () =
  equivalence ();
  scaling ();
  pool_scaling ()
