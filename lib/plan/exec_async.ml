(* Live concurrent plan execution.

   Where [Exec] runs the plan's steps one after another (total elapsed
   time = total cost), this executor runs it on a [Fusion_rt.Runtime]:
   every source query is dispatched the moment its inputs are
   available, queries at different sources overlap, and queries at one
   source queue FIFO behind each other — so a slow mirror stalls only
   its own dependency chain. On the simulator backend the clock is the
   discrete-event schedule of [Fusion_net.Sim]; on the domains backend
   requests really run concurrently and the clock is the wall.

   On the simulator, source queries are dispatched in plan order, which
   makes each source's request sequence identical to the sequential
   executor's. Answers, per-step costs and fault-injection draws
   therefore agree exactly with [Exec.run] under the same policy; only
   the clock bookkeeping differs. That invariant is what the async
   property tests pin down.

   The execution itself lives in [Engine]: an incremental cursor over
   the compiled plan ([Plan_compile]: integer slots, pre-rendered cache
   keys, columnar local scans, the dataflow node table) that evaluates
   local operations for free and surfaces one
   source query at a time for an external scheduler to dispatch onto a
   (possibly shared) runtime. [run] is the trivial driver — one private
   simulated network, dispatch every request the moment it surfaces —
   [run_on] executes on a caller-supplied runtime (concurrent dataflow
   driver when the clock is real), and a serving layer (lib/serve) is
   the interesting one: many engines, one network, a scheduling policy
   arbitrating between them. *)

open Fusion_data
open Fusion_source
module Trace = Fusion_obs.Trace
module Sim = Fusion_net.Sim
module Meter = Fusion_net.Meter
module Runtime = Fusion_rt.Runtime
module Fiber = Fusion_rt.Fiber
module Query_cache = Exec.Query_cache

(* Where a source-query step sat in the concurrent schedule: the task
   id, server and dependencies of the slot its source call settled on
   (on the default call, the dataflow node id — see
   [Plan_compile.dataflow] — and the source index). [dispatched] is
   false when the step was answered without occupying the source (cache
   hit, or joining an in-flight request). Local operations have no
   schedule slot. *)
type sched = { task : int; server : int; deps : int list; dispatched : bool }

type step = {
  op : Op.t;
  cost : float;
  result_size : int;
  start : float;
  finish : float;
  coalesced : bool;
  sched : sched option;
}

type result = {
  answer : Item_set.t;
  steps : step list;
  total_cost : float;
  makespan : float;
  busy : float array;
  timeline : Sim.timeline;
  failures : int;
  partial : bool;
}

let to_exec_steps steps =
  List.map (fun s -> { Exec.op = s.op; cost = s.cost; result_size = s.result_size }) steps

module Engine = struct
  type request = { rq_op : Op.t; rq_server : int; rq_ready : float; rq_task : int }

  type call = {
    call :
      'a.
      sched -> ready:float -> (Source.t -> 'a) -> 'a option * int * float * Sim.scheduled;
  }

  (* The default source call: one logical source query issued through
     the runtime on the source's own lane. The thunk — running on a pool
     worker under a real-clock backend — touches only the source:
     attempts run back to back until success, an exhausted retry
     budget, or an exhausted per-query deadline, and the meter delta is
     captured on the lane (where same-source requests serialize) for
     wall-clock calibration. Engine state — the failure counter,
     caches, bindings — is applied on the driving fibre after the call
     returns, so the thunk is safe to run on another domain. *)
  let source_call ~rt ~(policy : Exec.policy) ~deadline sources =
    let retries = policy.Exec.retries in
    let fail_fast = policy.Exec.on_exhausted = `Fail in
    let call sc ~ready f =
      let s = sources.(sc.server) in
      let thunk () =
        let before = Source.totals s in
        let rec go budget fails =
          match f s with
          | v -> (Some v, fails)
          | exception Source.Timeout _ ->
            if budget > 0 && (Source.totals s).Meter.cost -. before.Meter.cost < deadline
            then go (budget - 1) (fails + 1)
            else (None, fails + 1)
        in
        let outcome, fails = go retries 0 in
        let after = Source.totals s in
        let delta =
          {
            Meter.requests = after.Meter.requests - before.Meter.requests;
            items_sent = after.Meter.items_sent - before.Meter.items_sent;
            items_received = after.Meter.items_received - before.Meter.items_received;
            tuples_received = after.Meter.tuples_received - before.Meter.tuples_received;
            cost = after.Meter.cost -. before.Meter.cost;
          }
        in
        (* Under [`Fail] the sequential oracle raises before its failed
           attempt ever reaches the network: don't book it. *)
        let book = outcome <> None || not fail_fast in
        ((outcome, fails, delta), delta.Meter.cost, book)
      in
      let (outcome, fails, delta), ev =
        Runtime.call rt ~id:sc.task ~server:sc.server ~ready ~deps:sc.deps thunk
      in
      Runtime.observe rt ~server:sc.server ~totals:delta
        ~wall:(ev.Sim.finish -. ev.Sim.start);
      (outcome, fails, delta.Meter.cost, ev)
    in
    { call }

  type t = {
    ops : Op.t array;
    cops : Plan_compile.cop array;
    nodes : (Op.t * int * int list) array;
    out : int;
    cache : Query_cache.t option;
    policy : Exec.policy;
    call : call;
    answers : Answer_cache.t;
    offset : int;
    base : float;
    (* The engine's own slot frame — the compiled plan's frame is
       scratch for sequential runs — and the instant at which each
       slot's value is available (simulated or wall clock, whichever
       the runtime keeps). *)
    binding : Plan_compile.slot array;
    ready : float array;
    mutable pc : int; (* the next operation to execute *)
    mutable sq_index : int; (* plan-order position of the next source query *)
    mutable steps : step list; (* newest first *)
    mutable failures : int;
    mutable partial : bool;
  }

  let create ?call ?cache ?(policy = Exec.default_policy) ?(deadline = infinity) ?answers
      ?(offset = 0) ?(base = 0.0) ~rt cp =
    {
      ops = Plan_compile.ops cp;
      cops = Plan_compile.cops cp;
      nodes = Plan_compile.nodes cp;
      out = Plan_compile.output cp;
      cache;
      policy;
      call =
        (match call with
        | Some c -> c
        | None -> source_call ~rt ~policy ~deadline (Plan_compile.sources cp));
      answers = (match answers with Some a -> a | None -> Answer_cache.create ());
      offset;
      base;
      binding = Array.make (Plan_compile.nslots cp) Plan_compile.Unset;
      ready = Array.make (Plan_compile.nslots cp) base;
      pc = 0;
      sq_index = 0;
      steps = [];
      failures = 0;
      partial = false;
    }

  let uses : Plan_compile.cop -> int array = function
    | CSelect _ | CLoad _ -> [||]
    | CSemijoin { input; _ } | CLocal { input; _ } -> [| input |]
    | CUnion { args; _ } | CInter { args; _ } -> args
    | CDiff { left; right; _ } -> [| left; right |]

  let ready_of t k =
    Array.fold_left (fun acc i -> Float.max acc t.ready.(i)) t.base (uses t.cops.(k))

  let bind t dst value at =
    t.binding.(dst) <- value;
    t.ready.(dst) <- at

  let items t i = Plan_compile.items t.binding i

  (* The schedule slot of the next source query, aligned with the
     compiled dataflow nodes; ids (and the deps they reference) are
     shifted by [offset] so timelines of many engines sharing one
     network never collide. *)
  let next_node t =
    let id = t.sq_index in
    t.sq_index <- t.sq_index + 1;
    let _, server, deps = t.nodes.(id) in
    { task = t.offset + id; server; deps = List.map (fun d -> t.offset + d) deps;
      dispatched = false }

  (* Executes operation [k]; [sched] is the schedule slot of a source
     query, [None] for a local operation. *)
  let exec_op t ctx k sched =
    let op = t.ops.(k) and ready = ready_of t k in
    let local dst answer =
      bind t dst (Plan_compile.Items answer) ready;
      { op; cost = 0.0; result_size = Item_set.cardinal answer; start = ready;
        finish = ready; coalesced = false; sched = None }
    in
    (* A source query answered without occupying its source: a cached
       answer, or one joined in flight ([coalesced]). *)
    let reused s ?probe dst (finish, answer, coalesced) =
      Query_cache.hit t.cache ctx s ?probe answer;
      bind t dst (Plan_compile.Items answer) finish;
      { op; cost = 0.0; result_size = Item_set.cardinal answer; start = ready; finish;
        coalesced; sched }
    in
    (* Dispatches the source query through the engine's source call.
       [on_answer] files a successful answer and returns its binding and
       size; once the call gives up under [`Partial] the step binds
       [empty ()] and marks the answer partial. The step's schedule slot
       is the one the call settled on: on the default call that is the
       dataflow node itself; a routing call reports its own request ids
       and lanes. *)
    let fetch dst ~empty query on_answer =
      let outcome, fails, cost, ev = t.call.call (Option.get sched) ~ready query in
      t.failures <- t.failures + fails;
      let value, result_size =
        match outcome with
        | Some v -> on_answer v ev
        | None ->
          if t.policy.Exec.on_exhausted = `Fail then raise (Source.Timeout (Op.dst op));
          t.partial <- true;
          (empty (), 0)
      in
      bind t dst value ev.Sim.finish;
      let task = ev.Sim.task in
      { op; cost; result_size; start = ev.Sim.start; finish = ev.Sim.finish;
        coalesced = false;
        sched =
          Some
            { task = task.Sim.id; server = task.Sim.server; deps = task.Sim.deps;
              dispatched = true } }
    in
    let no_items () = Plan_compile.Items Item_set.empty in
    match t.cops.(k) with
    | CSelect { dst; s; cond; sname; ctext } -> (
      let version () = Relation.version (Source.relation s) in
      let copy =
        match
          Answer_cache.find t.answers ~source:sname ~cond:ctext ~version:(version ()) ~ready ()
        with
        | Answer_cache.Inflight (finish, answer) ->
          (* The same selection is in flight: share its request. *)
          Some (finish, answer, true)
        | Answer_cache.Cached (_staleness, answer) ->
          (* A recent enough answer from another query: reuse it. *)
          Some (ready, answer, false)
        | Answer_cache.Miss ->
          Option.bind t.cache (fun c -> Query_cache.find c ~sname ~ctext)
          |> Option.map (fun answer -> (ready, answer, false))
      in
      match copy with
      | Some copy -> reused s dst copy
      | None ->
        fetch dst ~empty:no_items
          (fun src -> fst (Source.select_query src cond))
          (fun answer ev ->
            Option.iter (fun c -> Query_cache.store c ~sname ~ctext answer) t.cache;
            Query_cache.miss t.cache ctx;
            Answer_cache.note t.answers ~source:sname ~cond:ctext ~finish:ev.Sim.finish
              ~version:(version ()) answer;
            (Plan_compile.Items answer, Item_set.cardinal answer)))
    | CSemijoin { dst; s; cond; input; sname; ctext } -> (
      let probe = items t input in
      let derived =
        match
          Answer_cache.find t.answers ~source:sname ~cond:ctext
            ~version:(Relation.version (Source.relation s))
            ~ready ()
        with
        | Answer_cache.Inflight (finish, full) ->
          (* The selection answer being fetched is a superset: join the
             in-flight request and intersect locally on arrival. *)
          Some (finish, Item_set.inter full probe, true)
        | Answer_cache.Cached (_staleness, full) ->
          Some (ready, Item_set.inter full probe, false)
        | Answer_cache.Miss -> (
          match Option.bind t.cache (fun c -> Query_cache.find c ~sname ~ctext) with
          | Some full -> Some (ready, Item_set.inter full probe, false)
          | None ->
            Option.bind t.cache (fun c -> Query_cache.find_sjq c ~sname ~ctext probe)
            |> Option.map (fun answer -> (ready, answer, false)))
      in
      match derived with
      | Some copy -> reused s ~probe dst copy
      | None ->
        fetch dst ~empty:no_items
          (fun src -> fst (Source.semijoin_query src cond probe))
          (fun answer _ev ->
            Option.iter
              (fun c -> Query_cache.store_sjq c ~sname ~ctext probe answer)
              t.cache;
            Query_cache.miss t.cache ctx;
            (Plan_compile.Items answer, Item_set.cardinal answer)))
    | CLoad { dst; s } ->
      fetch dst
        ~empty:(fun () ->
          Plan_compile.Loaded (Relation.create ~name:(Source.name s) (Source.schema s)))
        (fun src -> fst (Source.load_query src))
        (fun relation _ev -> (Plan_compile.Loaded relation, Relation.cardinality relation))
    | CLocal { dst; cond; input; state } ->
      local dst (Plan_compile.scan state cond (Plan_compile.loaded t.binding input))
    | CUnion { dst; args } ->
      local dst (Item_set.union_list (Array.to_list (Array.map (items t) args)))
    | CInter { dst; args } ->
      local dst (Item_set.inter_list (Array.to_list (Array.map (items t) args)))
    | CDiff { dst; left; right } -> local dst (Item_set.diff (items t left) (items t right))

  let run_op t k sched =
    let op = t.ops.(k) in
    let step =
      Trace.span Trace.Step (Op.name op) (fun ctx ->
          let failures_before = t.failures in
          let step = exec_op t ctx k sched in
          if Trace.active ctx then begin
            Trace.attrs ctx
              [
                ("dst", Trace.Str (Op.dst op));
                ("cost", Trace.Float step.cost);
                ("result_size", Trace.Int step.result_size);
                ("t_start", Trace.Float step.start);
                ("t_finish", Trace.Float step.finish);
              ];
            (match step.sched with
            | Some s ->
              Trace.attrs ctx
                [
                  ("task", Trace.Int s.task);
                  ("server", Trace.Int s.server);
                  ("deps",
                   Trace.Str (String.concat "," (List.map string_of_int s.deps)));
                  ("dispatched", Trace.Bool s.dispatched);
                ]
            | None -> ());
            (match op with
            | Select { cond = c; _ } | Semijoin { cond = c; _ }
            | Local_select { cond = c; _ } ->
              Trace.attr ctx "cond" (Trace.Int c)
            | _ -> ());
            if step.coalesced then Trace.attr ctx "coalesced" (Trace.Bool true);
            if t.failures > failures_before then
              Trace.attr ctx "timeouts" (Trace.Int (t.failures - failures_before))
          end;
          step)
    in
    t.steps <- step :: t.steps;
    step

  let finished t = t.pc >= Array.length t.ops

  (* Evaluate free local operations at the head of the cursor, then
     surface the next source query (or nothing, when the plan is done).
     Local operations never need a scheduling decision: they cost
     nothing and happen the instant their inputs are available. *)
  let rec pending t =
    if finished t then None
    else
      let k = t.pc in
      let op = t.ops.(k) in
      if Op.is_source_query op then
        let _, server, _ = t.nodes.(t.sq_index) in
        Some
          {
            rq_op = op;
            rq_server = server;
            rq_ready = ready_of t k;
            rq_task = t.offset + t.sq_index;
          }
      else begin
        t.pc <- k + 1;
        ignore (run_op t k None);
        pending t
      end

  let dispatch t =
    let k = t.pc in
    if finished t || not (Op.is_source_query t.ops.(k)) then
      invalid_arg "Exec_async.Engine.dispatch: no pending source query";
    t.pc <- k + 1;
    run_op t k (Some (next_node t))

  let task_count t = Array.length t.nodes
  let steps t = List.rev t.steps
  let failures t = t.failures
  let partial t = t.partial

  let total_cost t = List.fold_left (fun acc s -> acc +. s.cost) 0.0 t.steps
  let finish_time t = List.fold_left (fun acc s -> Float.max acc s.finish) t.base t.steps

  let answer t =
    if not (finished t) then invalid_arg "Exec_async.Engine.answer: plan not finished";
    items t t.out
end

(* The sequential driver: dispatch every request the moment it
   surfaces. On the simulator this is the oracle execution order. *)
let drive_sequential e =
  let rec drive () =
    match Engine.pending e with
    | Some _ ->
      ignore (Engine.dispatch e);
      drive ()
    | None -> ()
  in
  drive ()

(* The concurrent dataflow driver for real-clock runtimes: walk the
   plan in order, fork one fibre per source query, and synchronize
   through per-slot promises — an op waits only for the in-flight
   producers of its own inputs, so independent queries really overlap
   while the runtime's per-server lanes keep each source FIFO. Node
   ids are assigned on the driving fibre, in plan order, before the
   query fibre first suspends. *)
let drive_concurrent (e : Engine.t) rt =
  Runtime.run rt @@ fun () ->
  let inflight = Array.make (Array.length e.binding) None in
  Fiber.Switch.run (fun sw ->
      while not (Engine.finished e) do
        let k = e.pc in
        Array.iter (fun i -> Option.iter Fiber.Promise.await inflight.(i))
          (Engine.uses e.cops.(k));
        e.pc <- k + 1;
        match e.cops.(k) with
        | CSelect { dst; _ } | CSemijoin { dst; _ } | CLoad { dst; _ } ->
          let node = Engine.next_node e in
          let p = Fiber.Promise.create () in
          inflight.(dst) <- Some p;
          Fiber.Switch.fork sw (fun () ->
              Fun.protect
                ~finally:(fun () -> Fiber.Promise.resolve p ())
                (fun () -> ignore (Engine.run_op e k (Some node))))
        | CLocal _ | CUnion _ | CInter _ | CDiff _ -> ignore (Engine.run_op e k None)
      done)

(* The engine's schedule, from its own dispatched steps: a step holds
   the slot its runtime call returned, and the runtime keeps no record
   per request on a real clock. A simulated slot's duration is the
   step's model cost; a measured one's is its wall-clock span. *)
let scheduled_of_steps ~real steps =
  List.filter_map
    (fun s ->
      match s.sched with
      | Some { task = id; server; deps; dispatched = true } ->
        let duration = if real then Float.max 0.0 (s.finish -. s.start) else s.cost in
        Some
          { Sim.task = { Sim.id; server; duration; deps }; start = s.start;
            finish = s.finish }
      | Some { dispatched = false; _ } | None -> None)
    steps

let collect e rt =
  let steps = Engine.steps e in
  {
    answer = Engine.answer e;
    steps;
    total_cost = List.fold_left (fun acc s -> acc +. s.cost) 0.0 steps;
    makespan = List.fold_left (fun acc s -> Float.max acc s.finish) 0.0 steps;
    busy = Runtime.busy rt;
    timeline = Sim.timeline_of (scheduled_of_steps ~real:(Runtime.is_real rt) steps);
    failures = Engine.failures e;
    partial = Engine.partial e;
  }

let run_on ?cache ?policy ?deadline ~rt cp =
  let e = Engine.create ?cache ?policy ?deadline ~rt cp in
  if Runtime.is_real rt then drive_concurrent e rt else drive_sequential e;
  collect e rt

let run ?cache ?policy ?deadline ~sources ~conds plan =
  match Plan_compile.compile ~sources ~conds plan with
  | Error msg -> raise (Exec.Runtime_error msg)
  | Ok cp ->
    run_on ?cache ?policy ?deadline ~rt:(Runtime.sim ~servers:(Array.length sources)) cp
