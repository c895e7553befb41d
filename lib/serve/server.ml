(* Multi-query serving on one shared network.

   A server holds one [Fusion_rt.Runtime] over a fixed source array
   and multiplexes many fusion queries onto it. Each admitted query is
   compiled and becomes an [Exec_async.Engine] over the compiled plan —
   an incremental cursor that evaluates local
   operations for free and surfaces one source query at a time — and
   the server's event loop is the scheduler: at every step it either
   admits the next arrival or dispatches, among the in-flight engines'
   pending requests, the one its policy ranks first.

   The loop interleaves arrivals and dispatches in simulated-time
   order: an arrival is admitted before any dispatch that could only
   start after it, so admission-time signals (queue backlog) are read
   at a consistent instant. With a single in-flight query and the
   [Fifo] policy every surfaced request is dispatched immediately, which
   makes the execution byte-identical to [Exec_async.run] — the
   serving layer's correctness anchor, pinned by the equivalence test.

   Admission control sheds load instead of queueing it hopelessly: a
   submission bounces when the in-flight population is at the cap
   ([Queue_full]) or when, for a job with a deadline, the worst-case
   source backlog plus the optimizer's cost estimate already exceeds
   the budget ([Deadline_unmeetable]).

   Bookkeeping maintains the conservation law

     submitted = queued + in_flight + completed + shed

   at every step; after [drain], queued and in_flight are zero. *)

open Fusion_data
open Fusion_cond
open Fusion_source
module Runtime = Fusion_rt.Runtime
module Fiber = Fusion_rt.Fiber
module Plan = Fusion_plan.Plan
module Exec = Fusion_plan.Exec
module Exec_async = Fusion_plan.Exec_async
module Engine = Exec_async.Engine
module Answer_cache = Fusion_plan.Answer_cache
module Plan_compile = Fusion_plan.Plan_compile
module Query = Fusion_query.Query
module Delta = Fusion_delta.Delta
module Change = Fusion_delta.Change
module Maintained = Fusion_delta.Maintained
module Metrics = Fusion_obs.Metrics
module Summary = Fusion_obs.Summary
module Window = Fusion_obs.Window

type policy = Fifo | Priority | Fair_share | Sjf

let policy_name = function
  | Fifo -> "fifo"
  | Priority -> "priority"
  | Fair_share -> "fair"
  | Sjf -> "sjf"

let policy_of_name = function
  | "fifo" -> Some Fifo
  | "priority" -> Some Priority
  | "fair" | "fair_share" | "fair-share" -> Some Fair_share
  | "sjf" -> Some Sjf
  | _ -> None

let all_policies = [ Fifo; Priority; Fair_share; Sjf ]

type job = {
  plan : Plan.t;
  conds : Cond.t array;
  tenant : string;
  priority : int;
  est_cost : float;
  deadline : float option;
  label : string; (* human-readable descriptor (the SQL text); "" if none *)
}

type shed_reason = Queue_full | Deadline_unmeetable

let shed_reason_name = function
  | Queue_full -> "queue_full"
  | Deadline_unmeetable -> "deadline_unmeetable"

type completion = {
  c_id : int;
  c_job : job;
  c_submitted : float;
  c_finished : float;
  c_response : float;
  c_cost : float;
  c_answer : Item_set.t option;
  c_failed : string option;
  c_partial : bool;
  c_steps : Exec_async.step list;
}

type shed = { s_id : int; s_job : job; s_at : float; s_reason : shed_reason }

type stats = {
  submitted : int;
  queued : int;
  in_flight : int;
  completed : int;
  shed : int;
}

type tenant_stats = {
  ts_submitted : int;
  ts_completed : int;
  ts_shed : int;
  ts_consumed : float;  (* service cost dispatched on the tenant's behalf *)
  ts_summary : Summary.t;
  ts_window : Window.t;
}

type tenant = {
  mutable tn_submitted : int;
  mutable tn_completed : int;
  mutable tn_shed : int;
  mutable tn_consumed : float;
  (* Dispatched steps since the counter was last flushed to the metrics
     registry. Dispatch is the per-step hot path — queries dispatch
     tens of source requests each — so the increment is buffered here
     and folded into the registry by the per-query record calls
     (completion/failure), never one registry round-trip per step. *)
  mutable tn_dispatch_pending : int;
  tn_summary : Summary.t;
  tn_window : Window.t;
}

type subscription = {
  sub_id : int;
  sub_tenant : string;
  sub_label : string;
  sub_maintained : Maintained.t;
  mutable sub_pushes : int;
}

type subscription_info = {
  si_id : int;
  si_tenant : string;
  si_label : string;
  si_pushes : int;
  si_answer_size : int;
}

type push = {
  pu_sub : int;
  pu_tenant : string;
  pu_label : string;
  pu_seq : int;
  pu_change : Change.t;
  pu_rows : int;
  pu_at : float;
}

type delta_stats = {
  ds_batches : int;
  ds_inserts : int;
  ds_deletes : int;
  ds_pushes : int;
  ds_subscribers : int;
}

type pending = { p_id : int; p_job : job; p_at : float }

(* [a_busy] is set while a real-clock dispatch fibre is inside the
   engine: the cursor is strictly sequential per engine, so a busy
   engine is skipped by [settle] and the candidate scan until its
   request completes. Always [false] on the simulator. *)
type active = {
  a_id : int;
  a_job : job;
  a_at : float;
  a_engine : Engine.t;
  mutable a_busy : bool;
}

type t = {
  sources : Source.t array;
  window_span : float; (* per-tenant sliding-window length, server-clock seconds *)
  slow_log : Slow_log.t option;
  rt : Runtime.t;
  answers : Answer_cache.t;
  exec_policy : Exec.policy;
  policy : policy;
  max_inflight : int;
  mutable seq : int;
  mutable task_offset : int;
  mutable queue : pending list; (* sorted by (arrival, id) *)
  mutable inflight : active list; (* in admission order *)
  (* Finished jobs are counted, not kept: their records reach callers
     only through the hooks, so a long-running server holds nothing per
     answered statement. *)
  mutable completed : int;
  mutable shed_queue_full : int;
  mutable shed_deadline : int;
  tenants : (string, tenant) Hashtbl.t;
  mutable hooks : (completion -> unit) list;
  mutable shed_hooks : (shed -> unit) list;
  mutable push_hooks : (push -> unit) list;
  mutable subs : subscription list; (* in subscription order *)
  mutable sub_seq : int;
  mutable delta_batches : int;
  mutable delta_inserts : int;
  mutable delta_deletes : int;
  mutable pushes : int;
  mutable now : float; (* latest instant the server acted at *)
  wake : Fiber.Semaphore.t; (* nudged on submit/completion; a real-clock pump waits here *)
}

let create ?(policy = Fifo) ?(max_inflight = 64) ?cache_ttl ?(versioned_cache = false)
    ?(exec_policy = Exec.default_policy) ?(window = 60.0) ?slow_log ?rt
    sources =
  if max_inflight < 1 then invalid_arg "Server.create: max_inflight must be >= 1";
  if not (Float.is_finite window && window > 0.0) then
    invalid_arg "Server.create: window must be positive";
  {
    sources;
    window_span = window;
    slow_log;
    rt =
      (match rt with
      | Some rt -> rt
      | None -> Runtime.sim ~servers:(Array.length sources));
    answers = Answer_cache.create ?ttl:cache_ttl ~versioned:versioned_cache ();
    exec_policy;
    policy;
    max_inflight;
    seq = 0;
    task_offset = 0;
    queue = [];
    inflight = [];
    completed = 0;
    shed_queue_full = 0;
    shed_deadline = 0;
    tenants = Hashtbl.create 8;
    hooks = [];
    shed_hooks = [];
    push_hooks = [];
    subs = [];
    sub_seq = 0;
    delta_batches = 0;
    delta_inserts = 0;
    delta_deletes = 0;
    pushes = 0;
    now = 0.0;
    wake = Fiber.Semaphore.create 0;
  }

let policy t = t.policy
let window_span t = t.window_span
let slow_log t = t.slow_log

(* The dictionary scope the server's relations are encoded in: sources
   loaded from one catalog share one table (the catalog scope), so the
   first source's is representative. *)
let dictionary t =
  if Array.length t.sources = 0 then None
  else Some (Relation.intern (Source.relation t.sources.(0)))

let dictionary_size t =
  match dictionary t with None -> 0 | Some tbl -> Intern.size tbl

let runtime t = t.rt
let timeline t = Runtime.timeline t.rt
let busy t = Runtime.busy t.rt
let cache_stats t = Answer_cache.stats t.answers
let now t = t.now
let on_complete t hook = t.hooks <- t.hooks @ [ hook ]
let on_shed t hook = t.shed_hooks <- t.shed_hooks @ [ hook ]
let on_push t hook = t.push_hooks <- t.push_hooks @ [ hook ]

let tenant t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn
  | None ->
    let tn =
      {
        tn_submitted = 0;
        tn_completed = 0;
        tn_shed = 0;
        tn_consumed = 0.0;
        tn_dispatch_pending = 0;
        tn_summary = Summary.create ();
        tn_window = Window.create ~span:t.window_span ();
      }
    in
    Hashtbl.replace t.tenants name tn;
    tn

let tenants t =
  Hashtbl.fold
    (fun name tn acc ->
      ( name,
        {
          ts_submitted = tn.tn_submitted;
          ts_completed = tn.tn_completed;
          ts_shed = tn.tn_shed;
          ts_consumed = tn.tn_consumed;
          ts_summary = tn.tn_summary;
          ts_window = tn.tn_window;
        } )
      :: acc)
    t.tenants []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let submit t ~at job =
  if at < 0.0 then invalid_arg "Server.submit: negative arrival time";
  let id = t.seq in
  t.seq <- t.seq + 1;
  (tenant t job.tenant).tn_submitted <- (tenant t job.tenant).tn_submitted + 1;
  Metrics.record (fun r ->
      Metrics.incr r ~labels:[ ("tenant", job.tenant) ] "fusion_serve_submitted_total");
  let p = { p_id = id; p_job = job; p_at = at } in
  (* Insert in (arrival, id) order; submissions are usually appended. *)
  let rec insert = function
    | [] -> [ p ]
    | q :: rest when q.p_at < p.p_at || (q.p_at = p.p_at && q.p_id < p.p_id) ->
      q :: insert rest
    | rest -> p :: rest
  in
  t.queue <- insert t.queue;
  Fiber.Semaphore.release t.wake;
  id

let nudge t = Fiber.Semaphore.release t.wake

let stats t =
  {
    submitted = t.seq;
    queued = List.length t.queue;
    in_flight = List.length t.inflight;
    completed = t.completed;
    shed = t.shed_queue_full + t.shed_deadline;
  }

let conservation_ok s = s.submitted = s.queued + s.in_flight + s.completed + s.shed

(* Books a finished job: completion count, tenant accounting, slow
   log, metrics, hooks. *)
let complete t c =
  t.now <- Float.max t.now c.c_finished;
  t.completed <- t.completed + 1;
  let job = c.c_job in
  let tn = tenant t job.tenant in
  tn.tn_completed <- tn.tn_completed + 1;
  Summary.add tn.tn_summary ~plan:(policy_name t.policy) ~est_cost:job.est_cost
    ~cost:c.c_cost ~response_time:c.c_response ();
  (* The window's clock is the server's: simulated instants on the sim
     backend, epoch-relative wall seconds on domains — monotone either
     way. *)
  Window.add tn.tn_window ~now:c.c_finished c.c_response;
  Option.iter
    (fun log ->
      Slow_log.note log ~id:c.c_id ~tenant:job.tenant ~label:job.label ~plan:job.plan
        ~submitted:c.c_submitted ~response:c.c_response ~cost:c.c_cost
        ~failed:c.c_failed c.c_steps)
    t.slow_log;
  Metrics.record (fun r ->
      let ls = [ ("tenant", job.tenant) ] in
      Metrics.incr r ~labels:ls "fusion_serve_completed_total";
      if c.c_failed <> None then Metrics.incr r ~labels:ls "fusion_serve_failed_total";
      if tn.tn_dispatch_pending > 0 then begin
        Metrics.incr r ~labels:ls
          ~by:(float_of_int tn.tn_dispatch_pending)
          "fusion_serve_dispatched_total";
        tn.tn_dispatch_pending <- 0
      end;
      Metrics.observe r ~labels:ls "fusion_serve_response_time"
        (int_of_float (Float.round c.c_response)));
  List.iter (fun hook -> hook c) t.hooks

let finalize t a ~failed =
  t.inflight <- List.filter (fun x -> x.a_id <> a.a_id) t.inflight;
  let finished = Float.max a.a_at (Engine.finish_time a.a_engine) in
  complete t
    {
      c_id = a.a_id;
      c_job = a.a_job;
      c_submitted = a.a_at;
      c_finished = finished;
      c_response = finished -. a.a_at;
      c_cost = Engine.total_cost a.a_engine;
      c_answer = (if failed = None then Some (Engine.answer a.a_engine) else None);
      c_failed = failed;
      c_partial = Engine.partial a.a_engine;
      c_steps = Engine.steps a.a_engine;
    }

(* Retire every in-flight engine whose plan has run out of operations.
   [Engine.pending] also evaluates trailing local operations, so this
   is what materializes final answers. *)
let settle t =
  let finished, running =
    List.partition
      (fun a -> (not a.a_busy) && Engine.pending a.a_engine = None)
      t.inflight
  in
  t.inflight <- running;
  List.iter (fun a -> finalize t a ~failed:None) finished

let shed t p reason =
  t.now <- Float.max t.now p.p_at;
  let s = { s_id = p.p_id; s_job = p.p_job; s_at = p.p_at; s_reason = reason } in
  (match reason with
  | Queue_full -> t.shed_queue_full <- t.shed_queue_full + 1
  | Deadline_unmeetable -> t.shed_deadline <- t.shed_deadline + 1);
  let tn = tenant t p.p_job.tenant in
  tn.tn_shed <- tn.tn_shed + 1;
  Metrics.record (fun r ->
      Metrics.incr r
        ~labels:[ ("tenant", p.p_job.tenant); ("reason", shed_reason_name reason) ]
        "fusion_serve_shed_total");
  List.iter (fun hook -> hook s) t.shed_hooks

let admit t p =
  t.now <- Float.max t.now p.p_at;
  if List.length t.inflight >= t.max_inflight then shed t p Queue_full
  else
    let unmeetable =
      match p.p_job.deadline with
      | None -> false
      | Some budget ->
        (* Worst case, every remaining source query of this job lands on
           the most backlogged source; if even the estimate can't fit in
           the budget behind that backlog, don't bother starting. *)
        let backlog = Runtime.backlog t.rt ~at:p.p_at in
        let wait = Array.fold_left Float.max 0.0 backlog in
        wait +. p.p_job.est_cost > budget
    in
    if unmeetable then shed t p Deadline_unmeetable
    else
      match Plan_compile.compile ~sources:t.sources ~conds:p.p_job.conds p.p_job.plan with
      | Error msg ->
        (* A plan that cannot compile could not run either: it fails
           at admission, without occupying any source. *)
        complete t
          {
            c_id = p.p_id;
            c_job = p.p_job;
            c_submitted = p.p_at;
            c_finished = p.p_at;
            c_response = 0.0;
            c_cost = 0.0;
            c_answer = None;
            c_failed = Some ("invalid plan: " ^ msg);
            c_partial = false;
            c_steps = [];
          }
      | Ok cp ->
        let engine =
          Engine.create ~policy:t.exec_policy ~answers:t.answers ~offset:t.task_offset
            ~base:p.p_at ~rt:t.rt cp
        in
        t.task_offset <- t.task_offset + Engine.task_count engine;
        t.inflight <-
          t.inflight
          @ [ { a_id = p.p_id; a_job = p.p_job; a_at = p.p_at; a_engine = engine;
                a_busy = false } ]

(* How the policy ranks a pending request; lexicographic, smaller
   first. The trailing submission id makes every ordering total and
   deterministic. *)
let rank t a (rq : Engine.request) =
  match t.policy with
  | Fifo -> (rq.Engine.rq_ready, 0.0, float_of_int a.a_id)
  | Priority -> (-.float_of_int a.a_job.priority, rq.Engine.rq_ready, float_of_int a.a_id)
  | Fair_share ->
    ((tenant t a.a_job.tenant).tn_consumed, rq.Engine.rq_ready, float_of_int a.a_id)
  | Sjf -> (a.a_job.est_cost, rq.Engine.rq_ready, float_of_int a.a_id)

let pick t candidates =
  let best =
    List.fold_left
      (fun acc c ->
        match acc with
        | None -> Some c
        | Some (ba, brq) ->
          let a, rq = c in
          if compare (rank t a rq) (rank t ba brq) < 0 then Some c else acc)
      None candidates
  in
  best

(* Executes one dispatch for [a] synchronously (on the simulator this
   is instantaneous; on a real clock the calling fibre suspends for the
   request's wall time) and accounts for it. *)
let dispatch_for t a =
  match Engine.dispatch a.a_engine with
  | step ->
    t.now <- Float.max t.now step.Exec_async.finish;
    let tn = tenant t a.a_job.tenant in
    tn.tn_consumed <- tn.tn_consumed +. step.Exec_async.cost;
    tn.tn_dispatch_pending <- tn.tn_dispatch_pending + 1
  | exception Source.Timeout d ->
    finalize t a ~failed:(Some (Printf.sprintf "timeout on %s" d))
  | exception Exec.Runtime_error msg -> finalize t a ~failed:(Some msg)

let dispatch_one t candidates =
  match pick t candidates with None -> () | Some (a, _rq) -> dispatch_for t a

(* The earliest instant any pending request could actually start:
   arrivals before that point must be admitted first so the schedule
   unfolds in simulated-time order. *)
let earliest_start t candidates =
  List.fold_left
    (fun acc (_, rq) ->
      Float.min acc
        (Float.max rq.Engine.rq_ready (Runtime.free_at t.rt rq.Engine.rq_server)))
    infinity candidates

let candidates t =
  List.filter_map
    (fun a ->
      if a.a_busy then None
      else
        match Engine.pending a.a_engine with Some rq -> Some (a, rq) | None -> None)
    t.inflight

let step t =
  settle t;
  let candidates = candidates t in
  match (t.queue, candidates) with
  | [], [] -> false
  | p :: rest, _ when candidates = [] || p.p_at <= earliest_start t candidates ->
    t.queue <- rest;
    admit t p;
    true
  | _, _ :: _ ->
    dispatch_one t candidates;
    true
  | _ :: _, [] -> assert false

(* The real-clock event loop: same scheduling decisions as [step], but
   a dispatch is forked as a fibre that suspends for the request's wall
   time while the loop keeps admitting and dispatching other engines —
   queries genuinely overlap, the policy still picks who goes next.
   Runs until [stop ()] holds and the server is idle; [submit] and
   every completion nudge [t.wake], so a front end can keep feeding the
   pump while it runs. Must be called inside the runtime's fibre
   scheduler (see [Fusion_rt.Runtime.run]). *)
let pump t ~stop =
  Fiber.Switch.run @@ fun sw ->
  let rec loop () =
    settle t;
    let cs = candidates t in
    let busy_exists () = List.exists (fun a -> a.a_busy) t.inflight in
    match (t.queue, cs) with
    | [], [] ->
      if busy_exists () || not (stop ()) then begin
        Fiber.Semaphore.acquire t.wake;
        loop ()
      end
    | p :: rest, _ when cs = [] || p.p_at <= earliest_start t cs ->
      t.queue <- rest;
      admit t p;
      loop ()
    | _, _ :: _ ->
      (match pick t cs with
      | None -> ()
      | Some (a, _rq) ->
        a.a_busy <- true;
        Fiber.Switch.fork sw (fun () ->
            Fun.protect
              ~finally:(fun () ->
                a.a_busy <- false;
                Fiber.Semaphore.release t.wake)
              (fun () -> dispatch_for t a)));
      loop ()
    | _ :: _, [] -> assert false
  in
  loop ()

let drain t =
  if Runtime.is_real t.rt then
    Runtime.run t.rt (fun () -> pump t ~stop:(fun () -> true))
  else while step t do () done

let shed_counts t = (t.shed_queue_full, t.shed_deadline)

(* ---------- standing queries and source deltas ---------- *)

let subscribe t ~tenant ?(label = "") ~conds plan =
  match Query.create (Array.to_list conds) with
  | Error e -> Error e
  | Ok query -> (
    match Maintained.create ~query ~sources:(Array.to_list t.sources) plan with
    | Error e -> Error e
    | Ok m ->
      let id = t.sub_seq in
      t.sub_seq <- t.sub_seq + 1;
      t.subs <-
        t.subs
        @ [ { sub_id = id; sub_tenant = tenant; sub_label = label;
              sub_maintained = m; sub_pushes = 0 } ];
      Metrics.record (fun r ->
          Metrics.incr r ~labels:[ ("tenant", tenant) ] "fusion_delta_subscribe_total");
      Ok id)

let unsubscribe t id =
  let before = List.length t.subs in
  t.subs <- List.filter (fun s -> s.sub_id <> id) t.subs;
  let removed = List.length t.subs < before in
  if removed then
    Metrics.record (fun r ->
        Metrics.incr r "fusion_delta_unsubscribe_total");
  removed

let subscriptions t =
  List.map
    (fun s ->
      {
        si_id = s.sub_id;
        si_tenant = s.sub_tenant;
        si_label = s.sub_label;
        si_pushes = s.sub_pushes;
        si_answer_size = Maintained.cardinal s.sub_maintained;
      })
    t.subs

let subscription_answer t id =
  List.find_opt (fun s -> s.sub_id = id) t.subs
  |> Option.map (fun s -> Maintained.answer s.sub_maintained)

let delta_stats t =
  {
    ds_batches = t.delta_batches;
    ds_inserts = t.delta_inserts;
    ds_deletes = t.delta_deletes;
    ds_pushes = t.pushes;
    ds_subscribers = List.length t.subs;
  }

let source_index t name =
  let n = Array.length t.sources in
  let rec go i =
    if i >= n then None
    else if String.equal (Source.name t.sources.(i)) name then Some i
    else go (i + 1)
  in
  go 0

(* A delta lands: apply it to the wrapped relation, patch or invalidate
   the shared answer cache, then propagate through every standing query
   and push non-empty answer diffs. Each completed cache entry is
   repaired by re-probing only the touched items; the patch itself
   copies the immutable cached answer once, through the delta-sized
   [Item_set] union/diff paths. Each standing query flips the bits of
   its candidate items in place ({!Maintained}), and a push carries the
   diff plus the answer's row count, never the full set. So besides
   [Delta.apply] and that one copy per patched entry, everything costs
   O(|touched| · consumers), never O(base). *)
let mutate t ~source delta =
  match source_index t source with
  | None -> Error (Printf.sprintf "unknown source %s" source)
  | Some j ->
    let rel = Source.relation t.sources.(j) in
    let applied = Delta.apply rel delta in
    let touched = applied.Delta.touched in
    t.delta_batches <- t.delta_batches + 1;
    t.delta_inserts <- t.delta_inserts + applied.Delta.inserted;
    t.delta_deletes <- t.delta_deletes + applied.Delta.deleted;
    Answer_cache.apply_delta t.answers ~source ~now:t.now
      ~version:applied.Delta.version
      ~patch:(fun ~cond answer ->
        match Cond.parse cond with
        | Error _ -> None
        | Ok c ->
          let change =
            Change.of_parts
              ~old_on:(Item_set.inter touched answer)
              ~new_on:(Cond_vec.semijoin_items (Cond_vec.compile rel c) touched)
          in
          Some (Change.apply answer change));
    let t0 = Runtime.now t.rt in
    let pushed = ref 0 in
    List.iter
      (fun sub ->
        let change = Maintained.source_changed sub.sub_maintained ~source:j ~touched in
        if not (Change.is_empty change) then begin
          sub.sub_pushes <- sub.sub_pushes + 1;
          t.pushes <- t.pushes + 1;
          incr pushed;
          let push =
            {
              pu_sub = sub.sub_id;
              pu_tenant = sub.sub_tenant;
              pu_label = sub.sub_label;
              pu_seq = sub.sub_pushes;
              pu_change = change;
              pu_rows = Maintained.cardinal sub.sub_maintained;
              pu_at = Runtime.now t.rt;
            }
          in
          List.iter (fun hook -> hook push) t.push_hooks
        end)
      t.subs;
    let elapsed = Runtime.now t.rt -. t0 in
    Metrics.record (fun r ->
        let ls = [ ("source", source) ] in
        Metrics.incr r ~labels:ls "fusion_delta_batches_total";
        if applied.Delta.inserted > 0 then
          Metrics.incr r ~labels:ls
            ~by:(float_of_int applied.Delta.inserted)
            "fusion_delta_inserts_total";
        if applied.Delta.deleted > 0 then
          Metrics.incr r ~labels:ls
            ~by:(float_of_int applied.Delta.deleted)
            "fusion_delta_deletes_total";
        if !pushed > 0 then
          Metrics.incr r ~by:(float_of_int !pushed) "fusion_delta_pushes_total";
        Metrics.observe r "fusion_delta_propagate_us"
          (int_of_float (elapsed *. 1e6)));
    Ok applied

(* Publish the server's live state as gauges into the installed
   registry — queue depths plus per-tenant sliding-window percentiles.
   Cumulative counters (submitted/completed/shed) are already recorded
   incrementally at each event; this covers the point-in-time view and
   is meant to run from the admin front's pre-scrape refresh hook. *)
let publish_metrics t =
  Answer_cache.publish_metrics t.answers;
  Metrics.record (fun r ->
      let g ?(ls = []) name v = Metrics.gauge r ~labels:ls name v in
      let s = stats t in
      g "fusion_serve_queued" (float_of_int s.queued);
      g "fusion_serve_in_flight" (float_of_int s.in_flight);
      g "fusion_serve_dictionary_size" (float_of_int (dictionary_size t));
      g "fusion_delta_subscribers" (float_of_int (List.length t.subs));
      let qf, du = shed_counts t in
      g ~ls:[ ("reason", shed_reason_name Queue_full) ] "fusion_serve_shed"
        (float_of_int qf);
      g
        ~ls:[ ("reason", shed_reason_name Deadline_unmeetable) ]
        "fusion_serve_shed" (float_of_int du);
      let now = t.now in
      Hashtbl.iter
        (fun name tn ->
          let ls = [ ("tenant", name) ] in
          if tn.tn_dispatch_pending > 0 then begin
            Metrics.incr r ~labels:ls
              ~by:(float_of_int tn.tn_dispatch_pending)
              "fusion_serve_dispatched_total";
            tn.tn_dispatch_pending <- 0
          end;
          let p = Window.snapshot tn.tn_window ~now in
          g ~ls "fusion_serve_window_p50" p.Summary.p50;
          g ~ls "fusion_serve_window_p90" p.Summary.p90;
          g ~ls "fusion_serve_window_p99" p.Summary.p99;
          g ~ls "fusion_serve_window_count" (float_of_int p.Summary.n))
        t.tenants)

let pp_stats ppf s =
  Format.fprintf ppf
    "conservation: submitted %d = completed %d + shed %d + in-flight %d + queued %d"
    s.submitted s.completed s.shed s.in_flight s.queued
