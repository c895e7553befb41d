(* The execution runtime: one signature, two backends. The async
   executor, the serving loop and the distributed coordinator all
   issue source requests through [Runtime.call]:

   - [sim] is the discrete-event simulator: per-server FIFO queues,
     admitted one task at a time (the incremental face of [Sim.run],
     which stays the replay oracle). A call's thunk runs synchronously
     and reports the model cost it consumed; that cost is the task's
     service duration, so answers, costs and timelines are
     deterministic (the oracle the equivalence tests pin).

   - [domains] issues the thunk on a {!Pool} worker — one lane per
     server, so requests at one source serialize FIFO exactly like the
     simulator's queues, while different sources answer with real OS
     parallelism — and measures wall-clock start/finish against the
     runtime's epoch. The caller suspends if it is a fibre (see
     {!Fiber}) or blocks its domain otherwise, so the same engine code
     drives both backends.

   The thunk's [book] flag keeps a subtle oracle invariant: under
   [`Fail] exhaustion the sequential executor raises before the failed
   attempt ever reaches the simulator's timeline, so the sim backend
   skips dispatch when [book] is false. The domains backend always
   books — real time passed either way.

   The domains backend keeps counters, not a record per request: the
   slot a call returns is the caller's to keep (an engine's steps, a
   coordinator's schedule), so a long-running server's memory does not
   grow with the requests it has answered.

   A runtime must be driven from one domain: its counters and
   observation state are mutated without locks (fibres interleave
   cooperatively; worker domains only run thunks and resolve
   suspensions). *)

module Sim = Fusion_net.Sim
module Meter = Fusion_net.Meter

type spec = [ `Sim | `Domains of int ]

let spec_of_string = function
  | "sim" -> Ok `Sim
  | "domains" -> Ok (`Domains 0)
  | s -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "domains" -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some n when n >= 1 -> Ok (`Domains n)
      | _ -> Error (Printf.sprintf "bad domain count in %S" s))
    | _ -> Error (Printf.sprintf "unknown runtime %S (expected sim or domains[:N])" s))

let spec_name = function
  | `Sim -> "sim"
  | `Domains 0 -> "domains"
  | `Domains n -> Printf.sprintf "domains:%d" n

type domains = {
  pool : Pool.t;
  d_servers : int;
  epoch : float;
  mutable d_count : int;
  d_pending : int array; (* calls submitted, not yet finished, per server *)
  d_ewma : float array; (* smoothed call duration per server; <0 = none yet *)
  d_free : float array; (* last observed finish per server, epoch-relative *)
  d_busy : float array; (* accumulated service time per server *)
  mutable d_obs : (int * Meter.totals * float) list; (* newest first *)
}

(* The simulator's queueing state: a task starts at the later of its
   ready instant and its server's [free] instant, and holds the server
   for its duration. *)
type simulated = {
  s_free : float array; (* next instant each server can start new work *)
  s_busy : float array; (* accumulated service time per server *)
  mutable s_events : Sim.scheduled list; (* newest first *)
}

type backend = Sim_b of simulated | Dom_b of domains

type t = backend

let sim ~servers =
  let servers = max 1 servers in
  Sim_b
    { s_free = Array.make servers 0.0; s_busy = Array.make servers 0.0; s_events = [] }

let default_domains () = max 2 (Domain.recommended_domain_count () - 1)

let domains ?domains:d ~servers () =
  let servers = max 1 servers in
  let d = match d with Some n when n >= 1 -> n | _ -> default_domains () in
  Dom_b
    {
      pool = Pool.create ~domains:d ~lanes:servers;
      d_servers = servers;
      epoch = Unix.gettimeofday ();
      d_count = 0;
      d_pending = Array.make servers 0;
      d_ewma = Array.make servers (-1.0);
      d_free = Array.make servers 0.0;
      d_busy = Array.make servers 0.0;
      d_obs = [];
    }

let of_spec ?domains:d spec ~servers =
  match spec with
  | `Sim -> sim ~servers
  | `Domains 0 -> domains ?domains:d ~servers ()
  | `Domains n -> domains ~domains:n ~servers ()

let spec = function
  | Sim_b _ -> `Sim
  | Dom_b d -> `Domains (Pool.size d.pool)

let name t = spec_name (spec t)
let is_real = function Sim_b _ -> false | Dom_b _ -> true

let server_count = function
  | Sim_b sm -> Array.length sm.s_free
  | Dom_b d -> d.d_servers

let now = function
  | Sim_b sm ->
    (* The simulator has no global clock; the latest instant any server
       is known to be busy until is the closest notion of "now". *)
    Array.fold_left Float.max 0.0 sm.s_free
  | Dom_b d -> Unix.gettimeofday () -. d.epoch

let free_at t server =
  match t with
  | Sim_b sm -> sm.s_free.(server)
  | Dom_b d ->
    (* Predicted: outstanding calls times the smoothed call duration —
       the admission-control signal, not an exact schedule. *)
    let n = Unix.gettimeofday () -. d.epoch in
    let est = if d.d_ewma.(server) >= 0.0 then d.d_ewma.(server) else 0.0 in
    Float.max n (Float.max d.d_free.(server) n)
    +. (float_of_int d.d_pending.(server) *. est)

let backlog t ~at = Array.init (server_count t) (fun j -> Float.max 0.0 (free_at t j -. at))

let busy = function
  | Sim_b sm -> Array.copy sm.s_busy
  | Dom_b d -> Array.copy d.d_busy

let dispatched = function
  | Sim_b sm -> List.length sm.s_events
  | Dom_b d -> d.d_count

let timeline = function
  | Sim_b sm -> Sim.timeline_of sm.s_events
  | Dom_b d -> { Sim.events = []; makespan = Array.fold_left Float.max 0.0 d.d_free }

(* Run [f] on the pool lane and wait: suspend when called from a fibre,
   block the domain otherwise. *)
let offload d ~lane f =
  if Fiber.inside () then
    Fiber.suspend_external (fun resume -> Pool.submit d.pool ~lane f resume)
  else begin
    let m = Mutex.create () and c = Condition.create () in
    let slot = ref None in
    Pool.submit d.pool ~lane f (fun r ->
        Mutex.lock m;
        slot := Some r;
        Condition.signal c;
        Mutex.unlock m);
    Mutex.lock m;
    while !slot = None do
      Condition.wait c m
    done;
    let r = Option.get !slot in
    Mutex.unlock m;
    match r with Ok v -> v | Error e -> raise e
  end

let call t ~id ~server ~ready ~deps thunk =
  match t with
  | Sim_b sm ->
    if server < 0 || server >= Array.length sm.s_free then
      invalid_arg
        (Printf.sprintf "Runtime.call: task %d targets unknown server %d" id server);
    let v, cost, book = thunk () in
    let task = { Sim.id; server; duration = cost; deps } in
    if book then begin
      if cost < 0.0 then
        invalid_arg (Printf.sprintf "Runtime.call: task %d has negative duration" id);
      let start = Float.max ready sm.s_free.(server) in
      let sched = { Sim.task; start; finish = start +. cost } in
      sm.s_free.(server) <- sched.Sim.finish;
      sm.s_busy.(server) <- sm.s_busy.(server) +. cost;
      sm.s_events <- sched :: sm.s_events;
      (v, sched)
    end
    else
      (* Never reached the network (e.g. [`Fail] exhaustion raises
         before dispatch); synthesize the slot without booking it. *)
      (v, { Sim.task; start = ready; finish = ready +. cost })
  | Dom_b d ->
    if server < 0 || server >= d.d_servers then
      invalid_arg (Printf.sprintf "Runtime.call: server %d out of range" server);
    d.d_pending.(server) <- d.d_pending.(server) + 1;
    let finish_call () = d.d_pending.(server) <- d.d_pending.(server) - 1 in
    let job () =
      let t0 = Unix.gettimeofday () in
      let v, cost, book = thunk () in
      let t1 = Unix.gettimeofday () in
      (v, cost, book, t0, t1)
    in
    let v, _cost, _book, t0, t1 =
      match offload d ~lane:server job with
      | r -> finish_call (); r
      | exception e -> finish_call (); raise e
    in
    let start = t0 -. d.epoch and finish = t1 -. d.epoch in
    let duration = Float.max 0.0 (t1 -. t0) in
    d.d_ewma.(server) <-
      (if d.d_ewma.(server) < 0.0 then duration
       else (0.75 *. d.d_ewma.(server)) +. (0.25 *. duration));
    d.d_free.(server) <- Float.max d.d_free.(server) finish;
    d.d_busy.(server) <- d.d_busy.(server) +. duration;
    d.d_count <- d.d_count + 1;
    (v, { Sim.task = { Sim.id; server; duration; deps }; start; finish })

(* --- live introspection --------------------------------------------------- *)

let pool_stats = function Sim_b _ -> None | Dom_b d -> Some (Pool.stats d.pool)

(* Publish the runtime's operational state as [fusion_rt_*] gauges into
   the installed metrics registry (no-op when none is installed; see
   Obs.Metrics). Meant to be called periodically — e.g. by the admin
   front's refresh hook before every /metrics scrape — so the exported
   values are point-in-time gauges, not streaming counters. *)
let publish_metrics t =
  Fusion_obs.Metrics.record (fun m ->
      let g ?labels name v = Fusion_obs.Metrics.gauge m ?labels name v in
      (match t with
      | Sim_b _ -> ()
      | Dom_b d ->
        let ps = Pool.stats d.pool in
        g "fusion_rt_pool_domains" (float_of_int ps.Pool.domains);
        g "fusion_rt_pool_lanes" (float_of_int ps.Pool.lane_count);
        g "fusion_rt_pool_lanes_busy" (float_of_int ps.Pool.busy_lanes);
        g "fusion_rt_pool_queued_jobs" (float_of_int ps.Pool.queued_jobs);
        g "fusion_rt_pool_queue_high_water"
          (float_of_int ps.Pool.queue_high_water);
        g "fusion_rt_pool_executed" (float_of_int ps.Pool.executed);
        g "fusion_rt_calls" (float_of_int d.d_count);
        Array.iteri
          (fun j p ->
            g
              ~labels:[ ("server", string_of_int j) ]
              "fusion_rt_server_pending" (float_of_int p))
          d.d_pending);
      (match Fiber.stats () with
      | None -> ()
      | Some fs ->
        g "fusion_rt_fibres_live" (float_of_int fs.Fiber.live);
        g "fusion_rt_run_queue" (float_of_int fs.Fiber.run_queue);
        g "fusion_rt_sleepers" (float_of_int fs.Fiber.sleepers);
        g "fusion_rt_io_waiting" (float_of_int fs.Fiber.io_waiting);
        g "fusion_rt_ext_pending" (float_of_int fs.Fiber.ext_pending);
        g "fusion_rt_polls" (float_of_int fs.Fiber.polls);
        g "fusion_rt_poll_wait_seconds" fs.Fiber.poll_wait);
      let gc = Gc.quick_stat () in
      g "fusion_rt_gc_minor_words" gc.Gc.minor_words;
      g "fusion_rt_gc_major_words" gc.Gc.major_words;
      g "fusion_rt_gc_heap_words" (float_of_int gc.Gc.heap_words);
      g "fusion_rt_gc_minor_collections" (float_of_int gc.Gc.minor_collections);
      g "fusion_rt_gc_major_collections" (float_of_int gc.Gc.major_collections);
      g "fusion_rt_gc_compactions" (float_of_int gc.Gc.compactions))

let observe t ~server ~totals ~wall =
  match t with
  | Sim_b _ -> ()
  | Dom_b d -> d.d_obs <- (server, totals, wall) :: d.d_obs

let observations = function
  | Sim_b _ -> []
  | Dom_b d -> List.rev d.d_obs

let run t fn =
  match t with
  | Sim_b _ -> fn ()
  | Dom_b _ -> if Fiber.inside () then fn () else Fiber.run fn

let shutdown = function Sim_b _ -> () | Dom_b d -> Pool.shutdown d.pool
