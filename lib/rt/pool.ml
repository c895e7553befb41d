(* A domain pool with per-lane FIFO serialization.

   Lanes model the paper's sources: each source answers one query at a
   time, so jobs submitted to one lane run in submission order and
   never overlap, while jobs on different lanes run with real OS
   parallelism (one lane per Sim server index keeps the domains
   runtime's contention model aligned with the simulator's per-server
   FIFO queues).

   A lane is runnable when it has queued jobs and no job of its own in
   flight; workers pull whole lanes, not jobs, so no worker ever blocks
   behind another lane's mutex. *)

type job = Job : (unit -> 'a) * (('a, exn) result -> unit) -> job

type t = {
  lock : Mutex.t;
  work : Condition.t;
  queues : job Queue.t array;
  runnable : int Queue.t;
  busy : bool array;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  size : int;
  executed : int Atomic.t; (* jobs completed over the pool's lifetime *)
  mutable queue_hwm : int; (* deepest any single lane's queue has been *)
}

let rec worker_loop t =
  Mutex.lock t.lock;
  while (not t.stop) && Queue.is_empty t.runnable do
    Condition.wait t.work t.lock
  done;
  if Queue.is_empty t.runnable then Mutex.unlock t.lock (* stopped and drained *)
  else begin
    let lane = Queue.pop t.runnable in
    let (Job (f, k)) = Queue.pop t.queues.(lane) in
    t.busy.(lane) <- true;
    Mutex.unlock t.lock;
    let r = match f () with v -> Ok v | exception e -> Error e in
    (* Counted before [k] hands the result off, so a caller woken by the
       completion already sees it in [stats]. *)
    Atomic.incr t.executed;
    (try k r with _ -> ());
    Mutex.lock t.lock;
    t.busy.(lane) <- false;
    if not (Queue.is_empty t.queues.(lane)) then begin
      Queue.push lane t.runnable;
      Condition.signal t.work
    end;
    Mutex.unlock t.lock;
    worker_loop t
  end

let create ~domains ~lanes =
  if domains < 1 then invalid_arg "Pool.create: need at least one domain";
  if lanes < 1 then invalid_arg "Pool.create: need at least one lane";
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      queues = Array.init lanes (fun _ -> Queue.create ());
      runnable = Queue.create ();
      busy = Array.make lanes false;
      stop = false;
      workers = [];
      size = domains;
      executed = Atomic.make 0;
      queue_hwm = 0;
    }
  in
  t.workers <- List.init domains (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.size
let lanes t = Array.length t.queues

(* --- introspection -------------------------------------------------------- *)

type stats = {
  domains : int;
  lane_count : int;
  busy_lanes : int;  (* lanes with a job in flight right now *)
  queued_jobs : int;  (* jobs waiting across all lane queues *)
  queue_high_water : int;  (* deepest any single lane's queue has been *)
  executed : int;  (* jobs completed over the pool's lifetime *)
}

let stats t =
  Mutex.lock t.lock;
  let busy_lanes = Array.fold_left (fun n b -> if b then n + 1 else n) 0 t.busy in
  let queued_jobs = Array.fold_left (fun n q -> n + Queue.length q) 0 t.queues in
  let s =
    {
      domains = t.size;
      lane_count = Array.length t.queues;
      busy_lanes;
      queued_jobs;
      queue_high_water = t.queue_hwm;
      executed = Atomic.get t.executed;
    }
  in
  Mutex.unlock t.lock;
  s

let submit t ~lane f k =
  if lane < 0 || lane >= Array.length t.queues then
    invalid_arg (Printf.sprintf "Pool.submit: lane %d out of range" lane);
  Mutex.lock t.lock;
  if t.stop then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  let was_empty = Queue.is_empty t.queues.(lane) in
  Queue.push (Job (f, k)) t.queues.(lane);
  let depth = Queue.length t.queues.(lane) in
  if depth > t.queue_hwm then t.queue_hwm <- depth;
  if was_empty && not t.busy.(lane) then begin
    Queue.push lane t.runnable;
    Condition.signal t.work
  end;
  Mutex.unlock t.lock

let shutdown t =
  Mutex.lock t.lock;
  if not t.stop then begin
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- []
  end
  else Mutex.unlock t.lock
