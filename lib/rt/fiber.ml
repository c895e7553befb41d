(* An effects-based cooperative fibre scheduler on one domain.

   This is the concurrency substrate of the [Domains] runtime backend:
   fibres are delimited continuations multiplexed over one scheduler
   domain (OCaml 5 [Effect.Deep]); blocking work (source calls, socket
   readiness) is pushed off-domain and resumes the suspended fibre
   through a thread-safe wake queue drained by the scheduler's idle
   loop, which blocks in [Unix.select] on a self-pipe plus any file
   descriptors fibres are waiting on.

   Structured concurrency in the eio style: every fork happens under a
   [Switch.t]; [Switch.run] does not return until every forked fibre
   has completed (daemons are cancelled at exit), so fibres cannot
   leak past their switch — the invariant the leak-check tests pin.
   Cancellation is cooperative: it fires the fibre's current
   suspension with [Cancelled] and makes every later suspension point
   raise. *)

exception Cancelled
exception Deadlock

(* A resolve-once cell handed to whoever will produce the suspension's
   result. [fire] may be called from any domain and from cancellation
   concurrently; exactly one call wins. *)
type 'a resolver = { fire : ('a, exn) result -> unit; dead : unit -> bool }

type ctx = {
  mutable sw : switch option; (* innermost switch of this fibre *)
  mutable cancel : (unit -> unit) option; (* cancels the current suspension *)
  daemon : bool;
}

and switch = {
  mutable sw_cancelled : bool;
  mutable sw_error : exn option; (* first non-Cancelled failure *)
  mutable sw_members : ctx list; (* fibres whose suspensions this switch cancels *)
  mutable sw_children : int; (* forked, non-daemon, not yet completed *)
  mutable sw_daemons : int;
  mutable sw_joiner : (unit -> unit) option; (* wakes [Switch.run]'s join loop *)
}

type scheduler = {
  run_q : (unit -> unit) Queue.t;
  mutable sleepers : (float * unit resolver) list; (* ascending deadlines *)
  ext_lock : Mutex.t;
  mutable ext_q : (unit -> unit) list; (* newest first; drained in FIFO order *)
  mutable pipe_armed : bool; (* under ext_lock: a wake byte is in the pipe *)
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  mutable readers : (Unix.file_descr * unit resolver) list;
  mutable writers : (Unix.file_descr * unit resolver) list;
  ext_pending : int Atomic.t; (* outstanding off-domain completions *)
  dom : Domain.id;
  mutable live : int; (* forked fibres not yet completed *)
  mutable cur : ctx;
  mutable polls : int; (* times the idle loop entered select *)
  mutable poll_wait : float; (* wall seconds spent blocked in select *)
}

type _ Effect.t +=
  | Suspend : bool (* cancellable *) * bool (* external *) * ('a resolver -> unit)
      -> 'a Effect.t

let current : scheduler option ref = ref None

let get () =
  match !current with
  | Some s -> s
  | None -> invalid_arg "Fiber: not inside Fiber.run"

let inside () = !current <> None
let now () = Unix.gettimeofday ()

let check_cancel () =
  let sched = get () in
  match sched.cur.sw with
  | Some sw when sw.sw_cancelled -> raise Cancelled
  | _ -> ()

let suspend_full ~cancellable ~external_ register =
  (* Uncancellable suspensions (the join loops in [Switch.run]) must
     wait even when the fibre's switch is already cancelled — raising
     here would let children leak past their switch. *)
  if cancellable then check_cancel ();
  Effect.perform (Suspend (cancellable, external_, register))

let suspend register = suspend_full ~cancellable:true ~external_:false (fun r -> register r.fire)
let suspend_external register =
  suspend_full ~cancellable:true ~external_:true (fun r -> register r.fire)

(* The wake byte is written under [ext_lock]: the scheduler may take
   the thunk, finish, and close the pipe the moment the lock is
   released, so a write after it could hit a closed or reused
   descriptor. [cleanup] closes the pipe under the same lock and leaves
   [pipe_armed] set, so no later enqueuer writes at all. *)
let enqueue_external sched thunk =
  Mutex.lock sched.ext_lock;
  sched.ext_q <- thunk :: sched.ext_q;
  if not sched.pipe_armed then begin
    sched.pipe_armed <- true;
    try ignore (Unix.write sched.pipe_w (Bytes.make 1 'w') 0 1) with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  end;
  Mutex.unlock sched.ext_lock

(* --- switches ------------------------------------------------------------- *)

let fire_cancel c =
  match c.cancel with
  | Some f ->
    c.cancel <- None;
    f ()
  | None -> ()

let cancel_switch sw =
  if not sw.sw_cancelled then begin
    sw.sw_cancelled <- true;
    List.iter fire_cancel sw.sw_members
  end

let wake_joiner sw =
  match sw.sw_joiner with
  | Some wake ->
    sw.sw_joiner <- None;
    wake ()
  | None -> ()

let fibre_done sched ctx err =
  sched.live <- sched.live - 1;
  match ctx.sw with
  | None -> ()
  | Some sw ->
    sw.sw_members <- List.filter (fun c -> c != ctx) sw.sw_members;
    if ctx.daemon then sw.sw_daemons <- sw.sw_daemons - 1
    else sw.sw_children <- sw.sw_children - 1;
    (match err with
    | Some e when e <> Cancelled ->
      if sw.sw_error = None then sw.sw_error <- Some e;
      cancel_switch sw
    | _ -> ());
    if sw.sw_children = 0 then wake_joiner sw

let handler sched ~on_done =
  {
    Effect.Deep.retc = (fun () -> on_done (Ok ()));
    exnc = (fun e -> on_done (Error e));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend (cancellable, external_, register) ->
          Some
            (fun (k : (a, _) Effect.Deep.continuation) ->
              let ctx = sched.cur in
              let resolved = Atomic.make false in
              if external_ then Atomic.incr sched.ext_pending;
              let fire (r : (a, exn) result) =
                if Atomic.compare_and_set resolved false true then begin
                  (* The pending count drops only once the resumption
                     runs on the scheduler domain: dropping it here,
                     before the thunk reaches the wake queue, lets the
                     idle loop see no pending completion and an empty
                     queue, and report a spurious [Deadlock]. *)
                  let thunk () =
                    if external_ then Atomic.decr sched.ext_pending;
                    sched.cur <- ctx;
                    ctx.cancel <- None;
                    match r with
                    | Ok v -> Effect.Deep.continue k v
                    | Error e -> Effect.Deep.discontinue k e
                  in
                  if Domain.self () = sched.dom then Queue.push thunk sched.run_q
                  else enqueue_external sched (fun () -> Queue.push thunk sched.run_q)
                end
              in
              let r = { fire; dead = (fun () -> Atomic.get resolved) } in
              if cancellable then ctx.cancel <- Some (fun () -> fire (Error Cancelled));
              register r)
        | _ -> None);
  }

let run_fibre sched ctx ~on_done fn =
  let cancelled_at_start =
    match ctx.sw with Some sw -> sw.sw_cancelled | None -> false
  in
  if cancelled_at_start then on_done (Some Cancelled)
  else begin
    sched.cur <- ctx;
    Effect.Deep.match_with fn ()
      (handler sched ~on_done:(fun r ->
           on_done (match r with Ok () -> None | Error e -> Some e)))
  end

let pending_fibres () = (get ()).live

(* --- introspection -------------------------------------------------------- *)

(* A point-in-time view of the scheduler, read on the scheduler domain
   itself (no synchronization needed: the fields are only mutated
   there, except [ext_pending] which is already atomic). *)
type stats = {
  live : int;  (* forked fibres not yet completed *)
  run_queue : int;  (* fibres ready to run right now *)
  sleepers : int;  (* fibres parked on a deadline *)
  io_waiting : int;  (* fibres parked on fd readiness *)
  ext_pending : int;  (* outstanding off-domain completions *)
  polls : int;  (* times the idle loop entered select *)
  poll_wait : float;  (* cumulative wall seconds blocked in select *)
}

let stats () =
  match !current with
  | None -> None
  | Some s ->
    Some
      {
        live = s.live;
        run_queue = Queue.length s.run_q;
        sleepers = List.length s.sleepers;
        io_waiting = List.length s.readers + List.length s.writers;
        ext_pending = Atomic.get s.ext_pending;
        polls = s.polls;
        poll_wait = s.poll_wait;
      }

(* --- promises ------------------------------------------------------------- *)

module Promise = struct
  type 'a t = {
    mutable st : ('a, exn) result option;
    mutable waiters : (('a, exn) result -> unit) list;
  }

  let create () = { st = None; waiters = [] }

  let deliver p r =
    match p.st with
    | Some _ -> ()
    | None ->
      p.st <- Some r;
      let ws = List.rev p.waiters in
      p.waiters <- [];
      List.iter (fun w -> w r) ws

  let resolve p v = deliver p (Ok v)
  let reject p e = deliver p (Error e)

  let await p =
    check_cancel ();
    match p.st with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None -> suspend (fun resume -> p.waiters <- resume :: p.waiters)
end

(* --- sleeping ------------------------------------------------------------- *)

let sleep d =
  if d <= 0.0 then check_cancel ()
  else
    let sched = get () in
    let deadline = now () +. d in
    suspend_full ~cancellable:true ~external_:false (fun r ->
        let rec insert = function
          | [] -> [ (deadline, r) ]
          | (t, _) :: _ as rest when deadline < t -> (deadline, r) :: rest
          | entry :: rest -> entry :: insert rest
        in
        sched.sleepers <- insert sched.sleepers)

let yield () = suspend (fun resume -> resume (Ok ()))

(* --- fd readiness --------------------------------------------------------- *)

let await_readable fd =
  let sched = get () in
  suspend_full ~cancellable:true ~external_:false (fun r ->
      sched.readers <- (fd, r) :: sched.readers)

let await_writable fd =
  let sched = get () in
  suspend_full ~cancellable:true ~external_:false (fun r ->
      sched.writers <- (fd, r) :: sched.writers)

(* --- switch API ----------------------------------------------------------- *)

module Switch = struct
  type t = switch

  let cancel = cancel_switch
  let cancelled sw = sw.sw_cancelled

  let fork_inner ~daemon sw fn =
    let sched = get () in
    if not sw.sw_cancelled then begin
      let ctx = { sw = Some sw; cancel = None; daemon } in
      sw.sw_members <- ctx :: sw.sw_members;
      if daemon then sw.sw_daemons <- sw.sw_daemons + 1
      else sw.sw_children <- sw.sw_children + 1;
      sched.live <- sched.live + 1;
      Queue.push
        (fun () -> run_fibre sched ctx ~on_done:(fibre_done sched ctx) fn)
        sched.run_q
    end

  let fork sw fn = fork_inner ~daemon:false sw fn
  let fork_daemon sw fn = fork_inner ~daemon:true sw fn

  let fork_promise sw fn =
    let p = Promise.create () in
    fork_inner ~daemon:false sw (fun () ->
        match fn () with
        | v -> Promise.resolve p v
        | exception e -> Promise.reject p e);
    p

  (* Wait until [cond] turns false, woken by fibre completions. When
     [cancellable], an outer cancellation can interrupt the wait (the
     caller then cancels this switch and re-joins uncancellably). *)
  let join_wait ~cancellable sw cond =
    while cond () do
      suspend_full ~cancellable ~external_:false (fun r ->
          sw.sw_joiner <- Some (fun () -> r.fire (Ok ())))
    done

  let run fn =
    let sched = get () in
    let ctx = sched.cur in
    let outer = ctx.sw in
    let sw =
      {
        sw_cancelled = false;
        sw_error = None;
        sw_members = [ ctx ];
        sw_children = 0;
        sw_daemons = 0;
        sw_joiner = None;
      }
    in
    ctx.sw <- Some sw;
    let result = match fn sw with v -> Ok v | exception e -> Error e in
    (* The body is done: the host leaves the switch, children are joined. *)
    sw.sw_members <- List.filter (fun c -> c != ctx) sw.sw_members;
    ctx.sw <- outer;
    (match result with
    | Error e when e <> Cancelled ->
      if sw.sw_error = None then sw.sw_error <- Some e;
      cancel_switch sw
    | _ -> ());
    (match join_wait ~cancellable:true sw (fun () -> sw.sw_children > 0) with
    | () -> ()
    | exception Cancelled ->
      (* The outer switch was cancelled while we were joining: cancel
         our children and finish the join uncancellably, then let the
         cancellation propagate. *)
      cancel_switch sw;
      join_wait ~cancellable:false sw (fun () -> sw.sw_children > 0);
      if sw.sw_daemons > 0 then begin
        List.iter fire_cancel sw.sw_members;
        join_wait ~cancellable:false sw (fun () -> sw.sw_daemons > 0)
      end;
      raise Cancelled);
    if sw.sw_daemons > 0 then begin
      (* Daemons don't outlive the switch: cancel and wait for them. *)
      sw.sw_cancelled <- true;
      List.iter fire_cancel sw.sw_members;
      join_wait ~cancellable:false sw (fun () -> sw.sw_daemons > 0)
    end;
    match (sw.sw_error, result) with
    | Some e, _ -> raise e
    | None, Error e -> raise e
    | None, Ok v -> v
end

let timeout d fn =
  let timed_out = ref false in
  match
    Switch.run (fun sw ->
        Switch.fork_daemon sw (fun () ->
            sleep d;
            timed_out := true;
            Switch.cancel sw);
        fn ())
  with
  | v -> Some v
  | exception Cancelled when !timed_out -> None

(* --- semaphores ----------------------------------------------------------- *)

module Semaphore = struct
  type t = { mutable n : int; waiters : unit resolver Queue.t }

  let create n =
    if n < 0 then invalid_arg "Semaphore.create: negative count";
    { n; waiters = Queue.create () }

  let value s = s.n

  let acquire s =
    check_cancel ();
    if s.n > 0 then s.n <- s.n - 1
    else suspend_full ~cancellable:true ~external_:false (fun r -> Queue.push r s.waiters)

  let release s =
    let rec wake () =
      match Queue.take_opt s.waiters with
      | Some r -> if r.dead () then wake () else r.fire (Ok ())
      | None -> s.n <- s.n + 1
    in
    wake ()
end

(* --- bounded streams ------------------------------------------------------ *)

module Stream = struct
  type 'a t = {
    cap : int;
    q : 'a Queue.t;
    readers : 'a resolver Queue.t;
    writers : ('a * unit resolver) Queue.t;
    mutable hwm : int; (* deepest the buffer has ever been *)
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Stream.create: capacity must be >= 1";
    {
      cap = capacity;
      q = Queue.create ();
      readers = Queue.create ();
      writers = Queue.create ();
      hwm = 0;
    }

  let length t = Queue.length t.q
  let high_water t = t.hwm

  let push t v =
    Queue.push v t.q;
    let n = Queue.length t.q in
    if n > t.hwm then t.hwm <- n

  let rec wake_writer t =
    match Queue.take_opt t.writers with
    | Some (v, r) ->
      if r.dead () then wake_writer t
      else begin
        push t v;
        r.fire (Ok ())
      end
    | None -> ()

  let take t =
    check_cancel ();
    match Queue.take_opt t.q with
    | Some v ->
      wake_writer t;
      v
    | None ->
      suspend_full ~cancellable:true ~external_:false (fun r -> Queue.push r t.readers)

  let take_opt t =
    match Queue.take_opt t.q with
    | Some v ->
      wake_writer t;
      Some v
    | None -> None

  let rec live_reader t =
    match Queue.take_opt t.readers with
    | Some r -> if r.dead () then live_reader t else Some r
    | None -> None

  let add t v =
    check_cancel ();
    match live_reader t with
    | Some r -> r.fire (Ok v)
    | None ->
      if Queue.length t.q < t.cap then push t v
      else
        suspend_full ~cancellable:true ~external_:false (fun r ->
            Queue.push (v, r) t.writers)

  let try_add t v =
    match live_reader t with
    | Some r ->
      r.fire (Ok v);
      true
    | None ->
      if Queue.length t.q < t.cap then begin
        push t v;
        true
      end
      else false
end

(* --- the scheduler loop --------------------------------------------------- *)

let drain_pipe fd =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read fd buf 0 64 with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

let run main =
  if inside () then invalid_arg "Fiber.run: already inside a scheduler";
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let root_ctx = { sw = None; cancel = None; daemon = false } in
  let sched =
    {
      run_q = Queue.create ();
      sleepers = [];
      ext_lock = Mutex.create ();
      ext_q = [];
      pipe_armed = false;
      pipe_r;
      pipe_w;
      readers = [];
      writers = [];
      ext_pending = Atomic.make 0;
      dom = Domain.self ();
      live = 0;
      cur = root_ctx;
      polls = 0;
      poll_wait = 0.0;
    }
  in
  current := Some sched;
  let result = ref None in
  (* The root body records its own result (it carries an ['a] out of a
     unit fibre); on_done only backstops an escaped exception. *)
  Queue.push
    (fun () ->
      run_fibre sched root_ctx
        ~on_done:(fun err ->
          match err with
          | Some e when !result = None -> result := Some (Error e)
          | _ -> ())
        (fun () ->
          match main () with
          | v -> result := Some (Ok v)
          | exception e -> result := Some (Error e)))
    sched.run_q;
  let take_external () =
    Mutex.lock sched.ext_lock;
    let ext = List.rev sched.ext_q in
    sched.ext_q <- [];
    sched.pipe_armed <- false;
    Mutex.unlock sched.ext_lock;
    if ext <> [] then drain_pipe sched.pipe_r;
    ext
  in
  let fire_due_sleepers () =
    let t = now () in
    let due, rest = List.partition (fun (d, _) -> d <= t) sched.sleepers in
    sched.sleepers <- rest;
    List.iter (fun (_, r) -> if not (r.dead ()) then r.fire (Ok ())) due;
    due <> []
  in
  let prune () =
    sched.sleepers <- List.filter (fun (_, r) -> not (r.dead ())) sched.sleepers;
    sched.readers <- List.filter (fun (_, r) -> not (r.dead ())) sched.readers;
    sched.writers <- List.filter (fun (_, r) -> not (r.dead ())) sched.writers
  in
  let block () =
    prune ();
    let timeout =
      match sched.sleepers with
      | (d, _) :: _ -> Float.max 0.0 (d -. now ())
      | [] ->
        if
          sched.readers = [] && sched.writers = []
          && Atomic.get sched.ext_pending = 0
        then raise Deadlock
        else -1.0
    in
    let rfds = sched.pipe_r :: List.map fst sched.readers in
    let wfds = List.map fst sched.writers in
    sched.polls <- sched.polls + 1;
    let entered = now () in
    let waited r =
      sched.poll_wait <- sched.poll_wait +. Float.max 0.0 (now () -. entered);
      r
    in
    match waited (Unix.select rfds wfds [] timeout) with
    | rs, ws, _ ->
      (* Always drain a readable self-pipe here: if an enqueuer's wake
         byte landed after [take_external] had already stolen its thunk
         (and reset [pipe_armed]), the stray byte would otherwise make
         every subsequent select return immediately — a busy spin. *)
      if List.mem sched.pipe_r rs then drain_pipe sched.pipe_r;
      let fire waiters ready =
        List.iter
          (fun (fd, r) ->
            if List.mem fd ready && not (r.dead ()) then r.fire (Ok ()))
          waiters
      in
      fire sched.readers rs;
      fire sched.writers ws;
      sched.readers <- List.filter (fun (fd, _) -> not (List.mem fd rs)) sched.readers;
      sched.writers <- List.filter (fun (fd, _) -> not (List.mem fd ws)) sched.writers
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let cleanup () =
    current := None;
    Mutex.lock sched.ext_lock;
    sched.pipe_armed <- true;
    (try Unix.close pipe_r with Unix.Unix_error _ -> ());
    (try Unix.close pipe_w with Unix.Unix_error _ -> ());
    Mutex.unlock sched.ext_lock
  in
  let rec loop () =
    match Queue.take_opt sched.run_q with
    | Some thunk ->
      thunk ();
      loop ()
    | None ->
      let ext = take_external () in
      if ext <> [] then begin
        List.iter (fun f -> f ()) ext;
        loop ()
      end
      else if fire_due_sleepers () then loop ()
      else if !result <> None && sched.live = 0 then ()
      else begin
        block ();
        loop ()
      end
  in
  (match loop () with
  | () -> ()
  | exception e ->
    cleanup ();
    raise e);
  cleanup ();
  match !result with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> raise Deadlock
