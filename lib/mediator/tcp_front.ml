(* A line-oriented TCP front end over the serving stack.

   Clients connect over loopback (or anywhere), send one fusion SQL
   statement per line, and receive one response line per statement:
   [ok] with the answer set and the per-query report fields, [shed]
   when admission control rejected it, or [error] when it failed to
   parse or execute. Every query goes through the same admission
   control, scheduling policy and shared answer cache as the simulated
   serving layer — only the clock is the wall.

   The front end runs entirely inside the runtime's fibre scheduler:
   an accept-loop daemon forks one reader and one writer fibre per
   connection, readers submit parsed queries to the mediator server,
   the server's pump dispatches them over the worker domains, and the
   completion/shed hooks hand response lines to the owning
   connection's outbox stream. Readers and the accept loop are daemons
   (an idle client must not block shutdown); writers are joined, so
   every response produced before the stop condition is flushed. A
   client that disconnects mid-stream or stops reading with a full
   outbox is shed (socket shut down) rather than allowed to stall the
   pump or the shutdown join. *)

module Runtime = Fusion_rt.Runtime
module Fiber = Fusion_rt.Fiber
module Pool = Fusion_rt.Pool
module S = Fusion_serve.Server
module Slow_log = Fusion_serve.Slow_log
module Delta = Fusion_delta.Delta
module Change = Fusion_delta.Change
module Item_set = Fusion_data.Item_set
module Value = Fusion_data.Value
module Meter = Fusion_net.Meter
module Metrics = Fusion_obs.Metrics
module Summary = Fusion_obs.Summary
module Window = Fusion_obs.Window
module Json = Fusion_obs.Json

type report = {
  connections : int;  (** connections accepted *)
  received : int;  (** SQL lines taken for processing *)
  rejected : int;  (** lines that failed to parse or optimize, or ran over 64 KiB *)
  stats : S.stats;  (** serving-layer conservation stats *)
  observations : (int * Meter.totals * float) list;
      (** per-request wall-clock observations, for calibration *)
}

let sockaddr_to_string = function
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> p

let sockaddr_of_string s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "bad address %S (expected HOST:PORT)" s)
  | Some i ->
    let host = String.sub s 0 i
    and port = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port with
    | None -> Error (Printf.sprintf "bad port %S in %S" port s)
    | Some port ->
      (match Unix.inet_addr_of_string host with
      | addr -> Ok (Unix.ADDR_INET (addr, port))
      | exception Failure _ ->
        (match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          Error (Printf.sprintf "cannot resolve host %S" host)
        | { Unix.h_addr_list; _ } -> Ok (Unix.ADDR_INET (h_addr_list.(0), port)))))

(* --- non-blocking line IO over fibres ------------------------------------ *)

(* Returns [false] when the peer is gone (EPIPE/ECONNRESET/...); the
   caller must treat that as connection close. SIGPIPE is ignored at
   [serve] entry so the write raises instead of killing the process. *)
let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off >= n then true
    else
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Fiber.await_writable fd;
        go off
      | exception
          Unix.Unix_error
            ((Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNABORTED | Unix.ESHUTDOWN), _, _)
        -> false
  in
  go 0

(* The longest statement line accepted, in bytes. *)
let max_line = 65536

(* Reads [fd] to EOF, invoking [handle] with [Ok line] on each
   newline-terminated line (CR trimmed). A trailing unterminated line
   is delivered too. A line growing past [max_line] bytes is delivered
   as [Error _] and ends the read, leaving the rest of the stream
   unread. *)
let read_lines fd handle =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let flush () =
    let line = String.trim (Buffer.contents buf) in
    Buffer.clear buf;
    if line <> "" then handle (Ok line)
  in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> flush ()
    | n -> scan 0 n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Fiber.await_readable fd;
      go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> flush ()
  and scan i n =
    if i = n then go ()
    else
      match Bytes.get chunk i with
      | '\n' ->
        flush ();
        scan (i + 1) n
      | _ when Buffer.length buf >= max_line ->
        handle (Error (Printf.sprintf "line longer than %d bytes" max_line))
      | ch ->
        Buffer.add_char buf ch;
        scan (i + 1) n
  in
  go ()

(* --- response lines ------------------------------------------------------ *)

let completion_line (c : S.completion) =
  match c.S.c_failed with
  | Some msg -> Printf.sprintf "error id=%d %s" c.S.c_id msg
  | None ->
    let answer = Option.value ~default:Item_set.empty c.S.c_answer in
    Printf.sprintf "ok id=%d rows=%d cost=%.1f response=%.6f partial=%b items=%s"
      c.S.c_id (Item_set.cardinal answer) c.S.c_cost c.S.c_response c.S.c_partial
      (String.concat "," (List.map Value.to_string (Item_set.to_list answer)))

let shed_line (s : S.shed) =
  Printf.sprintf "shed id=%d reason=%s" s.S.s_id (S.shed_reason_name s.S.s_reason)

let items_text s = String.concat "," (List.map Value.to_string (Item_set.to_list s))

let push_line (p : S.push) =
  Printf.sprintf "push id=%d seq=%d rows=%d added=%s removed=%s" p.S.pu_sub
    p.S.pu_seq p.S.pu_rows
    (items_text p.S.pu_change.Change.adds)
    (items_text p.S.pu_change.Change.dels)

(* Splits a statement line into its first word and the rest, for the
   non-SQL commands ([sub]/[unsub]/[mut]). *)
let split_command line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    ( String.sub line 0 i,
      String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

(* --- the admin view ------------------------------------------------------ *)

(* [Json.to_string] refuses non-finite numbers; percentiles over an
   empty window are all-zero, but poll-wait arithmetic could in theory
   go non-finite, so every float goes through this guard. *)
let fnum v = if Float.is_finite v then Json.Float v else Json.Null

let percentiles_json (p : Summary.percentiles) =
  Json.Obj
    [ ("p50", fnum p.Summary.p50); ("p90", fnum p.Summary.p90);
      ("p99", fnum p.Summary.p99); ("mean", fnum p.Summary.mean);
      ("max", fnum p.Summary.max); ("n", Json.Int p.Summary.n) ]

(* --- the server ---------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  outbox : string option Fiber.Stream.t;  (* [None] closes the connection *)
  mutable pending : int;  (* submitted queries not yet responded to *)
  mutable eof : bool;  (* reader saw end of stream *)
  mutable open_ends : int;  (* reader + writer still using [fd] *)
  mutable dropped : bool;  (* peer gone or shed; stop queuing responses *)
  mutable subs : int list;  (* subscription ids owned by this connection *)
}

let release c =
  c.open_ends <- c.open_ends - 1;
  if c.open_ends = 0 then try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Sheds a connection without blocking: the shutdown wakes a writer
   stuck in [write_all] (it sees EPIPE and exits) and gives the reader
   EOF, so both fibres wind down on their own. *)
let drop c =
  if not c.dropped then begin
    c.dropped <- true;
    try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  end

let serve ?(config = Mediator.Config.default) ?(policy = S.Fifo) ?max_inflight
    ?cache_ttl ?versioned_cache ?max_queries ?window ?slow_threshold ?admin
    ?admin_on_listen ?on_listen ~listen mediator =
  match config.Mediator.Config.runtime with
  | `Sim ->
    Error
      "the TCP front end serves on the wall clock: pass a real runtime \
       (runtime=domains)"
  | `Domains ndomains ->
    (* A client that disconnects with responses in flight must surface
       as EPIPE from [Unix.write], not kill the whole server. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let slow_log =
      Option.map (fun t -> Slow_log.create ~threshold:t ()) slow_threshold
    in
    let srv =
      Mediator.Server.create ~config ?max_inflight ?cache_ttl ?versioned_cache
        ?window ?slow_log ~policy mediator
    in
    let rt = Mediator.Server.runtime srv in
    let server = Mediator.Server.serve srv in
    let target = Option.value ~default:max_int max_queries in
    let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
    let sub_owner : (int, conn) Hashtbl.t = Hashtbl.create 16 in
    let all_conns = ref [] in
    let connections = ref 0 and received = ref 0 and rejected = ref 0 in
    let answered = ref 0 in
    let started = Unix.gettimeofday () in
    (* Built fresh per /statusz request, on the scheduler domain — so
       [Fiber.stats] is readable and the pump's state is quiescent
       (fibres only interleave at suspension points). *)
    let statusz () =
      let st = S.stats server in
      let queue_full, deadline_unmeetable = S.shed_counts server in
      let cs = S.cache_stats server in
      let pool =
        match Runtime.pool_stats rt with
        | None -> Json.Null
        | Some ps ->
          Json.Obj
            [ ("domains", Json.Int ps.Pool.domains);
              ("lanes", Json.Int ps.Pool.lane_count);
              ("busy_lanes", Json.Int ps.Pool.busy_lanes);
              ("queued_jobs", Json.Int ps.Pool.queued_jobs);
              ("queue_high_water", Json.Int ps.Pool.queue_high_water);
              ("executed", Json.Int ps.Pool.executed) ]
      in
      let scheduler =
        match Fiber.stats () with
        | None -> Json.Null
        | Some fs ->
          Json.Obj
            [ ("fibres_live", Json.Int fs.Fiber.live);
              ("run_queue", Json.Int fs.Fiber.run_queue);
              ("sleepers", Json.Int fs.Fiber.sleepers);
              ("io_waiting", Json.Int fs.Fiber.io_waiting);
              ("ext_pending", Json.Int fs.Fiber.ext_pending);
              ("polls", Json.Int fs.Fiber.polls);
              ("poll_wait_seconds", fnum fs.Fiber.poll_wait) ]
      in
      let snow = S.now server in
      let tenants =
        List.map
          (fun (name, ts) ->
            Json.Obj
              [ ("tenant", Json.Str name);
                ("submitted", Json.Int ts.S.ts_submitted);
                ("completed", Json.Int ts.S.ts_completed);
                ("shed", Json.Int ts.S.ts_shed);
                ("consumed", fnum ts.S.ts_consumed);
                ( "window",
                  percentiles_json (Window.snapshot ts.S.ts_window ~now:snow) );
                ( "cumulative",
                  percentiles_json (Summary.latency_percentiles ts.S.ts_summary)
                ) ])
          (S.tenants server)
      in
      Json.Obj
        [ ("uptime_seconds", fnum (Unix.gettimeofday () -. started));
          ("runtime", Json.Str (Printf.sprintf "domains:%d" ndomains));
          ("policy", Json.Str (S.policy_name policy));
          ("window_span_seconds", fnum (S.window_span server));
          ("connections", Json.Int !connections);
          ("received", Json.Int !received);
          ("rejected", Json.Int !rejected);
          ( "stats",
            Json.Obj
              [ ("submitted", Json.Int st.S.submitted);
                ("queued", Json.Int st.S.queued);
                ("in_flight", Json.Int st.S.in_flight);
                ("completed", Json.Int st.S.completed);
                ("shed", Json.Int st.S.shed) ] );
          ( "shed_by_reason",
            Json.Obj
              [ ("queue_full", Json.Int queue_full);
                ("deadline_unmeetable", Json.Int deadline_unmeetable) ] );
          ("pool", pool);
          ("scheduler", scheduler);
          ( "cache",
            Json.Obj
              [ ("lookups", Json.Int cs.Fusion_plan.Answer_cache.lookups);
                ( "inflight_hits",
                  Json.Int cs.Fusion_plan.Answer_cache.inflight_hits );
                ("cached_hits", Json.Int cs.Fusion_plan.Answer_cache.cached_hits);
                ( "expirations",
                  Json.Int cs.Fusion_plan.Answer_cache.expirations );
                ( "invalidated",
                  Json.Int cs.Fusion_plan.Answer_cache.invalidated );
                ("patched", Json.Int cs.Fusion_plan.Answer_cache.patched);
                ( "staleness_sum",
                  fnum cs.Fusion_plan.Answer_cache.staleness_sum );
                ( "staleness_max",
                  fnum cs.Fusion_plan.Answer_cache.staleness_max ) ] );
          ( "prepared",
            let ps = Mediator.Server.prepared_stats srv in
            Json.Obj
              [ ("lookups", Json.Int ps.Mediator.Server.lookups);
                ("hits", Json.Int ps.Mediator.Server.hits);
                ("stale", Json.Int ps.Mediator.Server.stale);
                ("entries", Json.Int ps.Mediator.Server.entries) ] );
          ( "delta",
            let ds = S.delta_stats server in
            Json.Obj
              [ ("batches", Json.Int ds.S.ds_batches);
                ("inserts", Json.Int ds.S.ds_inserts);
                ("deletes", Json.Int ds.S.ds_deletes);
                ("pushes", Json.Int ds.S.ds_pushes);
                ("subscribers", Json.Int ds.S.ds_subscribers) ] );
          ( "subscriptions",
            Json.List
              (List.map
                 (fun (si : S.subscription_info) ->
                   Json.Obj
                     [ ("id", Json.Int si.S.si_id);
                       ("tenant", Json.Str si.S.si_tenant);
                       ("label", Json.Str si.S.si_label);
                       ("pushes", Json.Int si.S.si_pushes);
                       ("answer_size", Json.Int si.S.si_answer_size) ])
                 (S.subscriptions server)) );
          ("tenants", Json.List tenants);
          ( "slow_queries",
            match slow_log with None -> Json.Null | Some l -> Slow_log.to_json l
          ) ]
    in
    (* Runs on the pump fibre (completion/shed hooks), so it must never
       suspend: a stalled client with a full outbox is shed rather than
       head-of-line blocking every other connection. *)
    let respond c line =
      c.pending <- c.pending - 1;
      incr answered;
      if not c.dropped then begin
        if Fiber.Stream.try_add c.outbox (Some line) then begin
          if c.eof && c.pending = 0 then
            ignore (Fiber.Stream.try_add c.outbox None : bool)
        end
        else drop c
      end
    in
    let to_owner id line =
      match Hashtbl.find_opt conns id with
      | None -> ()
      | Some c ->
        Hashtbl.remove conns id;
        respond c line
    in
    S.on_complete server (fun comp -> to_owner comp.S.c_id (completion_line comp));
    S.on_shed server (fun sh -> to_owner sh.S.s_id (shed_line sh));
    (* Push lines are extra traffic on top of the one-response-per-line
       contract: only a subscribed connection receives them, between (or
       after) its regular responses. Like [respond], this runs on a fibre
       that must not suspend, so a stalled subscriber is shed. *)
    S.on_push server (fun p ->
        match Hashtbl.find_opt sub_owner p.S.pu_sub with
        | None -> ()
        | Some c ->
          if not c.dropped then
            if not (Fiber.Stream.try_add c.outbox (Some (push_line p))) then
              drop c);
    let handle_line c input =
      if !received < target then begin
        incr received;
        (* A synchronous response: [sub]/[unsub]/[mut] are answered from
           the reader fibre itself, which may suspend on a full outbox. *)
        let reply line =
          incr answered;
          if not c.dropped then Fiber.Stream.add c.outbox (Some line);
          (* This answer may have met [max_queries]; the pump only
             re-checks its stop condition when woken. *)
          S.nudge server
        in
        let fail msg =
          incr rejected;
          reply ("error " ^ msg)
        in
        match input with
        | Error msg -> fail msg
        | Ok line -> (
          let word, rest = split_command line in
          match String.lowercase_ascii word with
          | "sub" -> (
            match Mediator.Server.subscribe_sql srv rest with
            | Ok id ->
              c.subs <- id :: c.subs;
              Hashtbl.replace sub_owner id c;
              let answer =
                Option.value ~default:Item_set.empty
                  (S.subscription_answer server id)
              in
              reply
                (Printf.sprintf "sub id=%d rows=%d items=%s" id
                   (Item_set.cardinal answer) (items_text answer))
            | Error msg -> fail msg)
          | "unsub" -> (
            match int_of_string_opt rest with
            | None -> fail (Printf.sprintf "bad subscription id %S" rest)
            | Some id ->
              if Mediator.Server.unsubscribe srv id then begin
                Hashtbl.remove sub_owner id;
                c.subs <- List.filter (fun i -> i <> id) c.subs;
                reply (Printf.sprintf "unsub id=%d" id)
              end
              else fail (Printf.sprintf "unknown subscription %d" id))
          | "mut" -> (
            let source, payload = split_command rest in
            if source = "" || payload = "" then
              fail "usage: mut SOURCE +row;-row;..."
            else
              match Mediator.Server.mutate_line srv ~source payload with
              | Ok a ->
                reply
                  (Printf.sprintf
                     "mut source=%s inserted=%d deleted=%d missed=%d version=%d"
                     source a.Delta.inserted a.Delta.deleted a.Delta.missed
                     a.Delta.version)
              | Error msg -> fail msg)
          | _ -> (
            match Mediator.Server.submit_sql srv ~at:(Runtime.now rt) line with
            | Ok id ->
              c.pending <- c.pending + 1;
              Hashtbl.replace conns id c
            | Error msg -> fail msg))
      end
    in
    let handle_conn sw fd =
      incr connections;
      Unix.set_nonblock fd;
      let c =
        { fd; outbox = Fiber.Stream.create ~capacity:256; pending = 0; eof = false;
          open_ends = 2; dropped = false; subs = [] }
      in
      all_conns := c :: !all_conns;
      (* The writer is joined at switch exit so shutdown flushes every
         queued response before the socket closes. *)
      Fiber.Switch.fork sw (fun () ->
          Fun.protect
            ~finally:(fun () -> release c)
            (fun () ->
              let rec loop () =
                match Fiber.Stream.take c.outbox with
                | Some line ->
                  if write_all fd (line ^ "\n") then loop () else c.dropped <- true
                | None -> ()
              in
              loop ()));
      Fiber.Switch.fork_daemon sw (fun () ->
          Fun.protect
            ~finally:(fun () ->
              (* A gone client must not keep receiving pushes. *)
              List.iter
                (fun id ->
                  Hashtbl.remove sub_owner id;
                  ignore (Mediator.Server.unsubscribe srv id : bool))
                c.subs;
              c.subs <- [];
              release c)
            (fun () ->
              read_lines fd (handle_line c);
              c.eof <- true;
              if c.pending = 0 && not c.dropped then Fiber.Stream.add c.outbox None))
    in
    let result =
      Runtime.run rt (fun () ->
          let lsock = Unix.socket (Unix.domain_of_sockaddr listen) Unix.SOCK_STREAM 0 in
          Unix.setsockopt lsock Unix.SO_REUSEADDR true;
          match Unix.bind lsock listen with
          | exception Unix.Unix_error (e, _, _) ->
            (try Unix.close lsock with Unix.Unix_error _ -> ());
            Error
              (Printf.sprintf "cannot listen on %s: %s" (sockaddr_to_string listen)
                 (Unix.error_message e))
          | () ->
            Unix.listen lsock 16;
            Unix.set_nonblock lsock;
            Option.iter (fun f -> f (Unix.getsockname lsock)) on_listen;
            (* Set when this serve installed the process registry itself
               (admin requested, none installed): it is uninstalled on
               the way out so one serve run does not leave global
               recording state behind. *)
            let installed_registry = ref false in
            Fun.protect
              ~finally:(fun () ->
                if !installed_registry then Metrics.uninstall ();
                try Unix.close lsock with Unix.Unix_error _ -> ())
              (fun () ->
                (* Set once the pump stops: the accept daemon stays live
                   while writers are joined, so without this guard a
                   late-accepted connection would fork a writer that
                   never sees [None] and the join would never finish. *)
                let shutting_down = ref false in
                let admin_error = ref None in
                Fiber.Switch.run (fun sw ->
                    let admin_ok =
                      match admin with
                      | None -> true
                      | Some addr ->
                        (* Reuse the process registry if the embedding
                           app installed one (its counters then show up
                           on /metrics too); install a fresh one
                           otherwise so the scrape is never empty. *)
                        let registry =
                          match Metrics.installed () with
                          | Some r -> r
                          | None ->
                            let r = Metrics.create () in
                            Metrics.install r;
                            installed_registry := true;
                            r
                        in
                        let refresh () =
                          Runtime.publish_metrics rt;
                          Mediator.Server.publish_metrics srv
                        in
                        (match
                           Admin_front.start ~sw ?on_listen:admin_on_listen
                             ~listen:addr
                             { Admin_front.refresh; registry; statusz }
                         with
                        | Ok () ->
                          (* Keep point-in-time gauges (GC, run queue,
                             lane occupancy) fresh between scrapes. *)
                          Fiber.Switch.fork_daemon sw (fun () ->
                              let rec tick () =
                                refresh ();
                                Fiber.sleep 1.0;
                                tick ()
                              in
                              tick ());
                          true
                        | Error msg ->
                          admin_error := Some msg;
                          false)
                    in
                    if admin_ok then begin
                    Fiber.Switch.fork_daemon sw (fun () ->
                        let rec accept_loop () =
                          Fiber.await_readable lsock;
                          (match Unix.accept lsock with
                          | fd, _ ->
                            if !shutting_down then
                              (try Unix.close fd with Unix.Unix_error _ -> ())
                            else handle_conn sw fd
                          | exception
                              Unix.Unix_error
                                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                            -> ());
                          accept_loop ()
                        in
                        accept_loop ());
                    S.pump server ~stop:(fun () -> !answered >= target);
                    shutting_down := true;
                    (* Flush and close every connection still open. A
                       connection whose outbox is still full here has a
                       stalled client: shed it instead of blocking the
                       shutdown on its backpressure. *)
                    List.iter
                      (fun c ->
                        if
                          (not c.dropped)
                          && not (Fiber.Stream.try_add c.outbox None)
                        then drop c)
                      !all_conns
                    end);
                (match !admin_error with
                | Some msg -> Error msg
                | None -> Ok ())))
    in
    let observations = Runtime.observations rt in
    let stats = Mediator.Server.stats srv in
    Mediator.Server.shutdown srv;
    Result.map
      (fun () ->
        { connections = !connections; received = !received; rejected = !rejected;
          stats; observations })
      result

(* --- minimal blocking clients, for smoke tests --------------------------- *)

(* Connects with retries while the server binds. Plain blocking
   sockets: the clients need no fibres. *)
let dial ~retries connect =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let rec go attempt =
    let fd = Unix.socket (Unix.domain_of_sockaddr connect) Unix.SOCK_STREAM 0 in
    match Unix.connect fd connect with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if attempt >= retries then
        Error
          (Printf.sprintf "cannot connect to %s: %s" (sockaddr_to_string connect)
             (Unix.error_message e))
      else begin
        Unix.sleepf 0.1;
        go (attempt + 1)
      end
  in
  go 0

(* Sends each statement on its own line, then reads response lines
   until every statement has been answered. *)
let client ?(retries = 50) ~connect statements =
  match dial ~retries connect with
  | Error _ as e -> e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let out = Unix.out_channel_of_descr fd in
        List.iter
          (fun sql ->
            output_string out sql;
            output_char out '\n')
          statements;
        flush out;
        let ic = Unix.in_channel_of_descr fd in
        let rec read_responses acc k =
          if k = 0 then Ok (List.rev acc)
          else
            match input_line ic with
            | line -> read_responses (line :: acc) (k - 1)
            | exception End_of_file ->
              Error
                (Printf.sprintf "connection closed after %d of %d responses"
                   (List.length acc) (List.length statements))
        in
        read_responses [] (List.length statements))

(* Subscribes and streams: sends [sub <sql>], hands every received line
   (the sub acknowledgement, then asynchronous pushes) to [on_line].
   With [pushes > 0], returns once that many push lines arrived —
   the termination condition CI smoke tests need. *)
let watch ?(retries = 50) ?(pushes = 0) ~connect ~on_line sql =
  match dial ~retries connect with
  | Error _ as e -> e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let out = Unix.out_channel_of_descr fd in
        output_string out ("sub " ^ sql ^ "\n");
        flush out;
        let ic = Unix.in_channel_of_descr fd in
        let rec loop seen =
          match input_line ic with
          | exception End_of_file ->
            if pushes > 0 then
              Error
                (Printf.sprintf "connection closed after %d of %d pushes" seen
                   pushes)
            else Ok ()
          | line ->
            on_line line;
            if String.starts_with ~prefix:"error" line then Error line
            else
              let seen =
                if String.starts_with ~prefix:"push " line then seen + 1
                else seen
              in
              if pushes > 0 && seen >= pushes then Ok () else loop seen
        in
        loop 0)
