(* One served session: load the catalog, start [Tcp_front.serve] on a
   loopback port in its own domain, drive it as a closed loop of
   line-protocol clients, and stop it with a final statement.

   Answers are not judged while the clock runs: each reply is recorded
   (its item list as a digest) and checked against the oracle after
   the server has stopped. *)

module Mediator = Fusion_mediator.Mediator
module Tcp = Fusion_mediator.Tcp_front
module Admin = Fusion_mediator.Admin_front
module Json = Fusion_obs.Json
module Item_set = Fusion_data.Item_set
module Value = Fusion_data.Value

exception Failed of string * string

(* Aborts the run: [phase] names where it stopped. *)
let fail phase fmt = Printf.ksprintf (fun msg -> raise (Failed (phase, msg))) fmt

let now = Unix.gettimeofday

(* Per-response and per-push patience: a stall longer than this is a
   hang, not a slow answer. *)
let patience = 10.0

let loopback = Unix.ADDR_INET (Unix.inet_addr_loopback, 0)

(* Worker domains for the serving runtime: every core but the one the
   front end's scheduler runs on. *)
let worker_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* --- the recorded outcomes ----------------------------------------------- *)

type query_check = {
  q_stmt : Worlds.stmt;
  q_live : int option;  (** fresh item live when the statement was sent *)
  q_answer : Wire.answer option;  (** [None]: not an [ok] line *)
  q_head : string;  (** start of the reply, for failure messages *)
}

type sub_check = { s_stmt : Worlds.stmt; s_ack : (int * Digest.t) option; s_head : string }

type mut_check = {
  m_item : int;
  m_insert : bool;
  m_reply : string;
  m_subs : (int * Worlds.stmt) list;  (** standing queries expected to push *)
  m_pushes : Wire.push list;
}

type checks = {
  mutable queries : query_check list;
  mutable subs : sub_check list;
  mutable muts : mut_check list;
}

let checks () = { queries = []; subs = []; muts = [] }

let head line = if String.length line <= 80 then line else String.sub line 0 80 ^ "..."

(* --- workload shape ------------------------------------------------------ *)

type shape = {
  kind : Worlds.kind;
  attrs : int;
  sources : int;
  stream : unit -> Worlds.stmt;  (** next one-shot statement *)
  warm : Worlds.stmt list;  (** sent before timing: fills the answer cache *)
  standing : Worlds.stmt list;  (** standing queries held by the subscriber *)
  per_half : int;  (** churn: one-shot statements after each mut *)
  probe_pairs : int;  (** cold/hot: insert/delete pairs timed beside the one-shot statements *)
  mutable next_item : int;
}

let shape kind ~seed =
  let rng = Random.State.make [| seed; Hashtbl.hash (Worlds.name kind) |] in
  let attrs = Worlds.attributes kind in
  let sources = (Worlds.spec kind seed).Worlds.Workload.n_sources in
  let base =
    { kind; attrs; sources; stream = (fun () -> assert false); warm = []; standing = [];
      per_half = 0; probe_pairs = 0; next_item = 0 }
  in
  match kind with
  | Worlds.Cold ->
    let standing = Array.to_list (Worlds.pool ~salt:"standing" rng ~attrs 4) in
    { base with stream = Worlds.fresh_stream rng ~attrs; standing; probe_pairs = 500 }
  | Worlds.Hot ->
    let pool = Worlds.pool ~salt:"hot" rng ~attrs 36 in
    let rank = Worlds.zipf rng (Array.length pool) in
    { base with
      stream = (fun () -> pool.(rank ()));
      warm = Array.to_list pool;
      standing = Array.to_list (Worlds.pool ~salt:"standing" rng ~attrs 4);
      probe_pairs = 500 }
  | Worlds.Churn ->
    let standing = Array.to_list (Worlds.pool ~salt:"standing" rng ~attrs 12) in
    let pool = Worlds.pool ~salt:"churn" rng ~attrs 12 in
    let i = ref (-1) in
    { base with
      stream =
        (fun () ->
          incr i;
          pool.(!i mod Array.length pool));
      warm = Array.to_list pool;
      standing;
      per_half = 2 }

(* A churn round: insert, [per_half] statements, delete, [per_half]
   statements. The unit of churn's measured region. *)
let round_lines sh = 2 + (2 * sh.per_half)

(* --- the server ---------------------------------------------------------- *)

type server = {
  domain : (Tcp.report, string) result Domain.t;
  finished : bool Atomic.t;
  addr : Unix.sockaddr;
  admin : Unix.sockaddr option;
  setup_s : float;
}

(* [Mediator.of_catalog] plus bind, until [on_listen] fires: the
   set-up a user of [fqcli serve] waits for. *)
let start sh ~catalog ~lines ~traced =
  let t0 = now () in
  let mediator =
    match Mediator.of_catalog catalog with
    | Ok m -> m
    | Error e -> fail "setup" "cannot load the catalog: %s" e
  in
  let listening = Atomic.make None and admin = Atomic.make None in
  let finished = Atomic.make false in
  let config =
    { Mediator.Config.default with Mediator.Config.runtime = `Domains (worker_domains ()) }
  in
  let cache_ttl = if sh.kind = Worlds.Hot then Some 1e9 else None in
  let domain =
    Domain.spawn (fun () ->
        let result =
          try
            Tcp.serve ~config ?cache_ttl ~versioned_cache:(sh.kind = Worlds.Churn)
              ~max_queries:lines
              ?admin:(if traced then Some loopback else None)
              ~admin_on_listen:(fun a -> Atomic.set admin (Some a))
              ~on_listen:(fun a -> Atomic.set listening (Some (a, now ())))
              ~listen:loopback mediator
          with e -> Error (Printexc.to_string e)
        in
        Atomic.set finished true;
        result)
  in
  let deadline = t0 +. 60.0 in
  let rec wait () =
    match (Atomic.get listening, Atomic.get admin) with
    | Some (addr, t1), admin when admin <> None || not traced ->
      { domain; finished; addr; admin; setup_s = t1 -. t0 }
    | _ ->
      if Atomic.get finished then
        match Domain.join domain with
        | Error e -> fail "setup" "the server stopped: %s" e
        | Ok _ -> fail "setup" "the server stopped before listening"
      else if now () > deadline then fail "setup" "the server did not listen within 60 s"
      else begin
        Unix.sleepf 0.0005;
        wait ()
      end
  in
  wait ()

let connect srv =
  match Wire.connect srv.addr with
  | c -> c
  | exception Unix.Unix_error (e, _, _) ->
    fail "connect" "cannot connect to the server: %s" (Unix.error_message e)

(* Sends the last statement of the session's quota; the server answers
   it, stops, and closes every connection. *)
let stop srv conns =
  let c = List.hd conns in
  Wire.send c "unsub 0";
  let deadline = now () +. patience in
  (try ignore (Wire.recv c ~deadline : string) with
  | Wire.Timeout -> fail "stop" "no reply to the closing statement"
  | Wire.Closed -> fail "stop" "connection closed before the closing statement");
  List.iter (fun c -> Wire.await_close c ~deadline) conns;
  List.iter Wire.close conns;
  while not (Atomic.get srv.finished) do
    if now () > deadline then fail "stop" "the server did not stop";
    Unix.sleepf 0.001
  done;
  match Domain.join srv.domain with
  | Ok report -> report
  | Error e -> fail "stop" "the server failed: %s" e

let statusz srv =
  match srv.admin with
  | None -> None
  | Some connect -> (
    match Admin.http_get ~retries:0 ~connect "/statusz" with
    | Ok (200, body) -> (
      match Json.of_string body with
      | Ok j -> Some j
      | Error e -> fail "scrape" "/statusz is not JSON: %s" e)
    | Ok (code, _) -> fail "scrape" "/statusz answered %d" code
    | Error e -> fail "scrape" "/statusz: %s" e)

(* --- driving ------------------------------------------------------------- *)

(* A measured region is cut into [chunks] consecutive chunks and every
   end-to-end figure is a median over them, so a burst of interference
   from outside the benchmark moves a few chunks, not the result. *)
let chunks = 20

type chunk = {
  mutable lat_ms : float list;  (** one-shot statements *)
  mutable push_ms : float list;  (** [mut] line to its last push *)
  mutable secs : float;  (** wall time of its one-shot statements (churn: of its rounds) *)
}

type samples = {
  mutable chunks : chunk list;  (** newest first *)
  mutable resp_ms : float list;  (** [response=] fields of the measured [ok] lines *)
  mutable cost : float;  (** sum of their [cost=] fields *)
  mutable answered : int;
  mutable measured : Worlds.stmt list;  (** newest first, for the replay *)
}

let samples () = { chunks = []; resp_ms = []; cost = 0.0; answered = 0; measured = [] }

let chunk s =
  let c = { lat_ms = []; push_ms = []; secs = 0.0 } in
  s.chunks <- c :: s.chunks;
  c

let latencies s = List.concat_map (fun c -> c.lat_ms) s.chunks
let secs s = List.fold_left (fun acc c -> acc +. c.secs) 0.0 s.chunks

(* The [k]th of [chunks] near-equal shares of [n]. *)
let share n k = (n * (k + 1) / chunks) - (n * k / chunks)

let record_query ck ?sample ~live st line t0 t1 =
  let answer = Wire.answer line in
  ck.queries <- { q_stmt = st; q_live = live; q_answer = answer; q_head = head line } :: ck.queries;
  match sample with
  | None -> ()
  | Some (s, c) ->
    c.lat_ms <- ((t1 -. t0) *. 1000.0) :: c.lat_ms;
    s.measured <- st :: s.measured;
    Option.iter
      (fun (a : Wire.answer) ->
        s.answered <- s.answered + 1;
        s.cost <- s.cost +. a.Wire.a_cost;
        s.resp_ms <- (a.Wire.a_response *. 1000.0) :: s.resp_ms)
      answer

let recv phase c =
  try Wire.recv c ~deadline:(now () +. patience) with
  | Wire.Timeout -> fail phase "no reply within %.0f s" patience
  | Wire.Closed -> fail phase "the server closed the connection"

(* [n] one-shot statements over [conns], one outstanding per
   connection: a connection sends its next statement only once its
   previous reply has arrived. *)
let closed_loop ~phase ck ?sample ~live conns ~next n =
  let slots = Array.of_list (List.map (fun c -> (c, ref None)) conns) in
  let sent = ref 0 and got = ref 0 in
  let launch (c, cur) =
    if !sent < n then begin
      let st = next () in
      cur := Some (st, now ());
      Wire.send c st.Worlds.sql;
      incr sent
    end
  in
  let t0 = now () in
  Array.iter launch slots;
  while !got < n do
    (try Wire.wait conns ~deadline:(now () +. patience) with
    | Wire.Timeout -> fail phase "no reply within %.0f s" patience
    | Wire.Closed -> fail phase "the server closed the connection");
    let t1 = now () in
    Array.iter
      (fun ((c, cur) as slot) ->
        match Wire.take c with
        | None -> ()
        | Some line -> (
          match !cur with
          | None -> fail phase "unsolicited line %S" (head line)
          | Some (st, t0) ->
            cur := None;
            incr got;
            record_query ck ?sample ~live st line t0 t1;
            launch slot))
      slots
  done;
  Option.iter (fun (_, c) -> c.secs <- c.secs +. (now () -. t0)) sample

let subscribe ck sub st =
  Wire.send sub ("sub " ^ st.Worlds.sql);
  let line = recv "subscribe" sub in
  let ack = Wire.sub_ack line in
  ck.subs <- { s_stmt = st; s_ack = ack; s_head = head line } :: ck.subs;
  Option.map (fun (id, _) -> (id, st)) ack

(* One [mut] batch from [writer] while [sub] holds [standing]: returns
   the time from writing the line to reading the last expected push. *)
let mutate ~phase ck sh ~writer ~sub ~standing ~item ~insert =
  let source = Printf.sprintf "R%d" ((item mod sh.sources) + 1) in
  let row = Worlds.fresh_row ~attrs:sh.attrs item in
  let t0 = now () in
  Wire.send writer (Printf.sprintf "mut %s %c%s" source (if insert then '+' else '-') row);
  let expected = List.length standing in
  let reply = ref None and pushes = ref [] and got = ref 0 and last = ref t0 in
  let deadline = t0 +. patience in
  while !reply = None || !got < expected do
    (try Wire.wait [ writer; sub ] ~deadline with
    | Wire.Timeout ->
      fail phase "mut %s: %d of %d pushes and %s reply within %.0f s" source !got expected
        (if !reply = None then "no" else "its")
        patience
    | Wire.Closed -> fail phase "the server closed a connection");
    (match Wire.take writer with Some l -> reply := Some l | None -> ());
    let rec drain () =
      match Wire.take sub with
      | None -> ()
      | Some l ->
        last := now ();
        incr got;
        (match Wire.push l with
        | Some p -> pushes := p :: !pushes
        | None -> fail phase "expected a push line, got %S" (head l));
        drain ()
    in
    drain ()
  done;
  ck.muts <-
    { m_item = item; m_insert = insert; m_reply = head (Option.get !reply);
      m_subs = standing; m_pushes = !pushes }
    :: ck.muts;
  !last -. t0

(* Inserts one fresh item, then [between] (), then deletes it; both
   batches are timed into [chunk]. *)
let mut_pair ~phase ck sh ~chunk ~writer ~sub ~standing between =
  let item = sh.next_item in
  sh.next_item <- item + 1;
  List.iter
    (fun insert ->
      let ms = 1000.0 *. mutate ~phase ck sh ~writer ~sub ~standing ~item ~insert in
      chunk.push_ms <- ms :: chunk.push_ms;
      between (if insert then Some item else None))
    [ true; false ]

type outcome = {
  setup_s : float;
  samples : samples;
  report : Tcp.report;
  rate : float;  (** measured units per second: statements, or churn rounds *)
  status_queries : Json.t option;  (** traced: /statusz after the one-shot statements *)
  status_end : Json.t option;  (** traced: /statusz at the end of the session *)
  queries_at_status : int;  (** one-shot statements answered by [status_queries] *)
  minor_words : float;  (** [Gc.quick_stat] minor words over the measured region *)
}

(* Statement lines a session sends, [stop]'s closing line included. *)
let session_lines sh ~measured ~probe =
  let subs = if probe || sh.kind = Worlds.Churn then List.length sh.standing else 0 in
  let body =
    match sh.kind with
    | Worlds.Churn -> round_lines sh * measured
    | Worlds.Cold | Worlds.Hot -> measured + if probe then 2 * sh.probe_pairs else 0
  in
  subs + List.length sh.warm + body + 1

let list_stream l =
  let rest = ref l in
  fun () ->
    match !rest with
    | st :: tl ->
      rest := tl;
      st
    | [] -> invalid_arg "list_stream: exhausted"

(* One session. [measured] counts one-shot statements (cold, hot) or
   rounds (churn). [probe] gives cold and hot their push latencies:
   standing queries plus insert/delete pairs, interleaved chunk by chunk
   with the one-shot statements, or all after them when [traced] (the
   admin listener is on and /statusz is read between the two). *)
let run sh ck ~catalog ~measured ~probe ~traced =
  (* Earlier sessions' garbage must not decide this one's memory
     high-water mark. *)
  Gc.full_major ();
  let lines = session_lines sh ~measured ~probe in
  let srv = start sh ~catalog ~lines ~traced in
  let a = connect srv and b = connect srv in
  let s = samples () in
  let standing =
    if probe || sh.kind = Worlds.Churn then List.filter_map (subscribe ck a) sh.standing
    else []
  in
  let gc0 = ref 0.0 and gc1 = ref 0.0 and status_queries = ref None in
  let minor_words () = (Gc.quick_stat ()).Gc.minor_words in
  (match sh.kind with
  | Worlds.Cold | Worlds.Hot ->
    closed_loop ~phase:"warm-up" ck ~live:None [ a; b ] ~next:(list_stream sh.warm)
      (List.length sh.warm);
    gc0 := minor_words ();
    let pairs k = if probe then share sh.probe_pairs k else 0 in
    let push_chunk c k =
      for _ = 1 to pairs k do
        mut_pair ~phase:"push probe" ck sh ~chunk:c ~writer:b ~sub:a ~standing ignore
      done
    in
    for k = 0 to chunks - 1 do
      let c = chunk s in
      closed_loop ~phase:"measure" ck ~sample:(s, c) ~live:None [ a; b ] ~next:sh.stream
        (share measured k);
      if not traced then push_chunk c k
    done;
    gc1 := minor_words ();
    status_queries := statusz srv;
    if traced then List.iteri (fun k c -> push_chunk c k) s.chunks
  | Worlds.Churn ->
    closed_loop ~phase:"warm-up" ck ~live:None [ b ] ~next:(list_stream sh.warm)
      (List.length sh.warm);
    gc0 := minor_words ();
    for k = 0 to chunks - 1 do
      let c = chunk s in
      let t0 = now () in
      for _ = 1 to share measured k do
        mut_pair ~phase:"measure" ck sh ~chunk:c ~writer:b ~sub:a ~standing (fun live ->
            closed_loop ~phase:"measure" ck ~sample:(s, c) ~live [ b ] ~next:sh.stream
              sh.per_half)
      done;
      c.secs <- now () -. t0
    done;
    gc1 := minor_words ());
  let status_end = statusz srv in
  let report = stop srv [ a; b ] in
  let one_shot = List.length sh.warm + List.length s.measured in
  { setup_s = srv.setup_s;
    samples = s;
    report;
    rate = float_of_int measured /. Float.max (secs s) 1e-6;
    status_queries = (if sh.kind = Worlds.Churn then status_end else !status_queries);
    status_end;
    queries_at_status = one_shot;
    minor_words = !gc1 -. !gc0 }

(* --- verification -------------------------------------------------------- *)

type verdict = { attempted : int; failed : int; first : string list }

let verify oracle ck =
  let attempted = ref 0 and failed = ref 0 and first = ref [] in
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        incr failed;
        if List.length !first < 5 then first := msg :: !first)
      fmt
  in
  let with_live base = function
    | None -> base
    | Some k -> Item_set.add (Value.String (Worlds.fresh_item k)) base
  in
  List.iter
    (fun q ->
      incr attempted;
      match q.q_answer with
      | None -> bad "%s -> %s" q.q_stmt.Worlds.sql q.q_head
      | Some a ->
        let want = with_live (Worlds.expected oracle q.q_stmt) q.q_live in
        if
          a.Wire.a_partial
          || a.Wire.a_rows <> Item_set.cardinal want
          || a.Wire.a_items <> Digest.string (Worlds.render want)
        then
          bad "%s -> %d rows, expected %d" q.q_stmt.Worlds.sql a.Wire.a_rows
            (Item_set.cardinal want))
    ck.queries;
  List.iter
    (fun s ->
      incr attempted;
      match s.s_ack with
      | None -> bad "sub %s -> %s" s.s_stmt.Worlds.sql s.s_head
      | Some (_, items) ->
        if items <> Digest.string (Worlds.render (Worlds.expected oracle s.s_stmt)) then
          bad "sub %s: wrong initial answer" s.s_stmt.Worlds.sql)
    ck.subs;
  List.iter
    (fun m ->
      incr attempted;
      if Wire.word m.m_reply <> "mut" then bad "mut -> %s" m.m_reply;
      let item = Worlds.render_item m.m_item in
      let added, removed = if m.m_insert then (item, "") else ("", item) in
      let pushes = ref m.m_pushes in
      List.iter
        (fun (id, st) ->
          incr attempted;
          let mine, rest = List.partition (fun p -> p.Wire.p_sub = id) !pushes in
          pushes := rest;
          let rows =
            Item_set.cardinal (Worlds.expected oracle st) + if m.m_insert then 1 else 0
          in
          match mine with
          | [ p ] when p.Wire.p_added = added && p.Wire.p_removed = removed && p.Wire.p_rows = rows
            -> ()
          | [] -> bad "mut of %s: no push for subscription %d" item id
          | _ -> bad "mut of %s: wrong push for subscription %d" item id)
        m.m_subs;
      List.iter (fun p -> bad "mut of %s: unexpected push for %d" item p.Wire.p_sub) !pushes)
    ck.muts;
  { attempted = !attempted; failed = !failed; first = List.rev !first }
