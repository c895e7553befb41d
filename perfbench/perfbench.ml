(* The repository benchmark: fusion queries served over the TCP front
   end, measured end to end by a closed loop of loopback clients, with
   a traced run that times each layer from outside.

     perfbench gen --workload W --seed N --dir D
     perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D

   [gen] writes the seeded world's catalog to D; [run] serves it and
   prints one JSON object as the last line of standard output. See
   README.md in this directory for the metrics. *)

module Workload = Fusion_workload.Workload
module Mediator = Fusion_mediator.Mediator
module Tcp = Fusion_mediator.Tcp_front
module Json = Fusion_obs.Json

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

(* --- statistics ---------------------------------------------------------- *)

let sum l = List.fold_left ( +. ) 0.0 l
let mean l = match l with [] -> 0.0 | _ -> sum l /. float_of_int (List.length l)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Nearest-rank percentile. *)
let percentile p l =
  match List.sort compare l with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l = percentile 0.5 l

let peak_rss_mb () =
  let prefix = "VmHWM:" in
  match
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> Some kb)
          | Some _ -> find ()
        in
        find ())
  with
  | Some kb -> float_of_int kb /. 1024.0
  | None | (exception Sys_error _) -> Session.fail "memory" "no VmHWM in /proc/self/status"

(* --- /statusz fields ----------------------------------------------------- *)

let status_num j path =
  match
    List.fold_left (fun acc key -> Option.bind acc (Json.member key)) (Some j) path
    |> Fun.flip Option.bind Json.to_float
  with
  | Some v -> v
  | None -> Session.fail "scrape" "/statusz has no %s" (String.concat "." path)

(* --- the run ------------------------------------------------------------- *)

(* Measured-region size of a calibration session, and the bounds of a
   measured session: one-shot statements (cold, hot) or rounds (churn). *)
let calibration = function Worlds.Cold -> 16 | Worlds.Hot -> 200 | Worlds.Churn -> 10

let bounds = function
  | Worlds.Cold -> (100, 5_000)
  | Worlds.Hot -> (500, 50_000)
  | Worlds.Churn -> (100, 20_000)

(* Set-up is sampled once per session; the calibration sessions also
   size the measured region to [seconds]. *)
let calibrate sh ck ~catalog =
  let outcomes =
    List.init 6 (fun _ ->
        Session.run sh ck ~catalog ~measured:(calibration sh.Session.kind) ~probe:false
          ~traced:false)
  in
  let rate = median (List.map (fun (o : Session.outcome) -> o.Session.rate) outcomes) in
  let size seconds =
    let lo, hi = bounds sh.Session.kind in
    max lo (min hi (int_of_float (rate *. seconds)))
  in
  (List.map (fun (o : Session.outcome) -> o.Session.setup_s) outcomes, size)

let metric name unit value =
  if not (Float.is_finite value) then Session.fail "report" "%s is not finite" name;
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit) ])

let result ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (failed = 0)); ("attempted", Json.Int attempted);
         ("failed", Json.Int failed); ("metrics", Json.Obj metrics) ])

let verify ck ~catalog ~extra_attempted ~extra_failed =
  let sources =
    match Mediator.of_catalog catalog with
    | Ok m -> Mediator.sources m
    | Error e -> Session.fail "check" "cannot load the catalog: %s" e
  in
  let v = Session.verify (Worlds.oracle sources) ck in
  List.iter (fun m -> prerr_endline ("perfbench: wrong answer: " ^ m)) v.Session.first;
  (v.Session.attempted + extra_attempted, v.Session.failed + extra_failed)

(* The median over chunks of a per-chunk statistic. *)
let over_chunks f (s : Session.samples) = median (List.map f s.Session.chunks)

let end_to_end sh ~catalog ~seconds =
  let ck = Session.checks () in
  let setups, size = calibrate sh ck ~catalog in
  let o = Session.run sh ck ~catalog ~measured:(size seconds) ~probe:true ~traced:false in
  let rss = peak_rss_mb () in
  let s = o.Session.samples in
  let attempted, failed = verify ck ~catalog ~extra_attempted:0 ~extra_failed:0 in
  let lat (c : Session.chunk) = c.Session.lat_ms and push (c : Session.chunk) = c.Session.push_ms in
  let setups = o.Session.setup_s :: setups in
  let count f = List.length (List.concat_map f s.Session.chunks) in
  Printf.printf
    "%s: %d one-shot statements and %d pushes in %d chunks of %.2f s in all; setup median \
     of %d; %d of %d checks failed\n"
    (Worlds.name sh.Session.kind) (count lat) (count push) Session.chunks (Session.secs s)
    (List.length setups) failed attempted;
  let metrics =
    [ metric "query_p50_ms" "ms" (over_chunks (fun c -> median (lat c)) s);
      metric "query_p90_ms" "ms" (over_chunks (fun c -> percentile 0.9 (lat c)) s);
      metric "query_qps" "1/s"
        (over_chunks (fun c -> float_of_int (List.length (lat c)) /. c.Session.secs) s);
      metric "source_cost_per_query" "cost"
        (ratio s.Session.cost (float_of_int s.Session.answered));
      metric "push_p50_ms" "ms" (over_chunks (fun c -> median (push c)) s);
      metric "push_p90_ms" "ms" (over_chunks (fun c -> percentile 0.9 (push c)) s);
      metric "setup_s" "s" (median setups);
      metric "peak_rss_mb" "MB" rss ]
  in
  result ~attempted ~failed metrics

let per_layer sh ~catalog ~seconds =
  let ck = Session.checks () in
  let _, size = calibrate sh ck ~catalog in
  let half = seconds /. 2.0 in
  let plain = Session.run sh ck ~catalog ~measured:(size half) ~probe:false ~traced:false in
  let o = Session.run sh ck ~catalog ~measured:(size half) ~probe:true ~traced:true in
  let s = o.Session.samples in
  let mediator =
    match Mediator.of_catalog catalog with
    | Ok m -> m
    | Error e -> Session.fail "replay" "cannot load the catalog: %s" e
  in
  let r = Replay.run mediator (List.rev s.Session.measured) ~budget:(seconds /. 4.0) in
  let mutate_us = Replay.mutate_us sh mediator ~standing:sh.Session.standing ~pairs:200 in
  let attempted, failed =
    verify ck ~catalog ~extra_attempted:r.Replay.n ~extra_failed:r.Replay.mismatches
  in
  let status_q = Option.get o.Session.status_queries
  and status_end = Option.get o.Session.status_end in
  let q_status = float_of_int o.Session.queries_at_status in
  let batches = status_num status_end [ "delta"; "batches" ] in
  let obs = o.Session.report.Tcp.observations in
  let lat_ms = Session.latencies s in
  let measured = float_of_int (List.length lat_ms) in
  let per_stmt x = x /. float_of_int r.Replay.n in
  let ms x = 1000.0 *. per_stmt x and us x = 1e6 *. per_stmt x in
  let per_call x n = 1e6 *. x /. float_of_int (max 1 n) in
  let lat = mean lat_ms and resp = mean s.Session.resp_ms in
  let layers =
    ms (r.Replay.parse +. r.Replay.stats +. r.Replay.optimize +. r.Replay.compile +. r.Replay.run)
  in
  Printf.printf "reconciliation (%s): end-to-end mean %.3f ms over %d statements\n"
    (Worlds.name sh.Session.kind) lat (List.length lat_ms);
  List.iter
    (fun (label, v) -> Printf.printf "  %-28s %9.3f ms\n" label v)
    [ ("sql.parse", ms r.Replay.parse); ("opt_env.stats", ms r.Replay.stats);
      ("optimizer.optimize", ms r.Replay.optimize);
      ("plan_compile.compile", ms r.Replay.compile); ("plan_compile.run", ms r.Replay.run);
      ("sum of layers", layers); ("pipeline.residual_ms", lat -. layers);
      ("serve.response_ms", resp); ("tcp_front.residual_ms", lat -. resp) ];
  Printf.printf "  (%d distinct statements replayed)\n" r.Replay.n;
  let metrics =
    [ metric "sql.parse_us" "us" (us r.Replay.parse);
      metric "opt_env.stats_us" "us" (us r.Replay.stats);
      metric "optimizer.optimize_us" "us" (us r.Replay.optimize);
      metric "optimizer.cost_drift" "ratio"
        (ratio r.Replay.drift (float_of_int r.Replay.drift_n));
      metric "plan_compile.compile_us" "us" (us r.Replay.compile);
      metric "plan_compile.run_us" "us" (us r.Replay.run);
      metric "source.sq_us" "us" (per_call r.Replay.sq r.Replay.sq_n);
      metric "source.sjq_us" "us" (per_call r.Replay.sjq r.Replay.sjq_n);
      metric "source.lq_us" "us" (per_call r.Replay.lq r.Replay.lq_n);
      metric "item_set.combine_us" "us" (us r.Replay.combine);
      metric "source.requests_per_query" "count" (per_stmt (float_of_int r.Replay.requests));
      metric "source.items_recv_per_query" "count"
        (per_stmt (float_of_int r.Replay.items_recv));
      metric "delta.mutate_us" "us" mutate_us;
      metric "serve.response_ms" "ms" resp;
      metric "tcp_front.residual_ms" "ms" (lat -. resp);
      metric "rt.lane_request_us" "us"
        (1e6 *. mean (List.map (fun (_, _, wall) -> wall) obs));
      metric "rt.lane_requests_per_query" "count"
        (ratio (float_of_int (List.length obs)) q_status);
      metric "rt.pool_queue_high_water" "count"
        (status_num status_end [ "pool"; "queue_high_water" ]);
      metric "rt.polls_per_query" "count"
        (ratio (status_num status_q [ "scheduler"; "polls" ]) q_status);
      metric "rt.poll_wait_ms_per_query" "ms"
        (1000.0 *. ratio (status_num status_q [ "scheduler"; "poll_wait_seconds" ]) q_status);
      metric "answer_cache.hit_ratio" "ratio"
        (ratio
           (status_num status_q [ "cache"; "inflight_hits" ]
           +. status_num status_q [ "cache"; "cached_hits" ])
           (status_num status_q [ "cache"; "lookups" ]));
      metric "answer_cache.invalidated_per_mut" "count"
        (ratio (status_num status_end [ "cache"; "invalidated" ]) batches);
      metric "answer_cache.patched_per_mut" "count"
        (ratio (status_num status_end [ "cache"; "patched" ]) batches);
      metric "delta.pushes_per_mut" "count"
        (ratio (status_num status_end [ "delta"; "pushes" ]) batches);
      metric "gc.minor_words_per_query" "words" (ratio o.Session.minor_words measured);
      metric "pipeline.residual_ms" "ms" (lat -. layers);
      metric "trace.overhead_frac" "ratio"
        (ratio (median lat_ms) (median (Session.latencies plain.Session.samples)) -. 1.0)
    ]
  in
  result ~attempted ~failed metrics

(* --- command line -------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, flags =
    match args with m :: rest -> (m, rest) | [] -> die "usage: perfbench gen|run FLAGS"
  in
  let rec parse acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      parse ((key, value) :: acc) rest
    | [] -> acc
    | other :: _ -> die "unexpected argument %S" other
  in
  let flags = parse [] flags in
  let get key =
    match List.assoc_opt key flags with Some v -> v | None -> die "missing %s" key
  in
  let int key =
    match int_of_string_opt (get key) with Some n -> n | None -> die "%s wants an integer" key
  in
  let kind =
    match Worlds.of_name (get "--workload") with
    | Some k -> k
    | None -> die "unknown workload %S (cold, hot or churn)" (get "--workload")
  in
  let seed = int "--seed" and dir = get "--dir" in
  match mode with
  | "gen" -> Workload.save ~dir (Workload.generate (Worlds.spec kind seed))
  | "run" -> (
    let seconds = float_of_int (int "--seconds") in
    if seconds <= 0.0 then die "--seconds must be positive";
    let traced =
      match get "--trace" with "0" -> false | "1" -> true | t -> die "--trace %S" t
    in
    let sh = Session.shape kind ~seed in
    let catalog = Filename.concat dir "catalog.ini" in
    match
      if traced then per_layer sh ~catalog ~seconds else end_to_end sh ~catalog ~seconds
    with
    | line -> print_endline line
    | exception Session.Failed (phase, msg) ->
      prerr_endline
        (Printf.sprintf "perfbench: workload %s failed in phase %s: %s" (Worlds.name kind)
           phase msg);
      exit 1
    | exception e ->
      prerr_endline
        (Printf.sprintf "perfbench: workload %s failed: %s" (Worlds.name kind)
           (Printexc.to_string e));
      exit 1)
  | m -> die "unknown mode %S (gen or run)" m
