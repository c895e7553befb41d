(* The traced run's in-process replay: the session's statements walked
   through each layer's public functions, one call at a time, with the
   wall clock read around every call. Nothing inside the library is
   instrumented; the layers are timed from here. *)

module Mediator = Fusion_mediator.Mediator
module Sql = Fusion_query.Sql
module Query = Fusion_query.Query
module Opt_env = Fusion_core.Opt_env
module Optimizer = Fusion_core.Optimizer
module Optimized = Fusion_core.Optimized
module Plan = Fusion_plan.Plan
module Op = Fusion_plan.Op
module Plan_compile = Fusion_plan.Plan_compile
module Exec = Fusion_plan.Exec
module Source = Fusion_source.Source
module Relation = Fusion_data.Relation
module Item_set = Fusion_data.Item_set
module Cond = Fusion_cond.Cond
module Meter = Fusion_net.Meter

let now = Unix.gettimeofday

(* Sums over the replayed statements; times in seconds. *)
type t = {
  mutable n : int;
  mutable parse : float;
  mutable stats : float;
  mutable optimize : float;
  mutable compile : float;
  mutable run : float;
  mutable drift : float;
  mutable drift_n : int;
  mutable sq : float;
  mutable sq_n : int;
  mutable sjq : float;
  mutable sjq_n : int;
  mutable lq : float;
  mutable lq_n : int;
  mutable combine : float;
  mutable requests : int;
  mutable items_recv : int;
  mutable mismatches : int;  (** walks whose answer differs from the compiled run *)
}

let create () =
  { n = 0; parse = 0.0; stats = 0.0; optimize = 0.0; compile = 0.0; run = 0.0;
    drift = 0.0; drift_n = 0; sq = 0.0; sq_n = 0; sjq = 0.0; sjq_n = 0; lq = 0.0;
    lq_n = 0; combine = 0.0; requests = 0; items_recv = 0; mismatches = 0 }

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

type value = Items of Item_set.t | Loaded of Relation.t

(* Executes the plan op by op against the wrapped sources, timing each
   source request and each set combination. *)
let walk r ~sources ~conds plan =
  let env = Hashtbl.create 16 in
  let items v =
    match Hashtbl.find env v with Items s -> s | Loaded _ -> invalid_arg "not an item set"
  in
  List.iter
    (fun (op : Op.t) ->
      let bind v x = Hashtbl.replace env v x in
      match op with
      | Op.Select { dst; cond; source } ->
        let (s, _), dt = timed (fun () -> Source.select_query sources.(source) conds.(cond)) in
        r.sq <- r.sq +. dt;
        r.sq_n <- r.sq_n + 1;
        bind dst (Items s)
      | Op.Semijoin { dst; cond; source; input } ->
        let x = items input in
        let (s, _), dt =
          timed (fun () -> Source.semijoin_query sources.(source) conds.(cond) x)
        in
        r.sjq <- r.sjq +. dt;
        r.sjq_n <- r.sjq_n + 1;
        bind dst (Items s)
      | Op.Load { dst; source } ->
        let (rel, _), dt = timed (fun () -> Source.load_query sources.(source)) in
        r.lq <- r.lq +. dt;
        r.lq_n <- r.lq_n + 1;
        bind dst (Loaded rel)
      | Op.Local_select { dst; cond; input } -> (
        match Hashtbl.find env input with
        | Loaded rel ->
          let pred = Cond.compile (Relation.schema rel) conds.(cond) in
          bind dst (Items (Relation.select_items rel pred))
        | Items _ -> invalid_arg "local select over an item set")
      | Op.Union { dst; args } ->
        let sets = List.map items args in
        let s, dt = timed (fun () -> Item_set.union_list sets) in
        r.combine <- r.combine +. dt;
        bind dst (Items s)
      | Op.Inter { dst; args } ->
        let sets = List.map items args in
        let s, dt = timed (fun () -> Item_set.inter_list sets) in
        r.combine <- r.combine +. dt;
        bind dst (Items s)
      | Op.Diff { dst; left; right } ->
        let a = items left and b = items right in
        let s, dt = timed (fun () -> Item_set.diff a b) in
        r.combine <- r.combine +. dt;
        bind dst (Items s))
    (Plan.ops plan);
  items (Plan.output plan)

(* One statement through parse, statistics, SJA+, compile and the
   compiled run, then the op-by-op walk. *)
let statement r mediator sql =
  let schema = Mediator.schema mediator and sources = Mediator.sources mediator in
  let parsed, t_parse = timed (fun () -> Sql.parse_fusion ~schema ~union:"U" sql) in
  let query =
    match parsed with
    | Ok q -> q
    | Error e -> Session.fail "replay" "cannot parse %S: %s" sql e
  in
  let env, t_stats =
    timed (fun () -> Opt_env.create ~stats:Opt_env.Exact sources (Query.normalize query))
  in
  let optimized, t_opt = timed (fun () -> Optimizer.optimize Optimizer.Sja_plus env) in
  let plan = optimized.Optimized.plan in
  let conds = env.Opt_env.conds in
  let compiled, t_compile = timed (fun () -> Plan_compile.compile ~sources ~conds plan) in
  let compiled =
    match compiled with Ok c -> c | Error e -> Session.fail "replay" "compile: %s" e
  in
  let result, t_run = timed (fun () -> Plan_compile.run compiled) in
  Array.iter Source.reset_meter sources;
  let walked = walk r ~sources ~conds plan in
  let totals = Array.fold_left (fun acc s -> Meter.add acc (Source.totals s)) Meter.zero sources in
  if not (Item_set.equal walked result.Exec.answer) then r.mismatches <- r.mismatches + 1;
  r.n <- r.n + 1;
  r.parse <- r.parse +. t_parse;
  r.stats <- r.stats +. t_stats;
  r.optimize <- r.optimize +. t_opt;
  r.compile <- r.compile +. t_compile;
  r.run <- r.run +. t_run;
  if optimized.Optimized.est_cost > 0.0 then begin
    r.drift <- r.drift +. (result.Exec.total_cost /. optimized.Optimized.est_cost);
    r.drift_n <- r.drift_n + 1
  end;
  r.requests <- r.requests + totals.Meter.requests;
  r.items_recv <- r.items_recv + totals.Meter.items_received

(* A plan walk may never load a relation (or never semijoin): then each
   such request is timed [probe_reps] times per source, so the per-call
   cells are always measured, above the clock's microsecond
   resolution. *)
let probe_reps = 100

let probe_missing r mediator =
  let cond = Cond.Cmp ("A1", Cond.Lt, Fusion_data.Value.Int 200) in
  let sources = Mediator.sources mediator in
  let probe f =
    let t = ref 0.0 in
    Array.iteri
      (fun i s ->
        let _, dt =
          timed (fun () ->
              for _ = 1 to probe_reps do
                f i s
              done)
        in
        t := !t +. dt)
      sources;
    (!t, probe_reps * Array.length sources)
  in
  if r.sq_n = 0 then begin
    let t, n = probe (fun _ s -> ignore (Source.select_query s cond)) in
    r.sq <- t;
    r.sq_n <- n
  end;
  if r.sjq_n = 0 then begin
    let inputs = Array.map (fun s -> fst (Source.select_query s cond)) sources in
    let t, n = probe (fun i s -> ignore (Source.semijoin_query s cond inputs.(i))) in
    r.sjq <- t;
    r.sjq_n <- n
  end;
  if r.lq_n = 0 then begin
    let t, n = probe (fun _ s -> ignore (Source.load_query s)) in
    r.lq <- t;
    r.lq_n <- n
  end

(* Replays the distinct statements of [stmts] (in order) until
   [budget] seconds have passed; at least one is replayed. *)
let run mediator stmts ~budget =
  let r = create () in
  let seen = Hashtbl.create 256 in
  let stop = now () +. budget in
  (try
     List.iter
       (fun (st : Worlds.stmt) ->
         if r.n > 0 && now () > stop then raise Exit;
         if not (Hashtbl.mem seen st.Worlds.sql) then begin
           Hashtbl.add seen st.Worlds.sql ();
           statement r mediator st.Worlds.sql
         end)
       stmts
   with Exit -> ());
  probe_missing r mediator;
  r

(* [Mediator.Server.mutate_line] with [standing] registered: mean
   microseconds per batch over [pairs] insert/delete pairs. *)
let mutate_us (sh : Session.shape) mediator ~standing ~pairs =
  let srv =
    Mediator.Server.create ~versioned_cache:(sh.Session.kind = Worlds.Churn) mediator
  in
  List.iter
    (fun (st : Worlds.stmt) ->
      match Mediator.Server.subscribe_sql srv st.Worlds.sql with
      | Ok _ -> ()
      | Error e -> Session.fail "replay" "subscribe: %s" e)
    standing;
  let total = ref 0.0 in
  for k = 1 to pairs do
    let item = 1_000_000_000 - k in
    let source = Printf.sprintf "R%d" ((k mod sh.Session.sources) + 1) in
    let row = Worlds.fresh_row ~attrs:sh.Session.attrs item in
    List.iter
      (fun sign ->
        let res, dt =
          timed (fun () -> Mediator.Server.mutate_line srv ~source (sign ^ row))
        in
        match res with
        | Ok _ -> total := !total +. dt
        | Error e -> Session.fail "replay" "mutate: %s" e)
      [ "+"; "-" ]
  done;
  !total /. float_of_int (2 * pairs) *. 1e6
