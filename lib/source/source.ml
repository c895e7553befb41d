open Fusion_data
open Fusion_cond
module Trace = Fusion_obs.Trace
module Metrics = Fusion_obs.Metrics

exception Unsupported of string

exception Timeout of string

type fault = { probability : float; prng : Fusion_stats.Prng.t }

type t = {
  relation : Relation.t;
  capability : Capability.t;
  profile : Fusion_net.Profile.t;
  meter : Fusion_net.Meter.t;
  mutable fault : fault option;
  vecs : (Cond.t, Cond_vec.t) Hashtbl.t;
      (* compiled column scans, one per distinct condition seen *)
  preds : (Cond.t, Tuple.t -> bool) Hashtbl.t;
      (* hoisted row predicates for the per-item emulated path *)
  stats : Fusion_stats.Source_stats.t;
      (* exact statistics, kept across statements; built here, not on
         first use, because [Lazy] is not domain-safe *)
}

let create ?(capability = Capability.full) ?(profile = Fusion_net.Profile.default) ?fault
    relation =
  {
    relation;
    capability;
    profile;
    meter = Fusion_net.Meter.create ();
    fault;
    vecs = Hashtbl.create 8;
    preds = Hashtbl.create 8;
    stats = Fusion_stats.Source_stats.exact relation;
  }

let set_fault t fault = t.fault <- fault

let name t = Relation.name t.relation
let relation t = t.relation
let schema t = Relation.schema t.relation
let capability t = t.capability
let profile t = t.profile
let stats t = t.stats

let charge t ~items_sent ~items_received ~tuples_received =
  Fusion_net.Meter.record t.meter t.profile ~items_sent ~items_received ~tuples_received

(* A timed-out request still costs its overhead (the packet went out)
   plus whatever was shipped with it. *)
let maybe_fail t ~items_sent =
  match t.fault with
  | Some { probability; prng } when Fusion_stats.Prng.bernoulli prng probability ->
    ignore (charge t ~items_sent ~items_received:0 ~tuples_received:0);
    raise (Timeout (Printf.sprintf "source %s timed out" (Relation.name t.relation)))
  | _ -> ()

(* Compiled artifacts are cached per structural condition: wrappers see
   the same handful of conditions over and over (one per plan node), so
   steady-state queries never recompile. Like the meter, these caches
   assume one lane drives a source at a time. *)
let vec t cond =
  match Hashtbl.find_opt t.vecs cond with
  | Some v -> v
  | None ->
    let v = Cond_vec.compile t.relation cond in
    Hashtbl.add t.vecs cond v;
    v

let predicate t cond =
  match Hashtbl.find_opt t.preds cond with
  | Some p -> p
  | None ->
    let p = Cond.compile (schema t) cond in
    Hashtbl.add t.preds cond p;
    p

(* One [Trace.Request] span per logical source query, whether or not it
   succeeds: the span's cost and request count are meter deltas, so
   timed-out attempts (which still pay their overhead) are attributed to
   the span that caused them. When neither tracing nor metrics are on,
   this is one closure call and one option match. *)
let observed t ~op f =
  Trace.span Trace.Request op (fun ctx ->
      if not (Trace.active ctx || Metrics.installed () <> None) then f ctx
      else begin
        let before = Fusion_net.Meter.totals t.meter in
        Fun.protect
          ~finally:(fun () ->
            let after = Fusion_net.Meter.totals t.meter in
            let cost = after.Fusion_net.Meter.cost -. before.Fusion_net.Meter.cost in
            let requests =
              after.Fusion_net.Meter.requests - before.Fusion_net.Meter.requests
            in
            if Trace.active ctx then begin
              Trace.attrs ctx
                [
                  ("source", Trace.Str (name t));
                  ("requests", Trace.Int requests);
                  ("cost", Trace.Float cost);
                ];
              Trace.charge ctx cost
            end;
            Metrics.record (fun r ->
                let labels = [ ("source", name t); ("op", op) ] in
                Metrics.incr r ~labels "fusion_requests_total"
                  ~by:(float_of_int requests);
                Metrics.incr r ~labels "fusion_request_cost_total" ~by:cost))
          (fun () -> f ctx)
      end)

let select_query t cond =
  observed t ~op:"sq" (fun ctx ->
      maybe_fail t ~items_sent:0;
      let answer = Cond_vec.select_items (vec t cond) in
      let cost =
        charge t ~items_sent:0 ~items_received:(Item_set.cardinal answer)
          ~tuples_received:0
      in
      if Trace.active ctx then
        Trace.attrs ctx
          [
            ("cond", Trace.Str (Cond.to_string cond));
            ("items_sent", Trace.Int 0);
            ("items_received", Trace.Int (Item_set.cardinal answer));
          ];
      (answer, cost))

let native_semijoin t cond xs =
  maybe_fail t ~items_sent:(Item_set.cardinal xs);
  let answer = Cond_vec.semijoin_items (vec t cond) xs in
  let cost =
    charge t ~items_sent:(Item_set.cardinal xs)
      ~items_received:(Item_set.cardinal answer) ~tuples_received:0
  in
  (answer, cost)

(* One point-selection request per binding: [c AND M = m]. Each pays the
   request overhead — this is exactly why emulated semijoins are dear. *)
let emulated_semijoin t cond xs =
  let pred = predicate t cond in
  (* Iterate in value order (fold_items) so the per-item fault draws and
     charges happen in the same sequence as the historical fold; collect
     surviving ids and build the answer in one pass at the end. *)
  let kept, cost =
    Item_set.fold_items
      (fun id item (kept, cost) ->
        maybe_fail t ~items_sent:1;
        let hit = List.exists pred (Relation.tuples_of_item t.relation item) in
        let received = if hit then 1 else 0 in
        let c = charge t ~items_sent:1 ~items_received:received ~tuples_received:0 in
        ((if hit then id :: kept else kept), cost +. c))
      xs ([], 0.0)
  in
  match Item_set.table xs with
  | None -> (Item_set.empty, cost)
  | Some tbl -> (Item_set.of_ids tbl (Array.of_list kept), cost)

let semijoin_query t cond xs =
  if
    not
      (t.capability.Capability.native_semijoin || t.capability.Capability.point_select)
  then
    raise (Unsupported (Printf.sprintf "source %s cannot answer semijoin queries" (name t)));
  observed t ~op:"sjq" (fun ctx ->
      let emulated = not t.capability.Capability.native_semijoin in
      let answer, cost =
        if emulated then emulated_semijoin t cond xs else native_semijoin t cond xs
      in
      if Trace.active ctx then
        Trace.attrs ctx
          [
            ("cond", Trace.Str (Cond.to_string cond));
            ("items_sent", Trace.Int (Item_set.cardinal xs));
            ("items_received", Trace.Int (Item_set.cardinal answer));
            ("emulated", Trace.Bool emulated);
          ];
      (answer, cost))

let load_query t =
  if not t.capability.Capability.load then
    raise (Unsupported (Printf.sprintf "source %s cannot ship its relation" (name t)));
  observed t ~op:"lq" (fun ctx ->
      maybe_fail t ~items_sent:0;
      let cost =
        charge t ~items_sent:0 ~items_received:0
          ~tuples_received:(Relation.cardinality t.relation)
      in
      if Trace.active ctx then
        Trace.attrs ctx
          [
            ("items_sent", Trace.Int 0);
            ("tuples_received", Trace.Int (Relation.cardinality t.relation));
          ];
      (t.relation, cost))

let fetch_records t items =
  observed t ~op:"fetch" (fun ctx ->
      maybe_fail t ~items_sent:(Item_set.cardinal items);
      let tuples =
        Item_set.fold
          (fun item acc -> Relation.tuples_of_item t.relation item @ acc)
          items []
      in
      let cost =
        charge t ~items_sent:(Item_set.cardinal items) ~items_received:0
          ~tuples_received:(List.length tuples)
      in
      if Trace.active ctx then
        Trace.attrs ctx
          [
            ("items_sent", Trace.Int (Item_set.cardinal items));
            ("tuples_received", Trace.Int (List.length tuples));
          ];
      (tuples, cost))

let totals t = Fusion_net.Meter.totals t.meter
let reset_meter t = Fusion_net.Meter.reset t.meter

let pp ppf t =
  Format.fprintf ppf "%s%a %a [%d tuples, %d items]" (name t) Capability.pp t.capability
    Fusion_net.Profile.pp t.profile
    (Relation.cardinality t.relation)
    (Relation.distinct_item_count t.relation)
