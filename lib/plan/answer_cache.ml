(* Cross-query answer sharing for selection queries.

   Generalizes two mechanisms that used to live inside a single run of
   the concurrent executor: the in-flight coalescer (a later step
   needing a selection another step has already put in flight joins the
   pending request) and the session [Exec.Query_cache] (a completed
   answer is replayed for free). One table, keyed by
   (source, condition), shared by however many concurrently executing
   queries a serving layer multiplexes: the first query to need a
   selection pays for it, everyone whose need overlaps the request in
   (simulated) time joins it, and — when a TTL is set — everyone who
   arrives within [ttl] after the answer materialized reuses it as a
   slightly stale cached answer, with the staleness accounted.

   [ttl = None] reproduces the executor's historical behavior exactly:
   in-flight sharing only, completed answers are never replayed. That is
   what keeps a lone query's execution under a serving layer
   byte-identical to [Exec_async.run].

   [versioned = true] switches staleness accounting from the clock to
   the source-version vector: every entry records the relation version
   its answer was computed at, deltas arriving at the mediator patch or
   invalidate entries through [apply_delta], and a version-matching
   lookup replays the answer with an exact staleness of zero — no TTL
   guessing. Version-mismatched entries (a delta that bypassed
   [apply_delta]) are invalidated on lookup rather than served. *)

open Fusion_data

type entry = { finish : float; answer : Item_set.t; version : int }

type stats = {
  lookups : int;
  inflight_hits : int;
  cached_hits : int;
  expirations : int;
  invalidated : int;
  patched : int;
  staleness_sum : float;
  staleness_max : float;
}

type t = {
  ttl : float option;
  versioned : bool;
  keys : Intern.t; (* interns source names and condition texts *)
  table : (int * int, entry) Hashtbl.t; (* (source id, cond id) *)
  mutable lookups : int;
  mutable inflight_hits : int;
  mutable cached_hits : int;
  mutable expirations : int;
  mutable invalidated : int;
  mutable patched : int;
  mutable staleness_sum : float;
  mutable staleness_max : float;
  mutable published : stats; (* last snapshot flushed to the registry *)
}

type outcome =
  | Inflight of float * Item_set.t
  | Cached of float * Item_set.t
  | Miss

let zero_stats =
  {
    lookups = 0;
    inflight_hits = 0;
    cached_hits = 0;
    expirations = 0;
    invalidated = 0;
    patched = 0;
    staleness_sum = 0.0;
    staleness_max = 0.0;
  }

let create ?ttl ?(versioned = false) () =
  (match ttl with
  | Some t when t < 0.0 -> invalid_arg "Answer_cache.create: negative ttl"
  | _ -> ());
  {
    ttl;
    versioned;
    keys = Intern.create ~name:"answer-cache-keys" ();
    table = Hashtbl.create 64;
    lookups = 0;
    inflight_hits = 0;
    cached_hits = 0;
    expirations = 0;
    invalidated = 0;
    patched = 0;
    staleness_sum = 0.0;
    staleness_max = 0.0;
    published = zero_stats;
  }

let ttl t = t.ttl
let versioned t = t.versioned

let clear t =
  Hashtbl.reset t.table;
  t.lookups <- 0;
  t.inflight_hits <- 0;
  t.cached_hits <- 0;
  t.expirations <- 0;
  t.invalidated <- 0;
  t.patched <- 0;
  t.staleness_sum <- 0.0;
  t.staleness_max <- 0.0;
  t.published <- zero_stats

let stats t : stats =
  {
    lookups = t.lookups;
    inflight_hits = t.inflight_hits;
    cached_hits = t.cached_hits;
    expirations = t.expirations;
    invalidated = t.invalidated;
    patched = t.patched;
    staleness_sum = t.staleness_sum;
    staleness_max = t.staleness_max;
  }

(* The string pair is interned once; steady-state lookups hash two
   small ints instead of two strings. *)
let key t ~source ~cond =
  (Intern.intern t.keys (Value.String source), Intern.intern t.keys (Value.String cond))

let cached_hit t staleness =
  t.cached_hits <- t.cached_hits + 1;
  t.staleness_sum <- t.staleness_sum +. staleness;
  t.staleness_max <- Float.max t.staleness_max staleness

let find t ~source ~cond ?version ~ready () =
  t.lookups <- t.lookups + 1;
  let key = key t ~source ~cond in
  match Hashtbl.find_opt t.table key with
  | None -> Miss
  | Some e when e.finish > ready ->
    t.inflight_hits <- t.inflight_hits + 1;
    Inflight (e.finish, e.answer)
  | Some e -> (
    match (t.versioned, version) with
    | true, Some v when v = e.version ->
      (* The entry provably reflects the source's current state: exact
         staleness zero, whatever the clock says. *)
      cached_hit t 0.0;
      Cached (0.0, e.answer)
    | true, Some _ ->
      (* A delta bypassed [apply_delta]; never serve a provably stale
         answer in versioned mode. *)
      t.invalidated <- t.invalidated + 1;
      Hashtbl.remove t.table key;
      Miss
    | _ -> (
      match t.ttl with
      | Some ttl when ready -. e.finish <= ttl ->
        let staleness = ready -. e.finish in
        cached_hit t staleness;
        Cached (staleness, e.answer)
      | _ ->
        t.expirations <- t.expirations + 1;
        Hashtbl.remove t.table key;
        Miss))

let note t ~source ~cond ~finish ?(version = 0) answer =
  Hashtbl.replace t.table (key t ~source ~cond) { finish; answer; version }

(* A completed entry no later [find] can return: without versioning,
   only the TTL window replays a completed answer, and without a TTL
   nothing does. *)
let dead t ~now e =
  e.finish <= now
  && (not t.versioned)
  && match t.ttl with None -> true | Some ttl -> now -. e.finish > ttl

let apply_delta t ~source ~now ~version ~patch =
  let sid = Intern.intern t.keys (Value.String source) in
  (* Dead entries of every source go first: they would only be patched
     for nothing (re-parsing their conditions) and pile up otherwise. *)
  let dead_keys, hits =
    Hashtbl.fold
      (fun ((s, _) as key) e (dead_keys, hits) ->
        if dead t ~now e then (key :: dead_keys, hits)
        else if s = sid then (dead_keys, (key, e) :: hits)
        else (dead_keys, hits))
      t.table ([], [])
  in
  List.iter
    (fun key ->
      t.expirations <- t.expirations + 1;
      Hashtbl.remove t.table key)
    dead_keys;
  List.iter
    (fun (((_, cid) as key), e) ->
      if e.finish > now then begin
        (* Still in flight: the pending answer was computed against the
           pre-delta base; joining it would hand out stale data. *)
        t.invalidated <- t.invalidated + 1;
        Hashtbl.remove t.table key
      end
      else
        let cond =
          match Intern.value t.keys cid with
          | Value.String c -> c
          | v -> Value.to_string v
        in
        match patch ~cond e.answer with
        | Some answer ->
          t.patched <- t.patched + 1;
          Hashtbl.replace t.table key { e with answer; version }
        | None ->
          t.invalidated <- t.invalidated + 1;
          Hashtbl.remove t.table key)
    hits

let publish_metrics t =
  Fusion_obs.Metrics.record (fun r ->
      let p = t.published in
      let c name now last =
        if now > last then
          Fusion_obs.Metrics.incr r ~by:(float_of_int (now - last)) name
      in
      let s = stats t in
      c "fusion_cache_lookups_total" s.lookups p.lookups;
      c "fusion_cache_inflight_hits_total" s.inflight_hits p.inflight_hits;
      c "fusion_cache_cached_hits_total" s.cached_hits p.cached_hits;
      c "fusion_cache_lookup_misses_total"
        (s.lookups - s.inflight_hits - s.cached_hits)
        (p.lookups - p.inflight_hits - p.cached_hits);
      c "fusion_cache_expired_total" s.expirations p.expirations;
      c "fusion_cache_invalidated_total" s.invalidated p.invalidated;
      c "fusion_cache_patched_total" s.patched p.patched;
      t.published <- s)

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "%d lookups: %d joined in flight, %d cached (mean staleness %.1f, max %.1f), %d expired, %d invalidated, %d patched"
    s.lookups s.inflight_hits s.cached_hits
    (if s.cached_hits > 0 then s.staleness_sum /. float_of_int s.cached_hits else 0.0)
    s.staleness_max s.expirations s.invalidated s.patched
