open Fusion_data
open Fusion_cond
open Fusion_source
module Trace = Fusion_obs.Trace
module Metrics = Fusion_obs.Metrics

type step = { op : Op.t; cost : float; result_size : int }

type result = {
  answer : Item_set.t;
  steps : step list;
  total_cost : float;
  failures : int;
  partial : bool;
}

exception Runtime_error of string

module Query_cache = struct
  type stats = { hits : int; misses : int; saved_cost : float }

  type t = {
    keys : Intern.t; (* interns source names and condition texts *)
    answers : (int * int, Item_set.t) Hashtbl.t; (* (source id, cond id) *)
    semijoins : (int * int * int, (Item_set.t * Item_set.t) list) Hashtbl.t;
        (* (source id, cond id, probe digest) -> [(probe, answer)] *)
    mutable hits : int;
    mutable misses : int;
    mutable saved_cost : float;
  }

  let create () =
    {
      keys = Intern.create ~name:"query-cache-keys" ();
      answers = Hashtbl.create 32;
      semijoins = Hashtbl.create 32;
      hits = 0;
      misses = 0;
      saved_cost = 0.0;
    }

  let clear t =
    Hashtbl.reset t.answers;
    Hashtbl.reset t.semijoins;
    t.hits <- 0;
    t.misses <- 0;
    t.saved_cost <- 0.0

  let stats t = { hits = t.hits; misses = t.misses; saved_cost = t.saved_cost }

  (* Cache keys are interned: repeated lookups for the same (source,
     cond) hash two short strings once and small ints afterwards.
     Callers pass the source name and rendered condition text, which
     compiled plans ({!Plan_compile}) render once per plan. *)
  let key t ~sname ~ctext =
    (Intern.intern t.keys (Value.String sname), Intern.intern t.keys (Value.String ctext))

  let find t ~sname ~ctext = Hashtbl.find_opt t.answers (key t ~sname ~ctext)

  let store t ~sname ~ctext answer =
    t.misses <- t.misses + 1;
    Hashtbl.replace t.answers (key t ~sname ~ctext) answer

  (* Order-independent digest of a probe set over its interned ids;
     equality is confirmed on the stored probe, so collisions only cost
     a comparison. *)
  let sjq_key t ~sname ~ctext probe =
    let sid, cid = key t ~sname ~ctext in
    (sid, cid, Item_set.hash probe)

  let find_sjq t ~sname ~ctext probe =
    match Hashtbl.find_opt t.semijoins (sjq_key t ~sname ~ctext probe) with
    | None -> None
    | Some entries ->
      List.find_map
        (fun (p, answer) -> if Item_set.equal p probe then Some answer else None)
        entries

  let store_sjq t ~sname ~ctext probe answer =
    t.misses <- t.misses + 1;
    let key = sjq_key t ~sname ~ctext probe in
    let existing = Option.value ~default:[] (Hashtbl.find_opt t.semijoins key) in
    Hashtbl.replace t.semijoins key ((probe, answer) :: existing)

  (* What the operation would have cost at the source, from its profile
     and the actual sizes involved. Mirrors the wrapper's charging: a
     semijoin ships its [probe] natively, or costs one selection per
     binding where the source only emulates semijoins. *)
  let record_hit t source ?probe answer =
    let p = Source.profile source in
    let sent = match probe with Some x -> Item_set.cardinal x | None -> 0 in
    let emulated =
      match probe with
      | Some _ -> not (Source.capability source).Capability.native_semijoin
      | None -> false
    in
    let requests =
      if emulated then
        t.saved_cost
        +. (float_of_int sent
            *. (p.Fusion_net.Profile.request_overhead +. p.Fusion_net.Profile.send_per_item))
      else
        t.saved_cost +. p.Fusion_net.Profile.request_overhead
        +. (p.Fusion_net.Profile.send_per_item *. float_of_int sent)
    in
    t.hits <- t.hits + 1;
    t.saved_cost <-
      requests
      +. (p.Fusion_net.Profile.recv_per_item *. float_of_int (Item_set.cardinal answer))

  (* Marks a cacheable step's outcome on its span and in the metrics. *)
  let outcome cache ctx hit =
    if cache <> None then begin
      Trace.attr ctx "cache" (Trace.Str (if hit then "hit" else "miss"));
      Metrics.record (fun r ->
          Metrics.incr r
            (if hit then "fusion_cache_hits_total" else "fusion_cache_misses_total"))
    end

  let hit cache ctx source ?probe answer =
    Option.iter (fun t -> record_hit t source ?probe answer) cache;
    outcome cache ctx true

  let miss cache ctx = outcome cache ctx false
end

type binding = Items of Item_set.t | Loaded of Relation.t

type policy = { retries : int; on_exhausted : [ `Fail | `Partial ] }

let default_policy = { retries = 0; on_exhausted = `Fail }

let run ?cache ?(policy = default_policy) ~sources ~conds plan =
  let { retries; on_exhausted } = policy in
  let env : (string, binding) Hashtbl.t = Hashtbl.create 16 in
  let failures = ref 0 in
  let partial = ref false in
  let metered_cost () =
    Array.fold_left
      (fun acc s -> acc +. (Source.totals s).Fusion_net.Meter.cost)
      0.0 sources
  in
  let items var =
    match Hashtbl.find_opt env var with
    | Some (Items s) -> s
    | Some (Loaded _) -> raise (Runtime_error (var ^ " is a loaded relation, not an item set"))
    | None -> raise (Runtime_error ("undefined variable " ^ var))
  in
  let loaded var =
    match Hashtbl.find_opt env var with
    | Some (Loaded r) -> r
    | Some (Items _) -> raise (Runtime_error (var ^ " is an item set, not a loaded relation"))
    | None -> raise (Runtime_error ("undefined variable " ^ var))
  in
  let source j =
    if j < 0 || j >= Array.length sources then
      raise (Runtime_error (Printf.sprintf "source index %d out of range" j));
    sources.(j)
  in
  let cond i =
    if i < 0 || i >= Array.length conds then
      raise (Runtime_error (Printf.sprintf "condition index %d out of range" i));
    conds.(i)
  in
  let exec_op ctx (op : Op.t) =
    match op with
    | Select { dst; cond = c; source = j } -> (
      let s = source j and condition = cond c in
      let sname = Source.name s and ctext = Cond.to_string condition in
      match Option.bind cache (fun t -> Query_cache.find t ~sname ~ctext) with
      | Some answer ->
        Query_cache.hit cache ctx s answer;
        Hashtbl.replace env dst (Items answer);
        (0.0, Item_set.cardinal answer)
      | None ->
        let answer, cost = Source.select_query s condition in
        Option.iter (fun t -> Query_cache.store t ~sname ~ctext answer) cache;
        Query_cache.miss cache ctx;
        Hashtbl.replace env dst (Items answer);
        (cost, Item_set.cardinal answer))
    | Semijoin { dst; cond = c; source = j; input } -> (
      let s = source j and condition = cond c in
      let sname = Source.name s and ctext = Cond.to_string condition in
      let probe = items input in
      let cached =
        match Option.bind cache (fun t -> Query_cache.find t ~sname ~ctext) with
        | Some full -> Some (Item_set.inter full probe)
        | None -> Option.bind cache (fun t -> Query_cache.find_sjq t ~sname ~ctext probe)
      in
      match cached with
      | Some answer ->
        (* Either derived from a cached selection (sjq = sq ∩ X) or an
           exact replay of a previous semijoin. *)
        Query_cache.hit cache ctx s ~probe answer;
        Hashtbl.replace env dst (Items answer);
        (0.0, Item_set.cardinal answer)
      | None ->
        let answer, cost = Source.semijoin_query s condition probe in
        Option.iter (fun t -> Query_cache.store_sjq t ~sname ~ctext probe answer) cache;
        Query_cache.miss cache ctx;
        Hashtbl.replace env dst (Items answer);
        (cost, Item_set.cardinal answer))
    | Load { dst; source = j } ->
      let relation, cost = Source.load_query (source j) in
      Hashtbl.replace env dst (Loaded relation);
      (cost, Relation.cardinality relation)
    | Local_select { dst; cond = c; input } ->
      let relation = loaded input in
      (* Interpreted row path, with attribute offsets resolved once per
         condition; [Plan_compile] is the columnar fast path. *)
      let pred = Cond.compile (Relation.schema relation) (cond c) in
      let answer = Relation.select_items relation pred in
      Hashtbl.replace env dst (Items answer);
      (0.0, Item_set.cardinal answer)
    | Union { dst; args } ->
      let answer = Item_set.union_list (List.map items args) in
      Hashtbl.replace env dst (Items answer);
      (0.0, Item_set.cardinal answer)
    | Inter { dst; args } ->
      let answer = Item_set.inter_list (List.map items args) in
      Hashtbl.replace env dst (Items answer);
      (0.0, Item_set.cardinal answer)
    | Diff { dst; left; right } ->
      let answer = Item_set.diff (items left) (items right) in
      Hashtbl.replace env dst (Items answer);
      (0.0, Item_set.cardinal answer)
  in
  (* Source queries retry on timeouts; their step cost is the meter
     delta, which includes the failed attempts' overhead. *)
  let exec_with_retries ctx (op : Op.t) =
    if not (Op.is_source_query op) then exec_op ctx op
    else begin
      let before = metered_cost () in
      let rec attempt budget =
        match exec_op ctx op with
        | _, result_size -> Some result_size
        | exception Source.Timeout _ ->
          incr failures;
          if budget > 0 then attempt (budget - 1)
          else if on_exhausted = `Fail then raise (Source.Timeout (Op.dst op))
          else begin
            partial := true;
            (* Bind a harmless empty value so the plan can continue. *)
            (match op with
            | Select { dst; _ } | Semijoin { dst; _ } ->
              Hashtbl.replace env dst (Items Item_set.empty)
            | Load { dst; source = j } ->
              Hashtbl.replace env dst
                (Loaded
                   (Relation.create
                      ~name:(Source.name sources.(j))
                      (Source.schema sources.(j))))
            | _ -> assert false);
            None
          end
      in
      let result_size = attempt retries in
      (metered_cost () -. before, Option.value ~default:0 result_size)
    end
  in
  let steps =
    List.map
      (fun op ->
        let cost, result_size =
          Trace.span Trace.Step (Op.name op) (fun ctx ->
              let failures_before = !failures in
              let cost, result_size = exec_with_retries ctx op in
              if Trace.active ctx then begin
                Trace.attrs ctx
                  [
                    ("dst", Trace.Str (Op.dst op));
                    ("cost", Trace.Float cost);
                    ("result_size", Trace.Int result_size);
                  ];
                if !failures > failures_before then
                  Trace.attr ctx "timeouts" (Trace.Int (!failures - failures_before))
              end;
              (cost, result_size))
        in
        { op; cost; result_size })
      (Plan.ops plan)
  in
  {
    answer = items (Plan.output plan);
    steps;
    total_cost = List.fold_left (fun acc s -> acc +. s.cost) 0.0 steps;
    failures = !failures;
    partial = !partial;
  }
