(* Trace analytics: span-tree reconstruction and critical-path
   profiling of a concurrent schedule.

   A schedule is a set of [task]s — the dispatched source queries of a
   run, with their start/finish instants, dataflow dependencies, and
   serving source. It can come straight from the live executor's
   timeline ([of_timeline]) or be rebuilt from the Step spans of a
   recorded trace ([tasks_of_spans]); either way the same analyses
   apply, so "profile the run I just did" and "profile this trace file
   from last week" are the same code path.

   The critical path is found backwards from the task that finishes
   last: a task's blocker is whatever kept it from starting earlier —
   the dependency that finished exactly at its start ([Dep]), or the
   previous request occupying its source ([Queue]). In the FIFO
   discrete-event model every task starts either at 0 or at some
   blocker's finish, so the path's durations sum to the makespan
   exactly; the property tests pin that invariant down. *)

module Sim = Fusion_net.Sim

(* --- span tree ----------------------------------------------------------- *)

type node = { span : Trace.span; children : node list }

let tree spans =
  let sorted = List.sort (fun a b -> compare a.Trace.id b.Trace.id) spans in
  let rec build parent rest =
    (* Children of [parent] among [rest] (id-ascending): a span belongs
       to the first enclosing parent; recursion consumes its subtree. *)
    match rest with
    | [] -> ([], [])
    | s :: tl ->
      if s.Trace.parent = parent then
        let children, tl = build (Some s.Trace.id) tl in
        let siblings, tl = build parent tl in
        ({ span = s; children } :: siblings, tl)
      else ([], rest)
  in
  (* Roots are spans whose parent is absent from the set (usually
     [None], but a bracketed sub-trace keeps its dangling parent ids). *)
  let ids = List.fold_left (fun acc s -> s.Trace.id :: acc) [] sorted in
  let present p = match p with None -> false | Some id -> List.mem id ids in
  let rec roots rest =
    match rest with
    | [] -> []
    | s :: tl when not (present s.Trace.parent) ->
      let children, tl = build (Some s.Trace.id) tl in
      { span = s; children } :: roots tl
    | _ :: tl -> roots tl
  in
  roots sorted

let rec flatten nodes =
  List.concat_map (fun n -> n.span :: flatten n.children) nodes

let pp_tree ppf nodes =
  let rec go indent n =
    Format.fprintf ppf "%s%a@," (String.make indent ' ') Trace.pp_span n.span;
    List.iter (go (indent + 2)) n.children
  in
  Format.fprintf ppf "@[<v>";
  List.iter (go 0) nodes;
  Format.fprintf ppf "@]"

(* --- schedules ----------------------------------------------------------- *)

type task = {
  id : int;
  server : int;
  start : float;
  finish : float;
  deps : int list;
  label : string;
  cond : int option;
}

let duration t = t.finish -. t.start

let default_label id = Printf.sprintf "task %d" id

let of_timeline ?(label = default_label) ?(cond = fun _ -> None)
    (timeline : Sim.timeline) =
  List.map
    (fun (ev : Sim.scheduled) ->
      {
        id = ev.Sim.task.Sim.id;
        server = ev.Sim.task.Sim.server;
        start = ev.Sim.start;
        finish = ev.Sim.finish;
        deps = ev.Sim.task.Sim.deps;
        label = label ev.Sim.task.Sim.id;
        cond = cond ev.Sim.task.Sim.id;
      })
    timeline.Sim.events

(* Rebuild the schedule from a recorded trace: the Step spans of a
   concurrent run carry task/server/deps/t_start/t_finish attributes
   (see Exec_async); only dispatched steps (the ones that actually
   occupied a source) become tasks. *)
let tasks_of_spans spans =
  let int_attr s key =
    match Trace.find_attr s key with Some (Trace.Int i) -> Some i | _ -> None
  in
  let float_attr s key =
    match Trace.find_attr s key with Some (Trace.Float f) -> Some f | _ -> None
  in
  let str_attr s key =
    match Trace.find_attr s key with Some (Trace.Str v) -> Some v | _ -> None
  in
  let deps_of s =
    match str_attr s "deps" with
    | None | Some "" -> Ok []
    | Some text ->
      let parts = String.split_on_char ',' text in
      List.fold_left
        (fun acc part ->
          match acc, int_of_string_opt part with
          | Ok deps, Some d -> Ok (d :: deps)
          | Ok _, None -> Error (Printf.sprintf "span %d: bad deps %S" s.Trace.id text)
          | (Error _ as e), _ -> e)
        (Ok []) parts
      |> Result.map List.rev
  in
  let rec go acc = function
    | [] -> Ok (List.sort (fun a b -> compare a.id b.id) acc)
    | s :: rest -> (
      match s.Trace.kind, int_attr s "task" with
      | Trace.Step, Some id
        when (match Trace.find_attr s "dispatched" with
             | Some (Trace.Bool b) -> b
             | _ -> false) -> (
        match
          (int_attr s "server", float_attr s "t_start", float_attr s "t_finish",
           deps_of s)
        with
        | Some server, Some start, Some finish, Ok deps ->
          let label =
            match str_attr s "dst" with
            | Some dst -> Printf.sprintf "%s := %s" dst s.Trace.name
            | None -> s.Trace.name
          in
          go
            ({ id; server; start; finish; deps; label; cond = int_attr s "cond" }
            :: acc)
            rest
        | None, _, _, _ ->
          Error (Printf.sprintf "span %d: task without a server attr" s.Trace.id)
        | _, None, _, _ | _, _, None, _ ->
          Error (Printf.sprintf "span %d: task without t_start/t_finish" s.Trace.id)
        | _, _, _, (Error _ as e) -> e)
      | _ -> go acc rest)
  in
  go [] spans

let makespan tasks = List.fold_left (fun acc t -> Float.max acc t.finish) 0.0 tasks

(* Inverse of [of_timeline] (modulo labels), so a schedule rebuilt from
   a trace file can reuse the timeline printers ([Sim.pp_gantt]). *)
let to_timeline tasks =
  let events =
    List.map
      (fun t ->
        {
          Sim.task =
            { Sim.id = t.id; server = t.server; duration = duration t; deps = t.deps };
          start = t.start;
          finish = t.finish;
        })
      (List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) tasks)
  in
  { Sim.events; makespan = makespan tasks }

(* --- critical path ------------------------------------------------------- *)

type edge = Start | Dep of int | Queue of int

type hop = { task : task; edge : edge }

type path = { hops : hop list; total : float; makespan : float }

let critical_path tasks =
  let by_id = Hashtbl.create 16 in
  List.iter (fun t -> Hashtbl.replace by_id t.id t) tasks;
  let find id = Hashtbl.find_opt by_id id in
  let eps = 1e-9 in
  let at_finish f t = Float.abs (t.finish -. f) <= eps *. Float.max 1.0 (Float.abs f) in
  (* What kept [t] from starting earlier? A dependency finishing at its
     start beats a queue predecessor: dataflow is the structural reason,
     queueing the incidental one. *)
  let blocker t =
    let dep =
      List.find_opt
        (fun d -> match find d with Some u -> at_finish t.start u | None -> false)
        t.deps
    in
    match dep with
    | Some d -> Some (Dep d, Option.get (find d))
    | None ->
      List.fold_left
        (fun acc u ->
          if u.id <> t.id && u.server = t.server && at_finish t.start u then
            match acc with
            | Some (_, prev) when prev.id >= u.id -> acc
            | _ -> Some (Queue u.id, u)
          else acc)
        None tasks
  in
  let last =
    List.fold_left
      (fun acc t ->
        match acc with
        | Some best when best.finish > t.finish
                         || (best.finish = t.finish && best.id < t.id) -> acc
        | _ -> Some t)
      None tasks
  in
  match last with
  | None -> { hops = []; total = 0.0; makespan = 0.0 }
  | Some last ->
    let rec walk t acc =
      if t.start <= eps then { task = t; edge = Start } :: acc
      else
        match blocker t with
        | Some (edge, u) -> walk u ({ task = t; edge } :: acc)
        | None ->
          (* No blocker at exactly [start]: a gap (shouldn't happen in
             the FIFO model, but a hand-edited trace can produce one).
             End the chain here rather than inventing an edge. *)
          { task = t; edge = Start } :: acc
    in
    let hops = walk last [] in
    {
      hops;
      total = List.fold_left (fun acc h -> acc +. duration h.task) 0.0 hops;
      makespan = last.finish;
    }

(* --- per-source breakdown ------------------------------------------------ *)

type source_load = {
  server : int;
  requests : int;
  busy : float;
  utilization : float;
  queue_wait : float;
  on_path : float;
}

let source_loads tasks =
  let horizon = makespan tasks in
  let by_id = Hashtbl.create 16 in
  List.iter (fun t -> Hashtbl.replace by_id t.id t) tasks;
  let ready t =
    List.fold_left
      (fun acc d ->
        match Hashtbl.find_opt by_id d with
        | Some u -> Float.max acc u.finish
        | None -> acc)
      0.0 t.deps
  in
  let path = critical_path tasks in
  let on_path server =
    List.fold_left
      (fun acc h -> if h.task.server = server then acc +. duration h.task else acc)
      0.0 path.hops
  in
  let servers =
    List.sort_uniq compare (List.map (fun (t : task) -> t.server) tasks)
  in
  List.map
    (fun server ->
      let mine = List.filter (fun (t : task) -> t.server = server) tasks in
      let busy = List.fold_left (fun acc t -> acc +. duration t) 0.0 mine in
      let queue_wait =
        List.fold_left (fun acc t -> acc +. Float.max 0.0 (t.start -. ready t)) 0.0 mine
      in
      {
        server;
        requests = List.length mine;
        busy;
        utilization = (if horizon > 0.0 then busy /. horizon else 0.0);
        queue_wait;
        on_path = on_path server;
      })
    servers

(* --- blame attribution --------------------------------------------------- *)

type blame = { key : string; busy : float; share : float; hops : int }

let blame_by key path =
  let total = path.total in
  let rec add acc k d =
    match acc with
    | [] -> [ (k, (d, 1)) ]
    | (k', (d', n)) :: rest when k' = k -> (k', (d' +. d, n + 1)) :: rest
    | entry :: rest -> entry :: add rest k d
  in
  let grouped =
    List.fold_left
      (fun acc h ->
        match key h.task with
        | Some k -> add acc k (duration h.task)
        | None -> acc)
      [] path.hops
  in
  List.sort
    (fun a b -> compare b.busy a.busy)
    (List.map
       (fun (key, (busy, hops)) ->
         { key; busy; share = (if total > 0.0 then busy /. total else 0.0); hops })
       grouped)

let blame_sources ?(name = fun j -> Printf.sprintf "R%d" (j + 1)) path =
  blame_by (fun t -> Some (name t.server)) path

let blame_conds path =
  blame_by (fun t -> Option.map (fun c -> Printf.sprintf "c%d" (c + 1)) t.cond) path

(* --- printing ------------------------------------------------------------ *)

let pp_edge ppf = function
  | Start -> Format.pp_print_string ppf "start"
  | Dep id -> Format.fprintf ppf "after #%d" id
  | Queue id -> Format.fprintf ppf "queued behind #%d" id

let pp_path ?(source_name = fun j -> Printf.sprintf "R%d" (j + 1)) ppf path =
  Format.fprintf ppf "@[<v>critical path (%g of makespan %g):@," path.total path.makespan;
  List.iter
    (fun h ->
      Format.fprintf ppf "  #%-3d %-32s %-4s %8.1f ..%8.1f  (%s)@," h.task.id
        h.task.label
        (source_name h.task.server)
        h.task.start h.task.finish
        (Format.asprintf "%a" pp_edge h.edge))
    path.hops;
  Format.fprintf ppf "@]"
