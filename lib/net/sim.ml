type task = { id : int; server : int; duration : float; deps : int list }

type scheduled = { task : task; start : float; finish : float }

type timeline = { events : scheduled list; makespan : float }

let timeline_of scheduled =
  let events =
    List.sort
      (fun a b ->
        match Float.compare a.start b.start with
        | 0 -> Int.compare a.task.id b.task.id
        | c -> c)
      scheduled
  in
  let makespan = List.fold_left (fun acc e -> Float.max acc e.finish) 0.0 events in
  { events; makespan }

(* The simulation is a ready-queue loop: at every step we pick, among
   ready (all deps done) unscheduled tasks, the one that can start
   earliest — ready time is the max of its deps' finishes, start time
   additionally waits for the server. FIFO per server emerges from
   processing tasks in (ready, id) order. *)
let run ~servers tasks =
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun t ->
      if t.server < 0 || t.server >= servers then
        invalid_arg (Printf.sprintf "Sim.run: task %d targets unknown server %d" t.id t.server);
      if t.duration < 0.0 then
        invalid_arg (Printf.sprintf "Sim.run: task %d has negative duration" t.id);
      if Hashtbl.mem by_id t.id then
        invalid_arg (Printf.sprintf "Sim.run: duplicate task id %d" t.id);
      Hashtbl.replace by_id t.id t)
    tasks;
  List.iter
    (fun t ->
      List.iter
        (fun d ->
          if not (Hashtbl.mem by_id d) then
            invalid_arg (Printf.sprintf "Sim.run: task %d depends on unknown task %d" t.id d))
        t.deps)
    tasks;
  let finish_times = Hashtbl.create 16 in
  let server_free = Array.make (max servers 1) 0.0 in
  let scheduled = ref [] in
  let pending = ref tasks in
  let total = List.length tasks in
  let done_count = ref 0 in
  while !pending <> [] do
    let ready, blocked =
      List.partition
        (fun t -> List.for_all (fun d -> Hashtbl.mem finish_times d) t.deps)
        !pending
    in
    if ready = [] then invalid_arg "Sim.run: cyclic dependencies";
    (* Schedule every currently ready task; their relative order is by
       (ready time, id), which gives FIFO service per server. *)
    let with_ready_time =
      List.map
        (fun t ->
          let ready_at =
            List.fold_left (fun acc d -> Float.max acc (Hashtbl.find finish_times d)) 0.0 t.deps
          in
          (ready_at, t))
        ready
    in
    let ordered =
      List.sort
        (fun (r1, t1) (r2, t2) ->
          match Float.compare r1 r2 with 0 -> Int.compare t1.id t2.id | c -> c)
        with_ready_time
    in
    List.iter
      (fun (ready_at, t) ->
        let start = Float.max ready_at server_free.(t.server) in
        let finish = start +. t.duration in
        server_free.(t.server) <- finish;
        Hashtbl.replace finish_times t.id finish;
        scheduled := { task = t; start; finish } :: !scheduled;
        incr done_count)
      ordered;
    pending := blocked
  done;
  assert (!done_count = total);
  timeline_of !scheduled

let pp_gantt ?(width = 60) ?(server_name = fun j -> Printf.sprintf "R%d" (j + 1)) ppf t =
  if t.makespan <= 0.0 then Format.fprintf ppf "(empty timeline)"
  else begin
    let servers =
      List.sort_uniq compare (List.map (fun e -> e.task.server) t.events)
    in
    let column time = int_of_float (time /. t.makespan *. float_of_int (width - 1)) in
    Format.fprintf ppf "@[<v>";
    List.iter
      (fun server ->
        let lane = Bytes.make width ' ' in
        let mine = List.filter (fun e -> e.task.server = server) t.events in
        (* idle gaps between consecutive tasks *)
        let rec gaps = function
          | a :: (b :: _ as rest) ->
            for c = column a.finish to column b.start do
              if c >= 0 && c < width then Bytes.set lane c '-'
            done;
            gaps rest
          | _ -> ()
        in
        gaps mine;
        List.iter
          (fun e ->
            for c = column e.start to max (column e.start) (column e.finish - 1) do
              if c >= 0 && c < width then Bytes.set lane c '#'
            done)
          mine;
        Format.fprintf ppf "%-12s |%s| %d tasks@," (server_name server)
          (Bytes.to_string lane) (List.length mine))
      servers;
    Format.fprintf ppf "makespan: %.1f@]" t.makespan
  end
