(** Trace analytics: span-tree reconstruction and critical-path
    profiling of a concurrent schedule.

    A schedule is a set of {!task}s — the dispatched source queries of
    a run with start/finish instants, dataflow dependencies and serving
    source — obtained either live from the executor's timeline
    ({!of_timeline}) or from the Step spans of a recorded trace
    ({!tasks_of_spans}). The {!critical_path} is the chain of tasks
    whose durations sum to the makespan: each hop starts exactly when
    its blocker — a dataflow dependency or the previous request
    occupying the same source — finishes. *)

(** {2 Span tree} *)

type node = { span : Trace.span; children : node list }

val tree : Trace.span list -> node list
(** Roots (spans whose parent is absent from the set) with their
    subtrees; children in id (= opening) order. *)

val flatten : node list -> Trace.span list
(** Pre-order traversal. Because ids are assigned in opening order,
    this is exactly the spans sorted by id; [flatten (tree spans)]
    re-exports byte-identically for id-sorted input. *)

val pp_tree : Format.formatter -> node list -> unit

(** {2 Schedules} *)

type task = {
  id : int;  (** dataflow node id (position among the plan's source queries) *)
  server : int;  (** source index *)
  start : float;
  finish : float;
  deps : int list;  (** dataflow dependencies (task ids) *)
  label : string;
  cond : int option;  (** condition index, for selections/semijoins *)
}

val duration : task -> float

val of_timeline :
  ?label:(int -> string) -> ?cond:(int -> int option) ->
  Fusion_net.Sim.timeline -> task list
(** One task per dispatched event; [label]/[cond] decorate task ids
    with plan information (see {!Fusion_plan.Plan_compile.dataflow}). *)

val tasks_of_spans : Trace.span list -> (task list, string) result
(** Rebuilds the schedule from a recorded trace: Step spans marked
    [dispatched] carrying [task]/[server]/[deps]/[t_start]/[t_finish]
    attributes (written by {!Fusion_plan.Exec_async}), in id order.
    Errors on structurally broken attributes. *)

val makespan : task list -> float

val to_timeline : task list -> Fusion_net.Sim.timeline
(** Inverse of {!of_timeline} (modulo labels): events in start order,
    so a schedule rebuilt from a trace file can reuse the timeline
    printers ({!Fusion_net.Sim.pp_gantt}). *)

(** {2 Critical path} *)

(** Why a hop could not start earlier: first task of the schedule, a
    dataflow dependency, or FIFO queueing behind another request at the
    same source. *)
type edge = Start | Dep of int | Queue of int

type hop = { task : task; edge : edge }

type path = {
  hops : hop list;  (** in schedule order; each starts when its blocker finishes *)
  total : float;  (** sum of hop durations = the makespan *)
  makespan : float;
}

val critical_path : task list -> path
(** Walks back from the last-finishing task. On an empty schedule the
    path is empty with total 0. *)

(** {2 Per-source breakdown} *)

type source_load = {
  server : int;
  requests : int;  (** dispatched requests served *)
  busy : float;  (** total service time *)
  utilization : float;  (** busy / makespan *)
  queue_wait : float;
      (** total time requests sat ready but waiting for the source *)
  on_path : float;  (** service time on the critical path *)
}

val source_loads : task list -> source_load list
(** One entry per source that served work, in source order. *)

(** {2 Blame attribution} *)

type blame = {
  key : string;
  busy : float;  (** critical-path time attributed to the key *)
  share : float;  (** fraction of the path total *)
  hops : int;
}

val blame_by : (task -> string option) -> path -> blame list
(** Groups the path's hops by an arbitrary key (tasks mapping to [None]
    are unattributed), largest share first. *)

val blame_sources : ?name:(int -> string) -> path -> blame list
(** Blame per source (default names [R1], [R2], ...). *)

val blame_conds : path -> blame list
(** Blame per condition ([c1], [c2], ...); loads carry no condition and
    are unattributed. *)

val pp_path : ?source_name:(int -> string) -> Format.formatter -> path -> unit
