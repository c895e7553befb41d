(** A small discrete-event simulator for parallel query execution.

    The mediator issues queries over the network; each source is an
    autonomous server that answers one query at a time (FIFO). A task's
    wall-clock footprint is its service duration (we reuse the cost
    model's units as time units); tasks at different sources overlap
    freely, tasks at one source queue behind each other, and a task
    cannot start before its declared dependencies have completed.

    This is the execution substrate for the paper's "response time in a
    parallel execution model" future-work direction (Section 6): the
    analytic round-by-round critical-path model of experiment X10 is the
    special case with infinitely concurrent sources. *)

type task = {
  id : int;  (** unique; used in dependencies and the timeline *)
  server : int;  (** which source serves the task *)
  duration : float;  (** service time at the source *)
  deps : int list;  (** task ids that must complete first *)
}

type scheduled = {
  task : task;
  start : float;
  finish : float;
}

type timeline = {
  events : scheduled list;  (** in start-time order *)
  makespan : float;  (** completion time of the last task *)
}

val timeline_of : scheduled list -> timeline
(** Orders scheduled tasks by start time (ties by id) and takes the
    latest finish as the makespan — for callers that collect the slots
    their runtime calls returned. *)

val run : servers:int -> task list -> timeline
(** Simulates the task set to completion. Tasks become ready the moment
    their last dependency finishes; a ready task waits for its server to
    be free and is served FIFO in ready-time order (ties broken by id —
    deterministic). [servers] bounds the valid [server] indexes.
    @raise Invalid_argument on cyclic or dangling dependencies, or
    out-of-range servers. *)

val pp_gantt : ?width:int -> ?server_name:(int -> string) -> Format.formatter ->
  timeline -> unit
(** ASCII Gantt chart, one lane per server:

    {v R1 |##########----####                    | 3 tasks
       R2 |----########                          | 2 tasks v}

    [#] marks service time, [-] idle gaps between tasks on the lane;
    [width] (default 60) is the number of columns representing the
    makespan. *)
