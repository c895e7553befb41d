(** Parallel plan replay on the discrete-event simulator.

    Replays an execution's actual step costs as service times on
    {!Fusion_net.Sim}, over the plan's real dataflow dependencies
    ({!Fusion_plan.Plan_compile.dataflow}: a source query depends on
    every earlier source query feeding its input variable, through any
    chain of free local operations). Unlike the analytic
    {!Response_time} model this works for {e any} plan — including
    SJA+ plans with difference chains and loads — and can model
    autonomous sources that serve one query at a time. *)

open Fusion_plan

val tasks_of : Plan.t -> Exec.result -> Fusion_net.Sim.task list
(** One task per source query, in operation order; task ids are the
    positions of the queries among the plan's source queries, durations
    the execution's actual step costs. *)

val simulate : ?serialize_sources:bool -> n:int -> Plan.t -> Exec.result ->
  Fusion_net.Sim.timeline
(** [serialize_sources] (default [true]): a source answers one query at
    a time; with [false], sources are infinitely concurrent and the
    makespan equals the critical path through the dataflow. [n] is the
    number of sources. *)

val makespan : ?serialize_sources:bool -> n:int -> Plan.t -> Exec.result -> float
