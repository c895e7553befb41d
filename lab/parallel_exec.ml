open Fusion_plan
module Sim = Fusion_net.Sim

let tasks_of plan (result : Exec.result) =
  if List.length (Plan.ops plan) <> List.length result.Exec.steps then
    invalid_arg "Parallel_exec: execution does not match the plan";
  let source_steps =
    List.filter (fun s -> Op.is_source_query s.Exec.op) result.Exec.steps
  in
  List.mapi
    (fun id ((_, server, deps), step) ->
      { Sim.id; server; duration = step.Exec.cost; deps })
    (List.combine (Plan_compile.dataflow plan) source_steps)

let simulate ?(serialize_sources = true) ~n plan result =
  let tasks = tasks_of plan result in
  if serialize_sources then Sim.run ~servers:n tasks
  else
    (* Give every task its own server: pure dataflow critical path. *)
    let tasks = List.map (fun t -> { t with Sim.server = t.Sim.id }) tasks in
    Sim.run ~servers:(max 1 (List.length tasks)) tasks

let makespan ?serialize_sources ~n plan result =
  (simulate ?serialize_sources ~n plan result).Sim.makespan
