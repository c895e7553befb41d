(* Parallel execution timelines (the paper's Section 6 future work).

   One slow mirror among six sources. We run the FILTER, SJA and SJA-RT
   plans live on the concurrent executor (each source answers one query
   at a time, queries dispatch the moment their inputs are ready) and
   draw the Gantt chart of every plan — making the work/response
   tradeoff visible: FILTER fires everything at once and queues at the
   sources; semijoin plans serialize rounds but ship far less. *)

open Fusion_core
open Fusion_plan
module Workload = Fusion_workload.Workload
module Source = Fusion_source.Source
module Sim = Fusion_net.Sim
module Adaptive = Fusion_lab.Adaptive
module Response_opt = Fusion_lab.Response_opt

let instance_with_slow_mirror () =
  let base =
    Workload.generate
      {
        Workload.default_spec with
        Workload.n_sources = 6;
        universe = 4000;
        tuples_per_source = (400, 700);
        selectivities = [| 0.02; 0.3; 0.4 |];
        seed = 202;
      }
  in
  let sources =
    Array.mapi
      (fun j s ->
        if j = 0 then
          Source.create
            ~capability:(Source.capability s)
            ~profile:(Fusion_net.Profile.scale 5.0 (Source.profile s))
            (Source.relation s)
        else s)
      base.Workload.sources
  in
  { base with Workload.sources = sources }

let () =
  let instance = instance_with_slow_mirror () in
  let env =
    Opt_env.create ~universe:instance.Workload.spec.Workload.universe
      instance.Workload.sources instance.Workload.query
  in
  let show name optimized =
    Array.iter Source.reset_meter instance.Workload.sources;
    let result =
      Exec_async.run ~sources:instance.Workload.sources ~conds:env.Opt_env.conds
        optimized.Optimized.plan
    in
    Format.printf "=== %s: total work %.1f, makespan %.1f ===@.%a@.@." name
      result.Exec_async.total_cost result.Exec_async.makespan
      (Sim.pp_gantt ~width:64
         ~server_name:(fun j -> Source.name instance.Workload.sources.(j)))
      result.Exec_async.timeline
  in
  show "filter" (Algorithms.filter env);
  show "sja" (Algorithms.sja env);
  show "sja-rt" (Response_opt.sja_rt env);
  (* The adaptive runtime for comparison: it minimizes work but chains
     its pruned semijoins, so its critical path is the longest. *)
  let adaptive = Adaptive.run env in
  Format.printf "=== adaptive: total work %.1f, response %.1f (rounds serialize) ===@."
    adaptive.Adaptive.total_cost adaptive.Adaptive.response_time
