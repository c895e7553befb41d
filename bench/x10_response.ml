(* X10 — extension: total work vs response time (the paper's Section 6
   future work).

   Under the parallel execution model every selection starts at time
   zero while semijoins wait for their input round. Filter plans finish
   in one network round trip; semijoin plans serialize rounds to save
   transfer. We measure both metrics for the work-optimal plans
   (FILTER/SJ/SJA) and the response-time optimizer (SJA-RT), in a world
   with one slow mirror that stretches the critical path. *)

open Fusion_core
open Fusion_plan
module Workload = Fusion_workload.Workload
module Source = Fusion_source.Source
module Adaptive = Fusion_lab.Adaptive
module Parallel_exec = Fusion_lab.Parallel_exec
module Response_opt = Fusion_lab.Response_opt
module Response_time = Fusion_lab.Response_time

let instance_with_slow_mirror seed =
  let base =
    Workload.generate
      {
        Workload.default_spec with
        Workload.n_sources = 6;
        universe = 4000;
        tuples_per_source = (400, 700);
        selectivities = [| 0.02; 0.3; 0.4 |];
        seed;
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

let measure instance optimized =
  let result = Runner.execute instance optimized.Optimized.plan in
  let n = Array.length instance.Workload.sources in
  let response =
    match Response_time.of_result ~n optimized.Optimized.plan result with
    | Some r -> r
    | None -> Response_time.sequential result
  in
  (* The discrete-event simulator adds per-source serialization: an
     autonomous source answers one query at a time. *)
  let serialized =
    Parallel_exec.makespan ~serialize_sources:true ~n optimized.Optimized.plan result
  in
  (result.Exec.total_cost, response, serialized)

let run () =
  let strategies =
    [
      ("filter", fun env -> Algorithms.filter env);
      ("sj", fun env -> Algorithms.sj env);
      ("sja", fun env -> Algorithms.sja env);
      ("sja-rt", fun env -> Response_opt.sja_rt env);
    ]
  in
  let rows =
    List.map
      (fun (name, optimize) ->
        let work = ref 0.0 and response = ref 0.0 and serialized = ref 0.0 in
        List.iter
          (fun seed ->
            let instance = instance_with_slow_mirror seed in
            let env = Runner.env_of instance in
            let w, r, s = measure instance (optimize env) in
            work := !work +. w;
            response := !response +. r;
            serialized := !serialized +. s)
          Runner.seeds;
        let k = float_of_int (List.length Runner.seeds) in
        [
          name;
          Tables.f1 (!work /. k);
          Tables.f1 (!response /. k);
          Tables.f1 (!serialized /. k);
        ])
      strategies
  in
  (* The adaptive runtime (X9) as a comparison point: least work, but
     feedback and pruning serialize its execution. *)
  let adaptive_row =
    let work = ref 0.0 and response = ref 0.0 in
    List.iter
      (fun seed ->
        let instance = instance_with_slow_mirror seed in
        let env = Runner.env_of instance in
        let result = Adaptive.run env in
        work := !work +. result.Adaptive.total_cost;
        response := !response +. result.Adaptive.response_time)
      Runner.seeds;
    let k = float_of_int (List.length Runner.seeds) in
    [ "adaptive"; Tables.f1 (!work /. k); Tables.f1 (!response /. k);
      Tables.f1 (!response /. k) ]
  in
  Tables.print
    ~title:
      "X10: total work vs parallel response time, slow-mirror world (mean of 3 seeds)"
    ~header:[ "plan"; "total work"; "resp (inf conc)"; "resp (1-at-a-time)" ]
    (rows @ [ adaptive_row ])
