(* X15 — extension: concurrent execution and response time.

   The paper's optimizers minimize total work; Section 6 asks what
   changes when the mediator overlaps its source queries. One run of
   the concurrent executor reports both: the total cost (the elapsed
   time of a one-step-at-a-time execution) and the makespan on the
   discrete-event network, across source-speed heterogeneity scenarios:
   with equal sources everything is latency-bound by queueing, while a
   slow mirror shows concurrency hiding the fast sources' work behind
   the slow one's. *)

open Fusion_core
module Workload = Fusion_workload.Workload
module Source = Fusion_source.Source
module Mediator = Fusion_mediator.Mediator

let base_instance seed =
  Workload.generate
    {
      Workload.default_spec with
      Workload.n_sources = 6;
      universe = 4000;
      tuples_per_source = (400, 700);
      selectivities = [| 0.05; 0.25; 0.4 |];
      seed;
    }

(* Rescale selected sources' network profiles without touching data. *)
let with_speeds instance speed_of =
  let sources =
    Array.mapi
      (fun j s ->
        let factor = speed_of j in
        if factor = 1.0 then s
        else
          Source.create
            ~capability:(Source.capability s)
            ~profile:(Fusion_net.Profile.scale factor (Source.profile s))
            (Source.relation s))
      instance.Workload.sources
  in
  { instance with Workload.sources = sources }

let scenarios =
  [
    ("homogeneous", fun _ -> 1.0);
    ("one 5x mirror", fun j -> if j = 0 then 5.0 else 1.0);
    ("spread 1x-8x", fun j -> float_of_int (1 lsl (j mod 4)));
  ]

let algos = [ Optimizer.Filter; Optimizer.Sja; Optimizer.Sja_plus ]

let run () =
  let base = base_instance 303 in
  List.iter
    (fun (name, speed_of) ->
      let instance = with_speeds base speed_of in
      let mediator = Mediator.create_exn (Array.to_list instance.Workload.sources) in
      Printf.printf "\n  %-14s %12s %12s %9s\n" name "total cost" "makespan" "speedup";
      List.iter
        (fun algo ->
          let r =
            match
              Mediator.run
                ~config:{ Mediator.Config.default with Mediator.Config.algo }
                mediator instance.Workload.query
            with
            | Ok r -> r
            | Error msg -> failwith msg
          in
          Printf.printf "  %-14s %12.1f %12.1f %8.2fx%s\n" (Optimizer.name algo)
            r.Mediator.actual_cost r.Mediator.response_time
            (r.Mediator.actual_cost /. r.Mediator.response_time)
            (if r.Mediator.response_time < r.Mediator.actual_cost then ""
             else "  (no overlap)"))
        algos)
    scenarios
