(* X16 — extension: multi-query serving under overload.

   One shared simulated network, many concurrent fusion queries
   (lib/serve). A heavy tenant floods the server well past saturation
   while two light tenants trickle; we compare scheduling policies on
   what each tenant actually gets. Goodput is SLO-goodput: completions
   that respond within a few multiples of a lone query's latency.
   Under FIFO the flood's requests queue ahead of everyone — a light
   query waits out the whole heavy backlog and blows its SLO. Fair
   share schedules the tenant that has consumed the least service
   first, so the light tenants ride through the flood.

   A second sweep drives offered load from half to 8x saturation with
   a response-time deadline on every query: admission control sheds
   queries whose deadline cannot survive the backlog, and shed rate /
   p99 are the operator-facing signals. Percentiles come from
   Obs.Summary; the run records Metrics counters and prints their
   Prometheus exposition. *)

open Fusion_core
module Workload = Fusion_workload.Workload
module Prng = Fusion_stats.Prng
module Serve = Fusion_serve.Server
module Driver = Fusion_serve.Driver
module Summary = Fusion_obs.Summary
module Metrics = Fusion_obs.Metrics
module Prom = Fusion_obs.Prom

let instance =
  lazy
    (Workload.generate
       {
         Workload.default_spec with
         Workload.n_sources = 5;
         universe = 2000;
         tuples_per_source = (300, 500);
         selectivities = [| 0.1; 0.3 |];
         seed = 1606;
       })

let optimize inst =
  let env = Opt_env.create inst.Workload.sources inst.Workload.query in
  (env, Optimizer.optimize Optimizer.Sja_plus env)

let job_of ?deadline env (optimized : Optimized.t) ~tenant ~priority =
  {
    Serve.plan = optimized.Optimized.plan;
    conds = env.Opt_env.conds;
    tenant;
    priority;
    est_cost = optimized.Optimized.est_cost;
    deadline;
    label = "";
  }

(* Response time of the query with the whole network to itself — the
   yardstick for saturation and for the SLO. *)
let lone_latency inst env optimized =
  let srv = Serve.create inst.Workload.sources in
  let completions = Driver.collect srv in
  ignore (Serve.submit srv ~at:0.0 (job_of env optimized ~tenant:"solo" ~priority:0));
  Serve.drain srv;
  match completions () with
  | [ c ] -> c.Serve.c_response
  | _ -> failwith "x16: lone query did not complete"

(* One serving run: a heavy tenant flooding at [heavy_rate] arrivals
   per unit time plus two light tenants trickling through the same
   window, all Poisson, drained to completion; the server and its
   completions. *)
let run_policy ~policy ~heavy_rate ~light_rate ~heavy_n ~light_n inst env optimized =
  let srv = Serve.create ~policy ~max_inflight:32 inst.Workload.sources in
  let completions = Driver.collect srv in
  let submit_stream seed rate n tenant priority =
    let prng = Prng.create seed in
    let at = ref 0.0 in
    for _ = 1 to n do
      at := !at +. Prng.exponential prng rate;
      ignore (Serve.submit srv ~at:!at (job_of env optimized ~tenant ~priority))
    done
  in
  submit_stream 1 heavy_rate heavy_n "heavy" 0;
  submit_stream 2 light_rate light_n "light1" 1;
  submit_stream 3 light_rate light_n "light2" 1;
  Serve.drain srv;
  (srv, completions ())

(* Completions within the SLO, per tenant. *)
let on_time (_, completions) ~slo tenant =
  List.length
    (List.filter
       (fun (c : Serve.completion) ->
         c.Serve.c_job.Serve.tenant = tenant && c.Serve.c_response <= slo)
       completions)

(* compare.exe keys rows by their first cell, so the label fuses
   policy and tenant. *)
let tenant_rows policy ((srv, _) as run) ~slo =
  List.map
    (fun (name, ts) ->
      let p = Summary.latency_percentiles ts.Serve.ts_summary in
      [
        Serve.policy_name policy ^ "/" ^ name;
        Tables.i ts.Serve.ts_submitted;
        Tables.i ts.Serve.ts_completed;
        Tables.i ts.Serve.ts_shed;
        Tables.i (on_time run ~slo name);
        Tables.f1 p.Summary.p50;
        Tables.f1 p.Summary.p99;
      ])
    (Serve.tenants srv)

(* Share of a tenant's submissions that completed within the SLO. *)
let on_time_rate ((srv, _) as run) ~slo name =
  match List.assoc_opt name (Serve.tenants srv) with
  | Some ts ->
    float_of_int (on_time run ~slo name)
    /. float_of_int (max 1 ts.Serve.ts_submitted)
  | None -> 0.0

let run () =
  let inst = Lazy.force instance in
  let env, optimized = optimize inst in
  let registry = Metrics.create () in
  Metrics.with_registry registry (fun () ->
      let base = lone_latency inst env optimized in
      let slo = 3.0 *. base in
      (* Saturation for one query stream: one arrival per lone-query
         service time. The heavy tenant offers 6x that; each light
         tenant offers half of it, so the trickle overlaps the
         flood. *)
      let saturation = 1.0 /. base in
      Printf.printf "  lone-query latency %.1f, SLO %.1f (3x)\n" base slo;
      let policies = Serve.all_policies in
      let runs =
        List.map
          (fun policy ->
            ( policy,
              run_policy ~policy ~heavy_rate:(6.0 *. saturation)
                ~light_rate:(saturation /. 2.0) ~heavy_n:60 ~light_n:8 inst env
                optimized ))
          policies
      in
      Tables.print ~title:"x16: per-tenant service under a heavy-tenant flood"
        ~header:
          [ "policy/tenant"; "submitted"; "completed"; "shed"; "on-time"; "p50";
            "p99" ]
        (List.concat_map (fun (policy, srv) -> tenant_rows policy srv ~slo) runs);
      (* The light tenants offer a small fraction of capacity, so any
         isolating policy should serve them near their lone-query
         latency no matter what the heavy tenant does. FIFO instead
         makes them wait out the flood's backlog. *)
      Tables.print
        ~title:"x16: tenant isolation (light tenants through the flood)"
        ~header:
          [ "policy"; "light on-time %"; "light p99 / lone"; "heavy on-time %" ]
        (List.map
           (fun (policy, ((srv, _) as run)) ->
             let p99 name =
               match List.assoc_opt name (Serve.tenants srv) with
               | Some ts ->
                 (Summary.latency_percentiles ts.Serve.ts_summary).Summary.p99
               | None -> 0.0
             in
             let light_rate =
               (on_time_rate run ~slo "light1" +. on_time_rate run ~slo "light2")
               /. 2.0
             in
             [
               Serve.policy_name policy;
               Tables.f1 (100.0 *. light_rate);
               Tables.f2 (Float.max (p99 "light1") (p99 "light2") /. base);
               Tables.f1 (100.0 *. on_time_rate run ~slo "heavy");
             ])
           runs);
      (* Offered-load sweep under FIFO with a deadline on every query:
         admission control sheds what the backlog makes hopeless. *)
      let deadline = 6.0 *. base in
      Tables.print
        ~title:
          (Printf.sprintf
             "x16: load sweep under fifo (deadline %.0f, 32 in-flight cap)"
             deadline)
        ~header:
          [ "offered/saturation"; "submitted"; "completed"; "shed rate %"; "p50";
            "p99"; "makespan" ]
        (List.map
           (fun multiplier ->
             let srv, completions =
               let s =
                 Serve.create ~policy:Serve.Fifo ~max_inflight:32
                   inst.Workload.sources
               in
               let completions = Driver.collect s in
               let prng = Prng.create 4 in
               let at = ref 0.0 in
               for _ = 1 to 60 do
                 at := !at +. Prng.exponential prng (multiplier *. saturation);
                 ignore
                   (Serve.submit s ~at:!at
                      (job_of ~deadline env optimized ~tenant:"t" ~priority:0))
               done;
               Serve.drain s;
               (s, completions ())
             in
             let stats = Serve.stats srv in
             assert (Serve.conservation_ok stats);
             let summary = Summary.create () in
             List.iter
               (fun (c : Serve.completion) ->
                 Summary.add summary ~cost:c.Serve.c_cost
                   ~response_time:c.Serve.c_response ())
               completions;
             let p = Summary.latency_percentiles summary in
             [
               Tables.f2 multiplier;
               Tables.i stats.Serve.submitted;
               Tables.i stats.Serve.completed;
               Tables.f1
                 (100.0 *. float_of_int stats.Serve.shed
                  /. float_of_int stats.Serve.submitted);
               Tables.f1 p.Summary.p50;
               Tables.f1 p.Summary.p99;
               Tables.f1 (Serve.now srv);
             ])
           [ 0.5; 1.0; 2.0; 4.0; 8.0 ]));
  (* The counters the serving layer records, as a scraper would see
     them. *)
  let exposition = Prom.of_registry registry in
  let serve_lines =
    List.filter
      (fun line ->
        String.length line >= 12
        && line.[0] <> '#'
        && String.sub line 0 12 = "fusion_serve")
      (String.split_on_char '\n' exposition)
  in
  Printf.printf "\n  prometheus exposition: %d fusion_serve_* samples, e.g.\n"
    (List.length serve_lines);
  List.iteri
    (fun i line -> if i < 4 then Printf.printf "    %s\n" line)
    (List.sort compare serve_lines)
