(* X17 — the dictionary-encoded data plane, measured.

   Micro: union/inter/diff/subset over the flat Item_set (sorted id
   arrays / bitsets over an Intern scope) against the historical
   Set.Make reference (Item_set_ref), at varying cardinalities, in both
   a sparse shape (ids spread 16x apart — stays in the array form) and
   a dense shape (contiguous ids — takes the bitset form). Probe and
   construction micro-benchmarks ride along, informational.

   Macro: an x15-style mediator query (sequential + concurrent) and an
   x16-style serving drain, recording only simulation-deterministic
   cells (cardinalities, costs, completion counts) — wall-clock numbers
   are printed but never recorded, so the committed baseline gates
   correctness and the speedup claims, not this machine's clock.

   The recorded claims table asserts the tentpole's bar: every set
   kernel at cardinality >= 10^4 runs >= 2x faster than the reference.
   Timings for smaller cardinalities are printed for context only. *)

open Fusion_data
open Fusion_core
module Workload = Fusion_workload.Workload
module Mediator = Fusion_mediator.Mediator
module Serve = Fusion_serve.Server
module Driver = Fusion_serve.Driver
module Prng = Fusion_stats.Prng
module Item_set_ref = Fusion_oracle.Item_set_ref

(* --- deterministic input shapes ---------------------------------------- *)

(* Ints with stride 16 and a per-position jitter: distinct, and sparse
   enough (spread 16 > bits_max_spread) to stay in the array form. *)
let sparse_values lo n =
  List.init n (fun i ->
      let k = lo + i in
      Value.Int ((k * 16) + (k * 7 mod 8)))

(* A contiguous run: span = cardinality, so the set goes to bits. *)
let dense_values lo n = List.init n (fun i -> Value.Int (lo + i))

(* A/B pairs overlapping on half their elements. *)
let ab_pair shape n =
  let make lo = match shape with `Sparse -> sparse_values lo n | `Dense -> dense_values lo n in
  (make 0, make (n / 2))

(* --- timing ------------------------------------------------------------- *)

let time_ns iters f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int iters

let shape_name = function `Sparse -> "sparse" | `Dense -> "dense"

let cards = [ 1_000; 10_000; 100_000 ]

let run_micro () =
  let claims = ref [] in
  Printf.printf "\n  raw kernel timings (ns/op; flat vs Set.Make reference)\n";
  Printf.printf "  %-22s %12s %12s %9s\n" "op" "flat" "reference" "speedup";
  List.iter
    (fun card ->
      let iters = max 3 (300_000 / card) in
      List.iter
        (fun shape ->
          let va, vb = ab_pair shape card in
          let tbl = Intern.create ~name:"x17" () in
          let fa = Item_set.of_list_in tbl va and fb = Item_set.of_list_in tbl vb in
          let ra = Item_set_ref.of_list va and rb = Item_set_ref.of_list vb in
          let ops =
            [
              ( "union",
                (fun () -> ignore (Item_set.union fa fb)),
                (fun () -> ignore (Item_set_ref.union ra rb)),
                Item_set.cardinal (Item_set.union fa fb),
                Item_set_ref.cardinal (Item_set_ref.union ra rb) );
              ( "inter",
                (fun () -> ignore (Item_set.inter fa fb)),
                (fun () -> ignore (Item_set_ref.inter ra rb)),
                Item_set.cardinal (Item_set.inter fa fb),
                Item_set_ref.cardinal (Item_set_ref.inter ra rb) );
              ( "diff",
                (fun () -> ignore (Item_set.diff fa fb)),
                (fun () -> ignore (Item_set_ref.diff ra rb)),
                Item_set.cardinal (Item_set.diff fa fb),
                Item_set_ref.cardinal (Item_set_ref.diff ra rb) );
              (* A true subset (A ∩ B ⊆ A) forces the kernel to verify
                 every element; the A ⊆ B case exits on the first gap. *)
              ( "subset",
                (let fsub = Item_set.inter fa fb in
                 fun () -> ignore (Item_set.subset fsub fa)),
                (let rsub = Item_set_ref.inter ra rb in
                 fun () -> ignore (Item_set_ref.subset rsub ra)),
                (if Item_set.subset (Item_set.inter fa fb) fa then 1 else 0),
                if Item_set_ref.subset (Item_set_ref.inter ra rb) ra then 1 else 0 );
            ]
          in
          List.iter
            (fun (op, flat, reference, flat_card, ref_card) ->
              let t_flat = time_ns iters flat in
              let t_ref = time_ns iters reference in
              let speedup = t_ref /. Float.max t_flat 1.0 in
              let label = Printf.sprintf "%s %s @%d" op (shape_name shape) card in
              Printf.printf "  %-22s %12.0f %12.0f %8.1fx\n" label t_flat t_ref speedup;
              let agree = if flat_card = ref_card then "yes" else "NO" in
              let verdict =
                if card < 10_000 then "info"
                else if speedup >= 2.0 then "pass"
                else "FAIL"
              in
              claims := [ label; Tables.i flat_card; agree; verdict ] :: !claims)
            ops)
        [ `Sparse; `Dense ])
    cards;
  Tables.print ~title:"X17a: kernel claims (speedup >= 2x at card >= 10^4)"
    ~header:[ "kernel"; "result card"; "agrees"; "verdict" ]
    (List.rev !claims);
  List.for_all (fun row -> match row with [ _; _; a; v ] -> a = "yes" && v <> "FAIL" | _ -> false)
    !claims

(* --- probe and construction (informational) ----------------------------- *)

let probe_schema =
  Schema.create_exn ~merge:"M" [ ("M", Value.Tint); ("A", Value.Tint) ]

let check_ok = function Ok v -> v | Error msg -> failwith msg

let run_probe () =
  let rows = ref [] in
  List.iter
    (fun card ->
      let tbl = Intern.create ~name:"x17-probe" () in
      let relation =
        check_ok
          (Relation.of_rows ~name:"R" ~intern:tbl probe_schema
             (List.init card (fun i -> [ Value.Int (i * 2); Value.Int (i mod 100) ])))
      in
      (* Half the probes hit the relation's id space. *)
      let probe = Item_set.of_list_in tbl (List.init (card / 2) (fun i -> Value.Int i)) in
      let p tuple = match Tuple.get tuple 1 with Value.Int a -> a < 50 | _ -> false in
      let iters = max 3 (100_000 / card) in
      let t_fast = time_ns iters (fun () -> ignore (Relation.semijoin_items relation p probe)) in
      let t_value =
        time_ns iters (fun () ->
            ignore
              (Item_set.filter
                 (fun item -> List.exists p (Relation.tuples_of_item relation item))
                 probe))
      in
      let answer = Relation.semijoin_items relation p probe in
      Printf.printf "  %-22s %12.0f %12.0f %8.1fx\n"
        (Printf.sprintf "probe @%d" card)
        t_fast t_value (t_value /. Float.max t_fast 1.0);
      let t_build =
        time_ns iters (fun () -> ignore (Item_set.of_list_in tbl (dense_values 0 card)))
      in
      Printf.printf "  %-22s %12.0f (of_list, dense)\n"
        (Printf.sprintf "of_list @%d" card)
        t_build;
      rows := [ Printf.sprintf "probe @%d" card; Tables.i (Item_set.cardinal answer) ] :: !rows)
    cards;
  Tables.print ~title:"X17b: probe answers (id-keyed semijoin index)"
    ~header:[ "probe"; "answer card" ] (List.rev !rows)

(* --- macro: x15/x16-style end-to-end ------------------------------------ *)

let macro_instance =
  lazy
    (Workload.generate
       {
         Workload.default_spec with
         Workload.n_sources = 6;
         universe = 4000;
         tuples_per_source = (400, 700);
         selectivities = [| 0.05; 0.25; 0.4 |];
         seed = 1717;
       })

let run_macro () =
  let instance = Lazy.force macro_instance in
  let t0 = Unix.gettimeofday () in
  let mediator = Mediator.create_exn (Array.to_list instance.Workload.sources) in
  let ok = function Ok r -> r | Error msg -> failwith msg in
  let par = ok (Mediator.run mediator instance.Workload.query) in
  (* The seq row: the reference interpreter, one step at a time, on the
     plan the mediator chose. *)
  let seq =
    let p = ok (Mediator.plan_for mediator instance.Workload.query) in
    Array.iter Fusion_source.Source.reset_meter instance.Workload.sources;
    Fusion_plan.Exec.run ~sources:instance.Workload.sources ~conds:p.Mediator.prep_conds
      p.Mediator.prep_optimized.Optimized.plan
  in
  if not (Item_set.equal seq.Fusion_plan.Exec.answer par.Mediator.answer) then
    failwith "x17 macro: concurrent executor changed the answer";
  (* x16-style: a serving drain over the same sources. *)
  let env = Opt_env.create instance.Workload.sources instance.Workload.query in
  let optimized = Optimizer.optimize Optimizer.Sja_plus env in
  let server = Serve.create ~policy:Serve.Fair_share ~cache_ttl:500.0 instance.Workload.sources in
  let completions = Driver.collect server in
  let job =
    {
      Serve.plan = optimized.Optimized.plan;
      conds = env.Opt_env.conds;
      tenant = "t";
      priority = 0;
      est_cost = optimized.Optimized.est_cost;
      deadline = None;
      label = "";
    }
  in
  Driver.open_loop server ~prng:(Prng.create 4242) ~rate:0.002 ~count:120 (fun _ -> job);
  Serve.drain server;
  let stats = Serve.stats server in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "  macro wall-clock: %.2fs (not recorded)\n" wall;
  Tables.print ~title:"X17c: end-to-end answers on the flat data plane"
    ~header:[ "scenario"; "answer card"; "cost"; "completed" ]
    [
      [
        "x15-style sja+ seq";
        Tables.i (Item_set.cardinal seq.Fusion_plan.Exec.answer);
        Tables.f1 seq.Fusion_plan.Exec.total_cost;
        "1";
      ];
      [
        "x15-style sja+ par";
        Tables.i (Item_set.cardinal par.Mediator.answer);
        Tables.f1 par.Mediator.actual_cost;
        "1";
      ];
      [
        "x16-style fair drain";
        (match completions () with
        | c :: _ -> (
          match c.Serve.c_answer with
          | Some answer -> Tables.i (Item_set.cardinal answer)
          | None -> "failed")
        | [] -> "none");
        Tables.f1
          (List.fold_left (fun acc c -> acc +. c.Serve.c_cost) 0.0 (completions ()));
        Tables.i stats.Serve.completed;
      ];
    ]

let run () =
  let ok = run_micro () in
  run_probe ();
  run_macro ();
  if not ok then begin
    Printf.printf "\nX17: kernel claims FAILED\n";
    exit 1
  end
