open Fusion_data
open Fusion_cond
open Fusion_source
module Trace = Fusion_obs.Trace

type slot = Unset | Items of Item_set.t | Loaded of Relation.t

(* The compiled local-selection scan. Steady state hits the [Some]
   branch with the same physical relation every run (Load returns the
   source's own relation object), so the condition compiles once for
   the lifetime of the compiled plan; only a `Partial-failure Load,
   which binds a fresh empty relation, recompiles. *)
type local_state = { mutable vec : Cond_vec.t option }

let local_vec state cond rel =
  match state.vec with
  | Some v when Cond_vec.relation v == rel -> v
  | _ ->
    let v = Cond_vec.compile rel cond in
    state.vec <- Some v;
    v

type cop =
  | CSelect of { dst : int; s : Source.t; cond : Cond.t; sname : string; ctext : string }
  | CSemijoin of {
      dst : int;
      s : Source.t;
      cond : Cond.t;
      input : int;
      sname : string;
      ctext : string;
    }
  | CLoad of { dst : int; s : Source.t }
  | CLocal of { dst : int; cond : Cond.t; input : int; state : local_state }
  | CUnion of { dst : int; args : int array }
  | CInter of { dst : int; args : int array }
  | CDiff of { dst : int; left : int; right : int }

type t = {
  plan : Plan.t;
  sources : Source.t array;
  ops : Op.t array; (* plan order; kept for steps and trace parity *)
  cops : cop array; (* same order, variables resolved to slots *)
  out : int;
  nodes : (Op.t * int * int list) array; (* dataflow table of the source queries *)
  slots : slot array; (* run-to-run scratch: makes a value non-reentrant *)
}

let plan t = t.plan
let sources t = t.sources
let ops t = t.ops
let cops t = t.cops
let output t = t.out
let nslots t = Array.length t.slots
let nodes t = t.nodes
let scan state cond rel = Cond_vec.select_items (local_vec state cond rel)

module Int_set = Set.Make (Int)

(* Dependencies of each variable's value, as the set of task ids whose
   completion makes the value available. Local operations are free and
   merely merge the dependencies of their inputs. *)
let dataflow plan =
  let var_deps : (string, Int_set.t) Hashtbl.t = Hashtbl.create 16 in
  let deps_of var = Option.value ~default:Int_set.empty (Hashtbl.find_opt var_deps var) in
  let next_task = ref 0 in
  let nodes = ref [] in
  List.iter
    (fun op ->
      let input_deps =
        List.fold_left (fun acc v -> Int_set.union acc (deps_of v)) Int_set.empty (Op.uses op)
      in
      match op with
      | Op.Select { dst; source; _ } | Op.Semijoin { dst; source; _ }
      | Op.Load { dst; source; _ } ->
        let id = !next_task in
        incr next_task;
        nodes := (op, source, Int_set.elements input_deps) :: !nodes;
        Hashtbl.replace var_deps dst (Int_set.singleton id)
      | Op.Local_select { dst; _ } | Op.Union { dst; _ } | Op.Inter { dst; _ }
      | Op.Diff { dst; _ } ->
        Hashtbl.replace var_deps dst input_deps)
    (Plan.ops plan);
  List.rev !nodes

let compile ~sources ~conds p =
  match Plan.validate ~m:(Array.length conds) ~n:(Array.length sources) p with
  | Error e -> Error e
  | Ok () ->
    let slot_ids = Hashtbl.create 16 in
    let nslots = ref 0 in
    (* One slot per variable name: rebinding reuses the slot, so reads
       always see the latest binding, exactly like the interpreter's
       name -> binding table. *)
    let slot var =
      match Hashtbl.find_opt slot_ids var with
      | Some i -> i
      | None ->
        let i = !nslots in
        incr nslots;
        Hashtbl.add slot_ids var i;
        i
    in
    let cop (op : Op.t) =
      match op with
      | Select { dst; cond = c; source = j } ->
        let s = sources.(j) and cond = conds.(c) in
        CSelect
          { dst = slot dst; s; cond; sname = Source.name s; ctext = Cond.to_string cond }
      | Semijoin { dst; cond = c; source = j; input } ->
        let s = sources.(j) and cond = conds.(c) in
        let input = slot input in
        CSemijoin
          {
            dst = slot dst;
            s;
            cond;
            input;
            sname = Source.name s;
            ctext = Cond.to_string cond;
          }
      | Load { dst; source = j } -> CLoad { dst = slot dst; s = sources.(j) }
      | Local_select { dst; cond = c; input } ->
        let input = slot input in
        CLocal { dst = slot dst; cond = conds.(c); input; state = { vec = None } }
      | Union { dst; args } ->
        let args = Array.of_list (List.map slot args) in
        CUnion { dst = slot dst; args }
      | Inter { dst; args } ->
        let args = Array.of_list (List.map slot args) in
        CInter { dst = slot dst; args }
      | Diff { dst; left; right } ->
        CDiff { dst = slot dst; left = slot left; right = slot right }
    in
    let ops = Array.of_list (Plan.ops p) in
    let cops = Array.map cop ops in
    let out = slot (Plan.output p) in
    let nodes = Array.of_list (dataflow p) in
    Ok { plan = p; sources; ops; cops; out; nodes; slots = Array.make !nslots Unset }

(* Unreachable after [Plan.validate] (which [compile] runs); kept as
   guards with the interpreter's exception type. *)
let items slots i =
  match slots.(i) with
  | Items s -> s
  | Loaded _ -> raise (Exec.Runtime_error "loaded relation used as an item set")
  | Unset -> raise (Exec.Runtime_error "undefined variable")

let loaded slots i =
  match slots.(i) with
  | Loaded r -> r
  | Items _ -> raise (Exec.Runtime_error "item set used as a loaded relation")
  | Unset -> raise (Exec.Runtime_error "undefined variable")

let items_of_args slots args = Array.to_list (Array.map (items slots) args)

let exec ?(policy = Exec.default_policy) ~record_steps t =
  let { Exec.retries; on_exhausted } = policy in
  Array.fill t.slots 0 (Array.length t.slots) Unset;
  let failures = ref 0 in
  let partial = ref false in
  let metered_cost () =
    Array.fold_left
      (fun acc s -> acc +. (Source.totals s).Fusion_net.Meter.cost)
      0.0 t.sources
  in
  let exec_cop cop =
    match cop with
    | CSelect { dst; s; cond; _ } ->
      let answer, cost = Source.select_query s cond in
      t.slots.(dst) <- Items answer;
      (cost, Item_set.cardinal answer)
    | CSemijoin { dst; s; cond; input; _ } ->
      let answer, cost = Source.semijoin_query s cond (items t.slots input) in
      t.slots.(dst) <- Items answer;
      (cost, Item_set.cardinal answer)
    | CLoad { dst; s } ->
      let relation, cost = Source.load_query s in
      t.slots.(dst) <- Loaded relation;
      (cost, Relation.cardinality relation)
    | CLocal { dst; cond; input; state } ->
      let answer = scan state cond (loaded t.slots input) in
      t.slots.(dst) <- Items answer;
      (0.0, Item_set.cardinal answer)
    | CUnion { dst; args } ->
      let answer = Item_set.union_list (items_of_args t.slots args) in
      t.slots.(dst) <- Items answer;
      (0.0, Item_set.cardinal answer)
    | CInter { dst; args } ->
      let answer = Item_set.inter_list (items_of_args t.slots args) in
      t.slots.(dst) <- Items answer;
      (0.0, Item_set.cardinal answer)
    | CDiff { dst; left; right } ->
      let answer = Item_set.diff (items t.slots left) (items t.slots right) in
      t.slots.(dst) <- Items answer;
      (0.0, Item_set.cardinal answer)
  in
  (* Same retry protocol as the interpreter: source queries retry on
     timeouts, the step cost is the meter delta (failed attempts'
     overhead included), and `Partial binds a harmless empty value. *)
  let exec_with_retries op cop =
    if not (Op.is_source_query op) then exec_cop cop
    else begin
      let before = metered_cost () in
      let rec attempt budget =
        match exec_cop cop with
        | _, result_size -> Some result_size
        | exception Source.Timeout _ ->
          incr failures;
          if budget > 0 then attempt (budget - 1)
          else if on_exhausted = `Fail then raise (Source.Timeout (Op.dst op))
          else begin
            partial := true;
            (match cop with
            | CSelect { dst; _ } | CSemijoin { dst; _ } ->
              t.slots.(dst) <- Items Item_set.empty
            | CLoad { dst; s } ->
              t.slots.(dst) <-
                Loaded (Relation.create ~name:(Source.name s) (Source.schema s))
            | _ -> assert false);
            None
          end
      in
      let result_size = attempt retries in
      (metered_cost () -. before, Option.value ~default:0 result_size)
    end
  in
  let steps = ref [] in
  let total = ref 0.0 in
  let n = Array.length t.ops in
  for k = 0 to n - 1 do
    let op = t.ops.(k) in
    let cost, result_size =
      Trace.span Trace.Step (Op.name op) (fun ctx ->
          let failures_before = !failures in
          let cost, result_size = exec_with_retries op t.cops.(k) in
          if Trace.active ctx then begin
            Trace.attrs ctx
              [
                ("dst", Trace.Str (Op.dst op));
                ("cost", Trace.Float cost);
                ("result_size", Trace.Int result_size);
              ];
            if !failures > failures_before then
              Trace.attr ctx "timeouts" (Trace.Int (!failures - failures_before))
          end;
          (cost, result_size))
    in
    total := !total +. cost;
    if record_steps then steps := { Exec.op; cost; result_size } :: !steps
  done;
  {
    Exec.answer = items t.slots t.out;
    steps = List.rev !steps;
    total_cost = !total;
    failures = !failures;
    partial = !partial;
  }

let run ?policy t = exec ?policy ~record_steps:true t

let answer ?policy t = (exec ?policy ~record_steps:false t).Exec.answer
