(** Compiled plans: the one plan form production executors run.

    [compile] specializes one optimized plan DAG
    ([Sq]/[Sjq]/[∪]/[∩]/[−]/[Load]/[Local_select]) against its sources
    and conditions: variables become integer slots in a reusable frame,
    cache keys and condition texts are rendered once, and every local
    selection becomes a {!Fusion_cond.Cond_vec} columnar scan whose
    compiled form persists across runs. Re-running the compiled plan in
    steady state allocates (almost) only the answer sets — no
    environment hashing, no per-tuple materialization, no per-run
    condition work.

    The {!Exec_async.Engine} walks the compiled form with its own slot
    frame per engine: every mediator run and every served statement
    executes there, session cache included. {!Exec} remains as the
    reference interpreter.

    [run] is a sequential walk of the same form without a cache. It
    has {!Exec.run}'s uncached observable semantics — answers, step
    list, costs, retry/partial policy, trace spans — property-tested
    equal over random plan DAGs; benchmarks use it to time the compiled
    operations in isolation. [answer] is the same walk without the
    step list.

    A compiled plan holds mutable scratch (the slot frame and scan
    buffers): run each value from one engine at a time. *)

open Fusion_data
open Fusion_cond
open Fusion_source

type t

type local_state
(** A local selection's columnar scan, compiled on first use and kept
    while the loaded relation stays the same object. *)

(** One plan operation with its variables resolved to slot indices,
    its source resolved, and its cache keys ([sname], [ctext])
    rendered. *)
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

type slot = Unset | Items of Item_set.t | Loaded of Relation.t

val dataflow : Plan.t -> (Op.t * int * int list) list
(** The plan's source-query dependency DAG, computed from the operations
    alone (no execution needed): one [(op, source, deps)] node per
    source query, in operation order. Node ids are positions in this
    list; [deps] are the ids of the source queries whose results feed
    the node's inputs through any chain of free local operations. This
    is the analysis the {!Exec_async} executor schedules from. *)

val compile :
  sources:Source.t array -> conds:Fusion_cond.Cond.t array -> Plan.t -> (t, string) result
(** Validates the plan (so slot resolution cannot fail at run time) and
    specializes it. *)

val plan : t -> Plan.t
val sources : t -> Source.t array

val run : ?policy:Exec.policy -> t -> Exec.result
(** Executes the compiled plan one operation at a time; equivalent to
    [Exec.run] without a cache on the underlying plan, sources and
    conditions. *)

val answer : ?policy:Exec.policy -> t -> Item_set.t
(** Like {!run}, returning only the answer and skipping step-list
    construction. *)

(** {2 The compiled form, for executors} *)

val ops : t -> Op.t array
(** The plan's operations, in plan order. *)

val cops : t -> cop array
(** The compiled operations, aligned with {!ops}. *)

val output : t -> int
(** The slot holding the plan's answer. *)

val nslots : t -> int
(** Size of a slot frame. *)

val nodes : t -> (Op.t * int * int list) array
(** {!dataflow} of the plan, built at compile time: one
    node per source query, in plan order. *)

val items : slot array -> int -> Item_set.t
val loaded : slot array -> int -> Relation.t
(** Read a slot of a frame. @raise Exec.Runtime_error on an unbound or
    mistyped slot, which {!compile}'s validation rules out. *)

val scan : local_state -> Cond.t -> Relation.t -> Item_set.t
(** Runs a local selection's columnar scan over the loaded relation. *)
