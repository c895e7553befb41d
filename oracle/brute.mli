(** Exhaustive enumeration of the semijoin-adaptive plan space, for tiny
    instances only. Validates the paper's optimality claims: SJA's
    output must match the enumeration's best estimated cost, and on
    independent data its plan should be close to the best {e actual}
    execution cost in the space (experiment X7). *)

open Fusion_plan
open Fusion_core

val space_size : m:int -> n:int -> int
(** [m! · 2^(n·(m-1))] — raises [Invalid_argument] when it exceeds
    2^24 (the enumeration would be unreasonable). *)

val enumerate : Opt_env.t -> (Plan.t * float) list
(** Every round-shaped plan (all orderings × all per-(condition, source)
    decisions) with its estimated cost under the environment's
    recurrence. @raise Invalid_argument on oversized instances. *)

val best_estimated : Opt_env.t -> Plan.t * float

val best_actual : Opt_env.t -> Plan.t * float
(** Executes every plan in the space against the live sources and
    returns the one with the smallest {e actual} cost. Meters are left
    reset. Skips plans whose execution is unsupported (e.g. semijoins at
    incapable sources). *)
