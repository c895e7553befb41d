(** Response-time-oriented optimization (the paper's Section 6 future
    work, built on the same machinery).

    Searches the semijoin-adaptive space like SJA, but scores each
    ordering by the critical-path response time of the parallel
    execution model (see {!Response_time}) instead of total
    work. Because the per-round decision interacts with serialization
    (a semijoin delays the round behind its input; a selection runs in
    parallel from time zero), each round considers three strategies —
    all-selection, all-semijoin, and the per-source work-greedy mix —
    and keeps the one minimizing the round's completion time. *)

open Fusion_core

val sja_rt : Opt_env.t -> Optimized.t
(** [Optimized.est_cost] is the {e estimated response time} of the
    returned plan, not its total work. *)

val estimate_response : Opt_env.t -> int array -> Fusion_plan.Plan.action array array -> float
(** Estimated critical-path response time of a round-shaped plan given
    its ordering and decisions (used by X10 to score work-optimal plans
    under the response metric). *)
