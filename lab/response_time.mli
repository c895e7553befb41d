(** Response time of round-shaped plans under a parallel execution
    model — the future-work direction of the paper's Section 6.

    The mediator can issue independent source queries concurrently:
    every selection query of a plan can start immediately, while a
    semijoin query needs its input set, i.e. the completion of the
    previous round. Response time is therefore the critical path
    through the rounds:

    {v comp_0 = 0
       comp_i = max(comp_{i-1},
                    max over selections of round i,
                    comp_{i-1} + max over semijoins of round i) v}

    Local set operations remain free. Note the tension this surfaces:
    filter plans — all selections — have response time equal to the
    single slowest query, while semijoin plans serialize rounds. The
    work-optimal plan is rarely the response-time-optimal plan
    (experiment X10). *)

open Fusion_plan

val of_result : n:int -> Plan.t -> Exec.result -> float option
(** Critical-path response time from the {e actual} per-step costs of
    an execution; [None] when the plan is not round-shaped. *)

val sequential : Exec.result -> float
(** Response time with no parallelism at all — the sum of all step
    costs (equals [Exec.total_cost]). *)
