(** Runtime-adaptive fusion query execution.

    Static plans commit to selection-vs-semijoin decisions based on
    {e estimated} candidate-set sizes; when conditions are correlated or
    sources overlap heavily, those estimates can be far off (the paper
    accepts the best semijoin-adaptive plan as "as good a guess as we
    can make" in that regime). This runtime interleaves optimization
    and execution instead: after each round it knows the {e actual}
    candidate set, so the next condition and the per-source strategies
    are chosen with exact knowledge of [|X_i|]. It also prunes semijoin
    sets with the difference rewrite as it goes, and stops early when
    the candidate set becomes empty.

    This goes beyond the paper's plan space (it is not a plan at all)
    but composes directly from its building blocks; experiment X9
    measures what the feedback buys. *)

open Fusion_data
open Fusion_plan
open Fusion_core

type round = {
  cond : int;
  decisions : Plan.action array;  (** per source *)
  cost : float;  (** actual cost of the round *)
  candidates : int;  (** |X_i| after the round *)
  response : float;
      (** the round's span under the parallel model: selections run
          concurrently, then the difference-pruned semijoins chain
          sequentially (each needs the previous one's confirmations) *)
}

type result = {
  answer : Item_set.t;
  total_cost : float;
  response_time : float;
      (** sum of the rounds' spans — rounds serialize because each
          round's choice of condition and strategy depends on the
          previous round's observed candidates. Runtime feedback buys
          total work at the price of a longer critical path; X10/X9
          quantify the tradeoff. *)
  rounds : round list;  (** in execution order; may stop early *)
}

val run : ?retries:int -> Opt_env.t -> result
(** Executes directly against the environment's sources (meters are
    reset first). Statistics are used only to rank conditions and to
    price candidate strategies; all set sizes fed into pricing are the
    actually observed ones. Source timeouts are retried up to [retries]
    times (default 0) before propagating. *)
