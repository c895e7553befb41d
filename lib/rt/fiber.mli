(** An effects-based cooperative fibre scheduler on one domain.

    Fibres are delimited continuations ([Effect.Deep]) multiplexed over
    the calling domain. Blocking work runs off-domain (see {!Pool}) and
    resumes its fibre through a thread-safe wake queue; the idle loop
    blocks in [Unix.select] on a self-pipe plus any descriptors fibres
    await, so socket servers and domain offloads share one loop.

    Concurrency is structured: every fork happens under a {!Switch.t}
    and [Switch.run] returns only when every forked fibre has completed
    (daemons are cancelled at switch exit) — fibres cannot outlive
    their switch. Cancellation is cooperative: it interrupts the
    fibre's current suspension with {!Cancelled} and makes every later
    suspension point raise. *)

exception Cancelled
(** Raised inside a fibre when its switch is cancelled. *)

exception Deadlock
(** Raised by {!run} when fibres are suspended but nothing — no ready
    fibre, sleeper, awaited descriptor or outstanding off-domain
    completion — can ever wake one. *)

val run : (unit -> 'a) -> 'a
(** Runs [main] as the root fibre and drives the scheduler until it and
    every forked fibre have completed. Must not be nested. *)

val inside : unit -> bool
(** Whether the calling code is executing under {!run} (and may
    therefore suspend instead of blocking the domain). *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]); usable anywhere. *)

val yield : unit -> unit
(** Reschedules the calling fibre behind every ready fibre. *)

val sleep : float -> unit
(** Suspends the calling fibre for [d] wall-clock seconds. *)

val pending_fibres : unit -> int
(** Number of forked fibres not yet completed — 0 after any
    [Switch.run] returns (the leak-check invariant). *)

(** A point-in-time view of the scheduler, for live introspection
    ([/statusz], [fusion_rt_*] gauges). *)
type stats = {
  live : int;  (** forked fibres not yet completed *)
  run_queue : int;  (** fibres ready to run right now *)
  sleepers : int;  (** fibres parked on a deadline *)
  io_waiting : int;  (** fibres parked on fd readiness *)
  ext_pending : int;  (** outstanding off-domain completions *)
  polls : int;  (** times the idle loop entered [select] *)
  poll_wait : float;  (** cumulative wall seconds blocked in [select] *)
}

val stats : unit -> stats option
(** [None] outside {!run}. Must be read on the scheduler domain (any
    fibre qualifies). *)

val suspend : ((('a, exn) result -> unit) -> unit) -> 'a
(** [suspend register] parks the calling fibre; [register] receives a
    resolve-once function that resumes it with a value ([Ok]) or raises
    into it ([Error]). The resolver must be called from the scheduler
    domain; cancellation may also fire it, first call wins. *)

val suspend_external : ((('a, exn) result -> unit) -> unit) -> 'a
(** Like {!suspend}, but the resolver may be invoked from any domain
    (a domain-pool completion callback); the suspension counts as an
    external wake source for deadlock detection. *)

val await_readable : Unix.file_descr -> unit
(** Suspends until [fd] selects readable. The descriptor must stay open
    while awaited. *)

val await_writable : Unix.file_descr -> unit

val timeout : float -> (unit -> 'a) -> 'a option
(** [timeout d fn] runs [fn] under a fresh switch that is cancelled
    after [d] seconds; [None] on timeout. Exceptions from [fn]
    propagate. *)

(** Write-once cells for passing one value between fibres. *)
module Promise : sig
  type 'a t

  val create : unit -> 'a t
  val resolve : 'a t -> 'a -> unit
  val reject : 'a t -> exn -> unit

  val await : 'a t -> 'a
  (** Suspends until resolved; re-raises a rejection. *)
end

(** Structured-concurrency scopes: forked fibres are joined (or, for
    daemons, cancelled) before [run] returns. *)
module Switch : sig
  type t

  val run : (t -> 'a) -> 'a
  (** Runs the body with a fresh switch and joins every fibre forked on
      it. A fibre failure cancels the others and re-raises from [run];
      daemons are cancelled once the body and all non-daemon fibres are
      done. *)

  val fork : t -> (unit -> unit) -> unit
  (** Forks a fibre; its failure (other than {!Cancelled}) fails the
      switch. *)

  val fork_daemon : t -> (unit -> unit) -> unit
  (** Forks a background fibre that is cancelled at switch exit rather
      than joined (e.g. an accept loop or a timeout timer). *)

  val fork_promise : t -> (unit -> 'a) -> 'a Promise.t
  (** Forks a fibre whose outcome — value or exception — is captured in
      the promise instead of failing the switch. *)

  val cancel : t -> unit
  (** Cancels every fibre in the switch (cooperatively, at their next
      suspension point). Idempotent. *)

  val cancelled : t -> bool
end

(** Counting semaphores over fibres (FIFO wakeup). *)
module Semaphore : sig
  type t

  val create : int -> t
  val acquire : t -> unit
  val release : t -> unit
  val value : t -> int
end

(** Bounded FIFO streams: [take] blocks when empty, [add] blocks when
    full. *)
module Stream : sig
  type 'a t

  val create : capacity:int -> 'a t
  val add : 'a t -> 'a -> unit
  val take : 'a t -> 'a

  val try_add : 'a t -> 'a -> bool
  (** Non-blocking [add]: [false] when the stream is full and no reader
      is waiting. Never suspends the calling fibre — safe on fibres
      (like a server pump) that must not block on one consumer. *)

  val take_opt : 'a t -> 'a option
  (** Non-blocking [take]; never wakes writers into an empty slot it
      did not free. *)

  val length : 'a t -> int

  val high_water : 'a t -> int
  (** Deepest the buffer has ever been — a persistently full stream
      (high water = capacity) is a backpressure signal. *)
end
