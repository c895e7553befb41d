(* Workload drivers for a server.

   Open loop: arrivals are a Poisson process — interarrival gaps drawn
   Exp(rate) from the deterministic [Prng] — regardless of how fast the
   server keeps up. This is the driver that exposes overload: past
   saturation the queue grows and admission control starts shedding.

   Closed loop: a fixed population of clients, each submitting its next
   query a think time after its previous one completes. Concurrency is
   bounded by the population, so a closed loop cannot oversaturate —
   it measures latency under controlled load instead. *)

module Prng = Fusion_stats.Prng

let open_loop server ~prng ~rate ~count make_job =
  if count < 0 then invalid_arg "Driver.open_loop: negative count";
  let at = ref 0.0 in
  for i = 0 to count - 1 do
    at := !at +. Prng.exponential prng rate;
    ignore (Server.submit server ~at:!at (make_job i))
  done

let closed_loop server ~clients ~think ~count make_job =
  if clients < 1 then invalid_arg "Driver.closed_loop: clients must be >= 1";
  if think < 0.0 then invalid_arg "Driver.closed_loop: negative think time";
  if count < 0 then invalid_arg "Driver.closed_loop: negative count";
  let issued = ref 0 in
  let next_arrival finished =
    if !issued < count then begin
      let i = !issued in
      incr issued;
      ignore (Server.submit server ~at:(finished +. think) (make_job i))
    end
  in
  Server.on_complete server (fun c -> next_arrival c.Server.c_finished);
  let initial = min clients count in
  for _ = 1 to initial do
    let i = !issued in
    incr issued;
    ignore (Server.submit server ~at:0.0 (make_job i))
  done

let collect server =
  let got = ref [] in
  Server.on_complete server (fun c -> got := c :: !got);
  fun () -> List.rev !got
