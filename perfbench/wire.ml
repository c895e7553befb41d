(* Blocking line-protocol connections for the load generator: one
   thread multiplexes its connections with [select], so a closed loop
   over several connections needs no extra threads. *)

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;
  lines : string Queue.t;
}

exception Timeout
exception Closed

let connect addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; chunk = Bytes.create 65536; partial = Buffer.create 4096; lines = Queue.create () }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write c.fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Splits the [n] bytes just read into complete lines. *)
let ingest c n =
  let rec go start =
    match Bytes.index_from_opt c.chunk start '\n' with
    | Some i when i < n ->
      Buffer.add_subbytes c.partial c.chunk start (i - start);
      Queue.push (Buffer.contents c.partial) c.lines;
      Buffer.clear c.partial;
      go (i + 1)
    | _ -> Buffer.add_subbytes c.partial c.chunk start (n - start)
  in
  if n > 0 then go 0

let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> raise Closed
  | n -> ingest c n
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise Closed

(* Blocks until one of [cs] holds a complete line. @raise Timeout past
   [deadline], Closed when a connection ends first. *)
let wait cs ~deadline =
  let ready () = List.exists (fun c -> not (Queue.is_empty c.lines)) cs in
  while not (ready ()) do
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then raise Timeout;
    match Unix.select (List.map (fun c -> c.fd) cs) [] [] left with
    | readable, _, _ -> List.iter (fun c -> if List.mem c.fd readable then fill c) cs
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let recv c ~deadline =
  wait [ c ] ~deadline;
  Queue.pop c.lines

let take c = Queue.take_opt c.lines

(* Waits for the peer to close, discarding anything still sent. *)
let await_close c ~deadline =
  try
    while true do
      wait [ c ] ~deadline;
      Queue.clear c.lines
    done
  with Closed -> ()

(* --- response lines ------------------------------------------------------ *)

(* [key=value] fields of a response line, in order. *)
let fields line =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | None -> None
      | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))
    (String.split_on_char ' ' line)

let field fs key = List.assoc_opt key fs

let word line =
  match String.index_opt line ' ' with None -> line | Some i -> String.sub line 0 i

type answer = {
  a_rows : int;
  a_cost : float;
  a_response : float;  (** seconds, as the server measured it *)
  a_partial : bool;
  a_items : Digest.t;
}

(* An [ok] line's fields, or [None] for anything else ([shed], [error],
   a malformed line). The item list is kept only as a digest. *)
let answer line =
  if word line <> "ok" then None
  else
    let fs = fields line in
    match
      ( Option.bind (field fs "rows") int_of_string_opt,
        Option.bind (field fs "cost") float_of_string_opt,
        Option.bind (field fs "response") float_of_string_opt,
        Option.bind (field fs "partial") bool_of_string_opt,
        field fs "items" )
    with
    | Some a_rows, Some a_cost, Some a_response, Some a_partial, Some items ->
      Some { a_rows; a_cost; a_response; a_partial; a_items = Digest.string items }
    | _ -> None

type push = { p_sub : int; p_rows : int; p_added : string; p_removed : string }

let push line =
  if word line <> "push" then None
  else
    let fs = field (fields line) in
    match
      ( Option.bind (fs "id") int_of_string_opt,
        Option.bind (fs "rows") int_of_string_opt,
        fs "added",
        fs "removed" )
    with
    | Some p_sub, Some p_rows, Some p_added, Some p_removed ->
      Some { p_sub; p_rows; p_added; p_removed }
    | _ -> None

(* A [sub] acknowledgement: subscription id and the initial answer. *)
let sub_ack line =
  if word line <> "sub" then None
  else
    let fs = field (fields line) in
    match (Option.bind (fs "id") int_of_string_opt, fs "items") with
    | Some id, Some items -> Some (id, Digest.string items)
    | _ -> None
