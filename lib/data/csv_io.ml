(* Split a line on commas, honoring "..." quoting: a quoted field keeps
   commas and leading/trailing whitespace verbatim, and a doubled quote
   inside one is a literal quote. Returns each field with a flag saying
   whether it was quoted — the row parser needs it to tell the empty
   string from NULL. Unquoted fields are trimmed, as before. *)
let split_fields line =
  let fields = ref [] in
  let buffer = Buffer.create 16 in
  let quoted = ref false in
  let in_quotes = ref false in
  let n = String.length line in
  let flush () =
    let raw = Buffer.contents buffer in
    fields := (if !quoted then (raw, true) else (String.trim raw, false)) :: !fields;
    Buffer.clear buffer;
    quoted := false
  in
  let i = ref 0 in
  while !i < n do
    (let c = line.[!i] in
     if !in_quotes then
       if c = '"' then
         if !i + 1 < n && line.[!i + 1] = '"' then begin
           Buffer.add_char buffer '"';
           incr i
         end
         else in_quotes := false
       else Buffer.add_char buffer c
     else
       match c with
       | '"' when String.trim (Buffer.contents buffer) = "" ->
         (* An opening quote (nothing but whitespace before it). *)
         Buffer.clear buffer;
         in_quotes := true;
         quoted := true
       | ',' -> flush ()
       | c -> Buffer.add_char buffer c);
    incr i
  done;
  flush ();
  List.rev !fields

let parse_header line =
  let fields = List.map fst (split_fields line) in
  let merge = ref None in
  let rec go acc = function
    | [] -> (
      match !merge with
      | None -> Error "no merge attribute (mark one field with a leading '*')"
      | Some m -> Ok (m, List.rev acc))
    | field :: rest -> (
      let starred = String.length field > 0 && field.[0] = '*' in
      let field = if starred then String.sub field 1 (String.length field - 1) else field in
      match String.index_opt field ':' with
      | None -> Error (Printf.sprintf "header field %S lacks a ':type' suffix" field)
      | Some i -> (
        let name = String.sub field 0 i in
        let ty_str = String.sub field (i + 1) (String.length field - i - 1) in
        match Value.ty_of_string ty_str with
        | Error msg -> Error msg
        | Ok ty -> (
          match (starred, !merge) with
          | true, Some _ -> Error "more than one merge attribute marked with '*'"
          | _ ->
            if starred then merge := Some name;
            go ((name, ty) :: acc) rest)))
  in
  go [] fields

let schema_of_header line =
  match parse_header line with
  | Error msg -> Error msg
  | Ok (merge, attrs) -> Schema.create ~merge attrs

let read_string ~name ?intern text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> Error "empty input"
  | header :: rows -> (
    match parse_header header with
    | Error msg -> Error ("header: " ^ msg)
    | Ok (merge, attrs) -> (
      match Schema.create ~merge attrs with
      | Error msg -> Error msg
      | Ok schema ->
        let tys = List.map snd attrs in
        let parse_row line =
          let fields = split_fields line in
          if List.length fields <> List.length tys then
            Error (Printf.sprintf "row %S: wrong field count" line)
          else
            let rec go acc fs ts =
              match fs, ts with
              | [], [] -> Ok (List.rev acc)
              | (f, was_quoted) :: fs, ty :: ts -> (
                (* A quoted string field is taken verbatim: unlike
                   {!Value.parse}, quoting preserves whitespace and lets
                   [""] and ["NULL"] mean the literal strings rather
                   than a null. *)
                if was_quoted && ty = Value.Tstring then
                  go (Value.String f :: acc) fs ts
                else
                  match Value.parse ty f with
                  | Ok v -> go (v :: acc) fs ts
                  | Error msg -> Error msg)
              | _ -> assert false
            in
            go [] fields tys
        in
        let rec rows_of acc = function
          | [] -> Ok (List.rev acc)
          | line :: rest -> (
            match parse_row line with
            | Ok row -> rows_of (row :: acc) rest
            | Error _ as e -> e)
        in
        match rows_of [] rows with
        | Error msg -> Error msg
        | Ok rows -> Relation.of_rows ~name ?intern schema rows))

let read_file ~name ?intern path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> read_string ~name ?intern text
  | exception Sys_error msg -> Error msg

(* Quote a string field whenever parsing it back unquoted would change
   it: separators and quotes, whitespace that trimming would eat, and
   the [""] / ["NULL"] spellings of null. Embedded newlines still can't
   round-trip (the reader is line-based), so they get quoted here but
   rejected on read. A null stays a bare empty field, except as the
   only field of a row. *)
let needs_quoting s =
  s = "" || s = "NULL" || s <> String.trim s
  || String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let quote_field s =
  let buffer = Buffer.create (String.length s + 2) in
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      if c = '"' then Buffer.add_string buffer "\"\""
      else Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"';
  Buffer.contents buffer

let value_to_field = function
  | Value.Null -> ""
  | Value.Bool b -> string_of_bool b
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%g" f
  | Value.String s -> if needs_quoting s then quote_field s else s

let write_string relation =
  let schema = Relation.schema relation in
  let merge = Schema.merge schema in
  let buffer = Buffer.create 1024 in
  let header =
    Schema.attrs schema
    |> List.map (fun (name, ty) ->
           let field =
             Printf.sprintf "%s%s:%s"
               (if name = merge then "*" else "")
               name (Value.ty_to_string ty)
           in
           (* Names may hold anything a quoted header field can. *)
           if needs_quoting field then quote_field field else field)
    |> String.concat ","
  in
  Buffer.add_string buffer header;
  Buffer.add_char buffer '\n';
  Relation.iter
    (fun tuple ->
      let fields = Array.to_list tuple |> List.map value_to_field in
      (* A lone null would leave a blank line, which the reader skips;
         the bare [NULL] spelling reads back as the same null. *)
      let line = match String.concat "," fields with "" -> "NULL" | l -> l in
      Buffer.add_string buffer line;
      Buffer.add_char buffer '\n')
    relation;
  Buffer.contents buffer

let write_file relation path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (write_string relation))
