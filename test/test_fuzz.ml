(* Parser fuzzing: every text-format parser at the system's boundaries
   — SQL, conditions, delta lines, plan fragments, JSON, CSV and the
   catalog INI — is fed mutations of valid inputs. Each must answer
   [Ok] or [Error] and never raise, and whatever it accepts must survive
   its printer: print, re-parse, and the value (or its printed form)
   comes back unchanged. *)

open Fusion_data
open Fusion_cond
module Query = Fusion_query.Query
module Sql = Fusion_query.Sql
module Delta = Fusion_delta.Delta
module Fragment = Fusion_plan.Fragment
module Json = Fusion_obs.Json
module Catalog = Fusion_source.Catalog

(* --- mutation ------------------------------------------------------------ *)

(* Bytes that matter to some grammar, plus a few that matter to none. *)
let alphabet = "\"'\\[](){},;:=<>!+-*/.#%_ \t\r\n0123456789eEaZ\000\127\255"

(* Fragments of the grammars, so mutations can build new structure. *)
let tokens =
  [ "AND"; "OR"; "NOT"; "SELECT"; "FROM"; "WHERE"; "NULL"; "IS"; "TRUE"; "LIKE";
    "u1.M"; "U u1"; "1e999"; "-0.5"; "9999999999999999999999"; "\"\\u00e9\"";
    "\\"; "[source a]"; "file = "; "format = oem"; "[view]"; "# shard "; ":int";
    ":float"; "*"; "null"; "true"; "{\"k\":"; "[["; "+"; "-"; ";"; "\n" ]

type mutation =
  | Replace of int * char
  | Insert of int * string
  | Delete of int * int
  | Duplicate of int * int
  | Truncate of int

let apply_mutation s m =
  let n = String.length s in
  let clamp i = if n = 0 then 0 else abs i mod (n + 1) in
  match m with
  | Replace (i, c) ->
    if n = 0 then String.make 1 c
    else String.mapi (fun j x -> if j = abs i mod n then c else x) s
  | Insert (i, t) ->
    let i = clamp i in
    String.sub s 0 i ^ t ^ String.sub s i (n - i)
  | Delete (i, len) ->
    let i = clamp i in
    let len = min len (n - i) in
    String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
  | Duplicate (i, len) ->
    let i = clamp i in
    let len = min len (n - i) in
    String.sub s 0 (i + len) ^ String.sub s i (n - i)
  | Truncate i -> String.sub s 0 (clamp i)

let mutation_gen =
  let open QCheck2.Gen in
  let pos = int_bound 400 in
  let char = map (String.get alphabet) (int_bound (String.length alphabet - 1)) in
  oneof
    [
      map2 (fun i c -> Replace (i, c)) pos char;
      map2 (fun i c -> Insert (i, String.make 1 c)) pos char;
      map2 (fun i t -> Insert (i, t)) pos (oneofl tokens);
      map2 (fun i l -> Delete (i, l)) pos (int_range 1 8);
      map2 (fun i l -> Duplicate (i, l)) pos (int_range 1 16);
      map (fun i -> Truncate i) pos;
    ]

(* A seed from the corpus, then up to six mutations (zero keeps the
   valid seed itself in the sample). *)
let mutated corpus =
  let open QCheck2.Gen in
  let* seed = oneofl corpus in
  let* ms = list_size (int_range 0 6) mutation_gen in
  return (List.fold_left apply_mutation seed ms)

(* [parse] must not raise; [round_trip] runs on whatever it accepts. *)
let fuzz ?(count = 5000) name corpus parse round_trip =
  Helpers.qtest ~count ("fuzz " ^ name) (mutated corpus) String.escaped (fun text ->
      match parse text with
      | Ok v -> round_trip v
      | Error _ -> true
      | exception e ->
        QCheck2.Test.fail_reportf "%s raised %s on %S" name (Printexc.to_string e) text)

(* --- the parsers --------------------------------------------------------- *)

let schema =
  Schema.create_exn ~merge:"M"
    [ ("M", Value.Tstring); ("A", Value.Tint); ("B", Value.Tstring); ("F", Value.Tfloat) ]

let sql =
  fuzz "Sql.parse"
    [
      "SELECT u1.M FROM U u1, U u2 WHERE u1.M = u2.M AND u1.A < 10 AND u2.B = 'x'";
      "SELECT u1.M, u1.B FROM U u1 WHERE u1.A >= 3 OR NOT u1.B LIKE 'ab%'";
      "SELECT M FROM U u1 WHERE A IS NULL AND F < 2.5";
      "SELECT u1.M FROM U u1, U u2, U u3 WHERE u1.M = u2.M AND u2.M = u3.M AND \
       u1.A = 1 AND u2.A = 2 AND u3.B <> 'z'";
    ]
    (Sql.parse ~schema ~union:"U")
    (function
      | Sql.Fusion (q, []) -> (
        let text = Query.to_sql ~union:"U" ~merge:"M" q in
        match Sql.parse_fusion ~schema ~union:"U" text with
        | Ok q' -> Query.equal q q'
        | Error e -> QCheck2.Test.fail_reportf "printed query rejected: %s" e)
      | Sql.Fusion (_, _ :: _) | Sql.Not_fusion _ -> true)

let cond =
  fuzz "Cond.parse"
    [
      "A < 10 AND B = 'x'";
      "NOT (A >= 3 OR B LIKE 'ab%')";
      "F <= -2.5e3 AND A <> 7";
      "B IS NULL OR (A = 1 AND A != 2)";
      "TRUE";
    ]
    Cond.parse
    (fun c ->
      match Cond.parse (Cond.to_string c) with
      | Ok c' -> Cond.equal c c'
      | Error e -> QCheck2.Test.fail_reportf "printed condition rejected: %s" e)

let delta =
  fuzz "Delta.parse"
    [ "+k1,1,x,0.5;-k2,2,y,1.5"; "+k3,-4,,2.0"; "-k1,1,x,0.5"; "+a,0,b,1e3;+c,1,d,-0.25" ]
    (Delta.parse schema)
    (fun d ->
      let line = Delta.to_line schema d in
      match Delta.parse schema line with
      | Ok d' -> String.equal line (Delta.to_line schema d')
      | Error e -> QCheck2.Test.fail_reportf "printed delta rejected: %s" e)

let fragment =
  let plan =
    Fusion_plan.Plan.create
      ~ops:
        Fusion_plan.Op.
          [
            Select { dst = "X1"; cond = 0; source = 0 };
            Semijoin { dst = "X2"; cond = 1; source = 1; input = "X1" };
            Load { dst = "L"; source = 0 };
            Local_select { dst = "X3"; cond = 1; input = "L" };
            Union { dst = "X4"; args = [ "X2"; "X3" ] };
            Inter { dst = "X5"; args = [ "X1"; "X4" ] };
            Diff { dst = "X6"; left = "X5"; right = "X2" };
          ]
      ~output:"X6"
  in
  fuzz "Fragment.decode"
    [ Fragment.encode (Fragment.of_plan ~shard:3 plan) ]
    Fragment.decode
    (fun f ->
      let text = Fragment.encode f in
      match Fragment.decode text with
      | Ok f' -> String.equal text (Fragment.encode f')
      | Error e -> QCheck2.Test.fail_reportf "encoded fragment rejected: %s" e)

let json =
  fuzz "Json.of_string"
    [
      {|{"a":[1,2.5,-3e-2,true,false,null],"b":{"c":"d\"\\\n\u00e9"}}|};
      {|[[],{},"",0,-0.0,1e308]|};
      {|"plain"|};
    ]
    Json.of_string
    (fun v ->
      match Json.to_string v with
      | exception Invalid_argument _ -> true (* a non-finite float: not printable JSON *)
      | text -> (
        match Json.of_string text with
        | Ok v' -> String.equal text (Json.to_string v')
        | Error e -> QCheck2.Test.fail_reportf "printed JSON rejected: %s" e))

let csv =
  fuzz "Csv_io.read_string"
    [
      "*M:string,A:int,B:string,F:float\nk1,1,x,0.5\nk2,,\"q,\"\"z\",1e3\n";
      "*M:int,V:float\n1,2.5\n3,\n";
      "*M:string\n\"\"\nk\n";
    ]
    (Csv_io.read_string ~name:"R" ?intern:None)
    (fun r ->
      let text = Csv_io.write_string r in
      match Csv_io.read_string ~name:"R" text with
      | Ok r' -> String.equal text (Csv_io.write_string r')
      | Error e -> QCheck2.Test.fail_reportf "written CSV rejected: %s" e)

(* Catalog files resolve against a directory holding one small CSV; the
   round trip renders the parsed sources over that same file. *)
let catalog_dir =
  lazy
    (let dir = Filename.temp_file "fusion_fuzz" "" in
     Sys.remove dir;
     Sys.mkdir dir 0o755;
     at_exit (fun () ->
         Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
         Sys.rmdir dir);
     Csv_io.write_file
       (Helpers.abc_relation [ Helpers.abc_row "k1" 1 "x"; Helpers.abc_row "k2" 2 "y" ])
       (Filename.concat dir "a.csv");
     dir)

let catalog =
  let parse text = Catalog.parse ~dir:(Lazy.force catalog_dir) text in
  fuzz ~count:1000 "Catalog.parse"
    [
      "# sources\n[source a]\nfile = a.csv\ncapability = no-semijoin\n\
       overhead = 100 # dial-up\n\n[source b]\nfile = a.csv\nscale = 2.0\n";
      "[source a]\nfile = a.csv\nreplicas = 2\n";
      "[view]\nname = U\n[source a]\nfile = a.csv\nformat = oem\n\
       entities = record\ncol.M = id\n";
    ]
    parse
    (fun sources ->
      let text = Catalog.render (List.map (fun s -> (s, "a.csv")) sources) in
      match parse text with
      | Ok again ->
        String.equal text (Catalog.render (List.map (fun s -> (s, "a.csv")) again))
      | Error e -> QCheck2.Test.fail_reportf "rendered catalog rejected: %s" e)

(* Inputs the fuzzer once found failing, pinned so they stay fixed
   whatever the random draw. *)
let test_found_cases () =
  let sql_round_trip text =
    match Sql.parse_fusion ~schema ~union:"U" text with
    | Error e -> Alcotest.failf "%s: %s" text e
    | Ok q ->
      let printed = Query.to_sql ~union:"U" ~merge:"M" q in
      Alcotest.(check bool) ("round trip of " ^ printed) true
        (Query.equal q (Helpers.check_ok (Sql.parse_fusion ~schema ~union:"U" printed)))
  in
  (* A TRUE condition printed as a bare conjunct used to attach to
     every variable. *)
  sql_round_trip
    "SELECT u1.M FROM U u1, U u2, U u3 WHERE u1.M = u2.M AND u2.M = u3.M \
     AND u1.A = 1";
  sql_round_trip "SELECT M FROM U u1 WHERE TRUE";
  (* Floats printed with %g lost digits or took an exponent the lexer
     did not read. *)
  sql_round_trip "SELECT M FROM U u1 WHERE F < 99999999999999999999992.5";
  List.iter
    (fun text ->
      let c = Helpers.check_ok (Cond.parse text) in
      let again = Helpers.check_ok (Cond.parse (Cond.to_string c)) in
      Alcotest.check Helpers.cond text c again)
    [ "F <= -99992.99"; "F < 9.999999"; "F > 1.5e-7"; "F = 2E+3" ];
  ignore (Helpers.check_err "non-finite literal" (Cond.parse "F < 1e999"));
  (* A lone null field used to print as a blank line, which the reader
     skips; a header name with a comma printed unquoted. *)
  List.iter
    (fun text ->
      let r = Helpers.check_ok (Csv_io.read_string ~name:"R" text) in
      let written = Csv_io.write_string r in
      Alcotest.(check string) ("rewrite of " ^ String.escaped text) written
        (Csv_io.write_string (Helpers.check_ok (Csv_io.read_string ~name:"R" written))))
    [ "*M:string\n\"\"\nk\nNULL\n"; "*M:string,\"g,\":int\nk,1\n" ];
  ignore
    (Helpers.check_err "two merge attributes"
       (Csv_io.read_string ~name:"R" "**M:int,*:float\n1,2.5\n"))

let suite =
  [
    sql;
    cond;
    delta;
    fragment;
    json;
    csv;
    catalog;
    Alcotest.test_case "fuzz-found round-trip cases" `Quick test_found_cases;
  ]
