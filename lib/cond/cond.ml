open Fusion_data

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | Cmp of string * cmp * Value.t
  | Between of string * Value.t * Value.t
  | In_list of string * Value.t list
  | Prefix of string * string
  | Is_null of string
  | And of t * t
  | Or of t * t
  | Not of t

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let cmp_holds op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let string_has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let rec eval schema t tuple =
  match t with
  | True -> true
  | Cmp (attr, op, lit) -> (
    match Tuple.get_attr schema tuple attr with
    | Value.Null -> false
    | v -> cmp_holds op (Value.compare v lit))
  | Between (attr, lo, hi) -> (
    match Tuple.get_attr schema tuple attr with
    | Value.Null -> false
    | v -> Value.compare lo v <= 0 && Value.compare v hi <= 0)
  | In_list (attr, lits) -> (
    match Tuple.get_attr schema tuple attr with
    | Value.Null -> false
    | v -> List.exists (Value.equal v) lits)
  | Prefix (attr, prefix) -> (
    match Tuple.get_attr schema tuple attr with
    | Value.String s -> string_has_prefix ~prefix s
    | _ -> false)
  | Is_null attr -> Tuple.get_attr schema tuple attr = Value.Null
  | And (a, b) -> eval schema a tuple && eval schema b tuple
  | Or (a, b) -> eval schema a tuple || eval schema b tuple
  | Not a -> not (eval schema a tuple)

(* Same semantics as [eval], with attribute -> offset resolution done
   once per condition instead of once per tuple (a string hash lookup on
   the hot path otherwise). *)
let compile schema t =
  let rec go = function
    | True -> fun _ -> true
    | Cmp (attr, op, lit) ->
      let i = Schema.pos_exn schema attr in
      fun tu ->
        (match Tuple.get tu i with
        | Value.Null -> false
        | v -> cmp_holds op (Value.compare v lit))
    | Between (attr, lo, hi) ->
      let i = Schema.pos_exn schema attr in
      fun tu ->
        (match Tuple.get tu i with
        | Value.Null -> false
        | v -> Value.compare lo v <= 0 && Value.compare v hi <= 0)
    | In_list (attr, lits) ->
      let i = Schema.pos_exn schema attr in
      fun tu ->
        (match Tuple.get tu i with
        | Value.Null -> false
        | v -> List.exists (Value.equal v) lits)
    | Prefix (attr, prefix) ->
      let i = Schema.pos_exn schema attr in
      fun tu ->
        (match Tuple.get tu i with
        | Value.String s -> string_has_prefix ~prefix s
        | _ -> false)
    | Is_null attr ->
      let i = Schema.pos_exn schema attr in
      fun tu -> Tuple.get tu i = Value.Null
    | And (a, b) ->
      let fa = go a and fb = go b in
      fun tu -> fa tu && fb tu
    | Or (a, b) ->
      let fa = go a and fb = go b in
      fun tu -> fa tu || fb tu
    | Not a ->
      let fa = go a in
      fun tu -> not (fa tu)
  in
  go t

let attrs t =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let record a =
    if not (Hashtbl.mem seen a) then begin
      Hashtbl.add seen a ();
      out := a :: !out
    end
  in
  let rec go = function
    | True -> ()
    | Cmp (a, _, _) | Between (a, _, _) | In_list (a, _) | Prefix (a, _) | Is_null a ->
      record a
    | And (x, y) | Or (x, y) ->
      go x;
      go y
    | Not x -> go x
  in
  go t;
  List.rev !out

let validate schema t =
  let check_attr a k =
    match Schema.ty schema a with
    | None -> Error (Printf.sprintf "unknown attribute %S" a)
    | Some ty -> k ty
  in
  let check_lit a ty v =
    match Value.ty_of v with
    | None -> Ok () (* Null literal: legal, never matches *)
    | Some lit_ty ->
      let numeric = function Value.Tint | Value.Tfloat -> true | _ -> false in
      if lit_ty = ty || (numeric lit_ty && numeric ty) then Ok ()
      else
        Error
          (Printf.sprintf "attribute %S has type %s but literal %s has type %s" a
             (Value.ty_to_string ty) (Value.to_string v) (Value.ty_to_string lit_ty))
  in
  let rec go = function
    | True -> Ok ()
    | Cmp (a, _, v) -> check_attr a (fun ty -> check_lit a ty v)
    | Between (a, lo, hi) ->
      check_attr a (fun ty ->
          match check_lit a ty lo with Ok () -> check_lit a ty hi | e -> e)
    | In_list (a, vs) ->
      check_attr a (fun ty ->
          List.fold_left
            (fun acc v -> match acc with Ok () -> check_lit a ty v | e -> e)
            (Ok ()) vs)
    | Prefix (a, _) ->
      check_attr a (fun ty ->
          if ty = Value.Tstring then Ok ()
          else Error (Printf.sprintf "LIKE requires a string attribute, %S is %s" a
                        (Value.ty_to_string ty)))
    | Is_null a -> check_attr a (fun _ -> Ok ())
    | And (x, y) | Or (x, y) -> ( match go x with Ok () -> go y | e -> e)
    | Not x -> go x
  in
  go t

let rec equal a b =
  match a, b with
  | True, True -> true
  | Cmp (x, op1, v1), Cmp (y, op2, v2) -> x = y && op1 = op2 && Value.equal v1 v2
  | Between (x, l1, h1), Between (y, l2, h2) ->
    x = y && Value.equal l1 l2 && Value.equal h1 h2
  | In_list (x, vs1), In_list (y, vs2) ->
    x = y && List.length vs1 = List.length vs2 && List.for_all2 Value.equal vs1 vs2
  | Prefix (x, p1), Prefix (y, p2) -> x = y && p1 = p2
  | Is_null x, Is_null y -> x = y
  | And (x1, y1), And (x2, y2) | Or (x1, y1), Or (x2, y2) -> equal x1 x2 && equal y1 y2
  | Not x, Not y -> equal x y
  | _ -> false

let rec simplify = function
  | And (a, b) -> (
    match simplify a, simplify b with
    | True, x | x, True -> x
    | Not True, _ | _, Not True -> Not True
    | x, y -> And (x, y))
  | Or (a, b) -> (
    match simplify a, simplify b with
    | True, _ | _, True -> True
    | Not True, x | x, Not True -> x
    | x, y -> Or (x, y))
  | Not a -> ( match simplify a with Not x -> x | x -> Not x)
  | atom -> atom

(* Literals print so the lexer reads them back as the same value: a
   float takes the shortest [%g] precision that round-trips, exponent
   and all. *)
let pp_literal ppf = function
  | Value.Float f ->
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    Format.pp_print_string ppf (shortest 1)
  | v -> Value.pp ppf v

let rec pp ppf t =
  let pp_arg ppf x =
    match x with
    | Or _ | And _ | Not _ -> Format.fprintf ppf "(%a)" pp x
    | _ -> pp ppf x
  in
  match t with
  | True -> Format.pp_print_string ppf "TRUE"
  | Cmp (a, op, v) -> Format.fprintf ppf "%s %s %a" a (cmp_to_string op) pp_literal v
  | Between (a, lo, hi) ->
    Format.fprintf ppf "%s BETWEEN %a AND %a" a pp_literal lo pp_literal hi
  | In_list (a, vs) ->
    Format.fprintf ppf "%s IN (%a)" a
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_literal)
      vs
  | Prefix (a, p) -> Format.fprintf ppf "%s LIKE '%s%%'" a p
  | Is_null a -> Format.fprintf ppf "%s IS NULL" a
  | And (x, y) ->
    let pp_side ppf s =
      match s with Or _ -> Format.fprintf ppf "(%a)" pp s | _ -> pp_arg ppf s
    in
    Format.fprintf ppf "%a AND %a" pp_side x pp_side y
  | Or (x, y) -> Format.fprintf ppf "%a OR %a" pp_arg x pp_arg y
  | Not x -> Format.fprintf ppf "NOT %a" pp_arg x

let to_string t = Format.asprintf "%a" pp t

(* --- Parser ------------------------------------------------------------ *)

module P = Parser_state

let reserved =
  [ "AND"; "OR"; "NOT"; "BETWEEN"; "IN"; "LIKE"; "IS"; "TRUE"; "FALSE"; "NULL" ]

let is_reserved id = List.exists (fun kw -> Lexer.is_keyword kw id) reserved

(* [attr_of] lets the SQL front-end parse qualified attributes (u1.V); the
   plain condition parser uses bare identifiers. *)
let rec parse_or st attr_of =
  let left = parse_and st attr_of in
  if P.keyword st "OR" then Or (left, parse_or st attr_of) else left

and parse_and st attr_of =
  let left = parse_unary st attr_of in
  if P.keyword st "AND" then And (left, parse_and st attr_of) else left

and parse_unary st attr_of =
  if P.keyword st "NOT" then Not (parse_unary st attr_of) else parse_atom st attr_of

and parse_atom st attr_of =
  match P.peek st with
  | Lexer.Sym "(" ->
    P.advance st;
    let inner = parse_or st attr_of in
    P.expect_sym st ")";
    inner
  | Lexer.Ident id when Lexer.is_keyword "TRUE" id ->
    P.advance st;
    True
  | Lexer.Ident id when not (is_reserved id) ->
    P.advance st;
    let attr = attr_of st id in
    parse_predicate st attr
  | _ -> P.fail_at st "expected a condition"

and parse_predicate st attr =
  match P.peek st with
  | Lexer.Sym (("=" | "<>" | "<" | "<=" | ">" | ">=") as sym) ->
    P.advance st;
    let op =
      match sym with
      | "=" -> Eq
      | "<>" -> Ne
      | "<" -> Lt
      | "<=" -> Le
      | ">" -> Gt
      | _ -> Ge
    in
    Cmp (attr, op, P.literal st)
  | Lexer.Ident id when Lexer.is_keyword "BETWEEN" id ->
    P.advance st;
    let lo = P.literal st in
    P.expect_keyword st "AND";
    let hi = P.literal st in
    Between (attr, lo, hi)
  | Lexer.Ident id when Lexer.is_keyword "IN" id ->
    P.advance st;
    P.expect_sym st "(";
    let rec items acc =
      let v = P.literal st in
      match P.peek st with
      | Lexer.Sym "," ->
        P.advance st;
        items (v :: acc)
      | _ ->
        P.expect_sym st ")";
        List.rev (v :: acc)
    in
    In_list (attr, items [])
  | Lexer.Ident id when Lexer.is_keyword "IS" id ->
    P.advance st;
    let negated = P.keyword st "NOT" in
    P.expect_keyword st "NULL";
    if negated then Not (Is_null attr) else Is_null attr
  | Lexer.Ident id when Lexer.is_keyword "LIKE" id -> (
    P.advance st;
    match P.peek st with
    | Lexer.Str pattern ->
      P.advance st;
      let n = String.length pattern in
      if n > 0 && pattern.[n - 1] = '%'
         && not (String.contains (String.sub pattern 0 (n - 1)) '%')
      then Prefix (attr, String.sub pattern 0 (n - 1))
      else P.fail_at st "only prefix patterns ('p%') are supported in LIKE"
    | _ -> P.fail_at st "expected a string pattern after LIKE")
  | _ -> P.fail_at st "expected a predicate operator"

let bare_attr _st id = id

let parse_predicate_in st ~attr = parse_predicate st attr

let parse input =
  match Parser_state.of_string input with
  | Error msg -> Error msg
  | Ok st -> (
    match parse_or st bare_attr with
    | cond ->
      if P.at_eof st then Ok cond
      else Error (Format.asprintf "trailing input: %a" Lexer.pp_token (P.peek st))
    | exception Parser_state.Parse_error msg -> Error msg)
