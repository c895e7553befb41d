type token =
  | Ident of string
  | Str of string
  | Int of int
  | Float of float
  | Sym of string
  | Eof

type located = { token : token; offset : int }

let is_keyword kw ident = String.uppercase_ascii ident = String.uppercase_ascii kw

let pp_token ppf = function
  | Ident s -> Format.fprintf ppf "identifier %s" s
  | Str s -> Format.fprintf ppf "string '%s'" s
  | Int i -> Format.fprintf ppf "integer %d" i
  | Float f -> Format.fprintf ppf "float %g" f
  | Sym s -> Format.fprintf ppf "symbol %s" s
  | Eof -> Format.pp_print_string ppf "end of input"

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let start = ref 0 in
  let emit t = tokens := { token = t; offset = !start } :: !tokens in
  let error = ref None in
  let fail msg =
    if !error = None then error := Some (Printf.sprintf "%s (at offset %d)" msg !start)
  in
  let i = ref 0 in
  while !i < n && !error = None do
    start := !i;
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      emit (Ident (String.sub input start (!i - start)))
    end
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit input.[!i + 1]) then begin
      let start = !i in
      if c = '-' then incr i;
      while !i < n && is_digit input.[!i] do
        incr i
      done;
      let digits () =
        while !i < n && is_digit input.[!i] do
          incr i
        done
      in
      let fraction = !i + 1 < n && input.[!i] = '.' && is_digit input.[!i + 1] in
      if fraction then begin
        incr i;
        digits ()
      end;
      (* An exponent: [e] or [E], an optional sign, then digits. *)
      let exponent =
        !i + 1 < n
        && (input.[!i] = 'e' || input.[!i] = 'E')
        && (is_digit input.[!i + 1]
           || ((input.[!i + 1] = '+' || input.[!i + 1] = '-')
              && !i + 2 < n && is_digit input.[!i + 2]))
      in
      if exponent then begin
        i := !i + 2;
        digits ()
      end;
      let is_float = fraction || exponent in
      let text = String.sub input start (!i - start) in
      if is_float then
        match float_of_string_opt text with
        | Some f when Float.is_finite f -> emit (Float f)
        | _ -> fail (Printf.sprintf "bad number %S" text)
      else begin
        match int_of_string_opt text with
        | Some k -> emit (Int k)
        | None -> fail (Printf.sprintf "bad number %S" text)
      end
    end
    else if c = '\'' then begin
      let start = !i + 1 in
      let j = ref start in
      while !j < n && input.[!j] <> '\'' do
        incr j
      done;
      if !j >= n then fail "unterminated string literal"
      else begin
        emit (Str (String.sub input start (!j - start)));
        i := !j + 1
      end
    end
    else begin
      let two = if !i + 1 < n then String.sub input !i 2 else "" in
      match two with
      | "<>" | "<=" | ">=" | "!=" ->
        emit (Sym (if two = "!=" then "<>" else two));
        i := !i + 2
      | _ -> (
        match c with
        | '=' | '<' | '>' | '(' | ')' | ',' | '.' | '*' ->
          emit (Sym (String.make 1 c));
          incr i
        | _ -> fail (Printf.sprintf "unexpected character %C" c))
    end
  done;
  match !error with
  | Some msg -> Error msg
  | None -> Ok (List.rev ({ token = Eof; offset = n } :: !tokens))
