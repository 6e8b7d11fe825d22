(* The Almanac lexer as it was before the index-based rewrite of
   [Farm_almanac.Lexer], frozen as the reference the new one must match:
   the same tokens at the same positions, and the same error (position
   and message) or exception on every source.  It reads characters
   through [char option]s, looks keywords up with [List.assoc_opt] and
   conses a list; only the oracle in test_almanac calls it. *)

open Farm_almanac

exception Error of Ast.pos * string

type located = { token : Token.t; line : int; col : int }

let error line col fmt =
  Printf.ksprintf (fun m -> raise (Error ({ Ast.line; col }, m))) fmt

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let tokenize src =
  let n = String.length src in
  let pos = ref 0 and line = ref 1 and col = ref 1 in
  let out = ref [] in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let cur () = peek 0 in
  let advance () =
    (match cur () with
    | Some '\n' ->
        incr line;
        col := 1
    | Some _ -> incr col
    | None -> ());
    incr pos
  in
  let emit tok l c = out := { token = tok; line = l; col = c } :: !out in
  let rec skip_ws () =
    match cur () with
    | Some (' ' | '\t' | '\r' | '\n') ->
        advance ();
        skip_ws ()
    | Some '/' when peek 1 = Some '/' ->
        while cur () <> None && cur () <> Some '\n' do
          advance ()
        done;
        skip_ws ()
    | Some '/' when peek 1 = Some '*' ->
        let l0 = !line and c0 = !col in
        advance ();
        advance ();
        let rec go () =
          match (cur (), peek 1) with
          | Some '*', Some '/' ->
              advance ();
              advance ()
          | Some _, _ ->
              advance ();
              go ()
          | None, _ -> error l0 c0 "unterminated block comment"
        in
        go ();
        skip_ws ()
    | Some _ | None -> ()
  in
  let lex_number l c =
    let start = !pos in
    while (match cur () with Some ch -> is_digit ch | None -> false) do
      advance ()
    done;
    let has_frac =
      cur () = Some '.'
      && (match peek 1 with Some ch -> is_digit ch | None -> false)
    in
    if has_frac then begin
      advance ();
      while (match cur () with Some ch -> is_digit ch | None -> false) do
        advance ()
      done
    end;
    (* scientific notation: 1e-3, 2.5E6 *)
    let has_exp =
      match (cur (), peek 1, peek 2) with
      | Some ('e' | 'E'), Some d, _ when is_digit d -> true
      | Some ('e' | 'E'), Some ('+' | '-'), Some d when is_digit d -> true
      | _ -> false
    in
    if has_exp then begin
      advance ();
      (match cur () with
      | Some ('+' | '-') -> advance ()
      | _ -> ());
      while (match cur () with Some ch -> is_digit ch | None -> false) do
        advance ()
      done
    end;
    let s = String.sub src start (!pos - start) in
    if has_frac || has_exp then emit (Token.FLOAT (float_of_string s)) l c
    else emit (Token.INT (int_of_string s)) l c
  in
  let lex_ident l c =
    let start = !pos in
    while (match cur () with Some ch -> is_alnum ch | None -> false) do
      advance ()
    done;
    let s = String.sub src start (!pos - start) in
    match List.assoc_opt s Token.keyword_table with
    | Some kw -> emit kw l c
    | None -> emit (Token.IDENT s) l c
  in
  let lex_string l c =
    advance ();
    let buf = Buffer.create 16 in
    let rec go () =
      match cur () with
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match cur () with
          | Some 'n' ->
              Buffer.add_char buf '\n';
              advance ();
              go ()
          | Some ch ->
              Buffer.add_char buf ch;
              advance ();
              go ()
          | None -> error l c "unterminated string")
      | Some ch ->
          Buffer.add_char buf ch;
          advance ();
          go ()
      | None -> error l c "unterminated string"
    in
    go ();
    emit (Token.STRING (Buffer.contents buf)) l c
  in
  let rec go () =
    skip_ws ();
    let l = !line and c = !col in
    match cur () with
    | None -> emit Token.EOF l c
    | Some ch ->
        (match ch with
        | '{' -> advance (); emit Token.LBRACE l c
        | '}' -> advance (); emit Token.RBRACE l c
        | '(' -> advance (); emit Token.LPAREN l c
        | ')' -> advance (); emit Token.RPAREN l c
        | '[' -> advance (); emit Token.LBRACKET l c
        | ']' -> advance (); emit Token.RBRACKET l c
        | ';' -> advance (); emit Token.SEMI l c
        | ',' -> advance (); emit Token.COMMA l c
        | '.' -> advance (); emit Token.DOT l c
        | '@' -> advance (); emit Token.AT l c
        | '+' -> advance (); emit Token.PLUS l c
        | '-' -> advance (); emit Token.MINUS l c
        | '*' -> advance (); emit Token.STAR l c
        | '/' -> advance (); emit Token.SLASH l c
        | '=' ->
            advance ();
            if cur () = Some '=' then begin
              advance ();
              emit Token.EQ l c
            end
            else emit Token.ASSIGN l c
        | '<' ->
            advance ();
            if cur () = Some '=' then begin
              advance ();
              emit Token.LE l c
            end
            else if cur () = Some '>' then begin
              advance ();
              emit Token.NEQ l c
            end
            else emit Token.LT l c
        | '>' ->
            advance ();
            if cur () = Some '=' then begin
              advance ();
              emit Token.GE l c
            end
            else emit Token.GT l c
        | '"' -> lex_string l c
        | ch when is_digit ch -> lex_number l c
        | ch when is_alpha ch -> lex_ident l c
        | ch -> error l c "unexpected character %C" ch);
        if (match !out with { token = Token.EOF; _ } :: _ -> false | _ -> true)
        then go ()
  in
  go ();
  List.rev !out
