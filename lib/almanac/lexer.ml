(* One pass over the source by index, with no allocation per character:
   the scanners test [src.[i]] against the length, a column is the offset
   from the start of its line (so only a newline updates the position
   state), keywords are compared with the source in place, and tokens go
   into a growable array that the parser keeps with its length. *)

exception Error of Ast.pos * string

type located = { token : Token.t; line : int; col : int }
type t = { toks : located array; len : int }

let error line col fmt =
  Printf.ksprintf (fun m -> raise (Error ({ Ast.line; col }, m))) fmt

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

(* [Token.keyword_table] by length: [by_length.(k)] holds the keywords of
   [k] characters *)
let by_length =
  let longest =
    List.fold_left (fun m (kw, _) -> max m (String.length kw)) 0
      Token.keyword_table
  in
  Array.init (longest + 1) (fun k ->
      Array.of_list
        (List.filter (fun (kw, _) -> String.length kw = k) Token.keyword_table))

(* [kw] occurs in [src] at [start], compared from its [k]th character *)
let rec occurs_at src start kw k =
  k = String.length kw
  || (src.[start + k] = kw.[k] && occurs_at src start kw (k + 1))

(* the keyword or identifier of [len] characters at [start], searched
   from the [b]th keyword of its length *)
let rec word src start len b =
  let bucket =
    if len < Array.length by_length then by_length.(len) else [||]
  in
  if b = Array.length bucket then Token.IDENT (String.sub src start len)
  else
    let kw, tok = bucket.(b) in
    if occurs_at src start kw 0 then tok else word src start len (b + 1)

type state = {
  src : string;
  n : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the current line's first character *)
  mutable toks : located array;
  mutable len : int;
}

let col st i = i - st.bol + 1

(* the character at [i] is a newline *)
let newline st i =
  st.line <- st.line + 1;
  st.bol <- i + 1

let filler = { token = Token.EOF; line = 0; col = 0 }

(* The array starts at [min 256 (n + 1)] words, enough for any source of
   up to 256 tokens, which stays on the minor heap; when it fills, it
   grows to the token count projected from the density so far, so a
   larger source usually takes one major allocation.  [filler] is a static constant: an array of more than 256
   words made with a young element forces a minor collection. *)
let emit st token line col =
  if st.len = Array.length st.toks then begin
    let projected = st.len * st.n / max 1 st.pos in
    let cap = max (2 * st.len) (projected + (projected / 8) + 16) in
    let bigger = Array.make cap filler in
    Array.blit st.toks 0 bigger 0 st.len;
    st.toks <- bigger
  end;
  st.toks.(st.len) <- { token; line; col };
  st.len <- st.len + 1

let rec skip_ws st =
  let i = st.pos in
  if i < st.n then
    match st.src.[i] with
    | ' ' | '\t' | '\r' ->
        st.pos <- i + 1;
        skip_ws st
    | '\n' ->
        newline st i;
        st.pos <- i + 1;
        skip_ws st
    | '/' when i + 1 < st.n && st.src.[i + 1] = '/' ->
        let j = ref (i + 2) in
        while !j < st.n && st.src.[!j] <> '\n' do
          incr j
        done;
        st.pos <- !j;
        skip_ws st
    | '/' when i + 1 < st.n && st.src.[i + 1] = '*' ->
        st.pos <- block_comment st st.line (col st i) (i + 2);
        skip_ws st
    | _ -> ()

(* the offset after the [*/] that closes a comment opened at [l]:[c] *)
and block_comment st l c j =
  if j >= st.n then error l c "unterminated block comment"
  else
    match st.src.[j] with
    | '*' when j + 1 < st.n && st.src.[j + 1] = '/' -> j + 2
    | '\n' ->
        newline st j;
        block_comment st l c (j + 1)
    | _ -> block_comment st l c (j + 1)

let rec digits st j =
  if j < st.n && is_digit st.src.[j] then digits st (j + 1) else j

(* scientific notation: 1e-3, 2.5E6; "3e" is an int and an identifier *)
let lex_number st l c =
  let src = st.src and start = st.pos in
  let j = digits st start in
  let has_frac = j + 1 < st.n && src.[j] = '.' && is_digit src.[j + 1] in
  let j = if has_frac then digits st (j + 1) else j in
  let exp_digits =
    if j + 1 < st.n && (src.[j] = 'e' || src.[j] = 'E') then
      if is_digit src.[j + 1] then j + 1
      else if
        (src.[j + 1] = '+' || src.[j + 1] = '-')
        && j + 2 < st.n
        && is_digit src.[j + 2]
      then j + 2
      else -1
    else -1
  in
  let j = if exp_digits >= 0 then digits st exp_digits else j in
  st.pos <- j;
  let len = j - start in
  let token =
    if has_frac || exp_digits >= 0 then
      Token.FLOAT (float_of_string (String.sub src start len))
    else if len <= 18 then begin
      (* at most 18 digits cannot overflow an OCaml int *)
      let v = ref 0 in
      for k = start to j - 1 do
        v := (10 * !v) + Char.code src.[k] - Char.code '0'
      done;
      Token.INT !v
    end
    else Token.INT (int_of_string (String.sub src start len))
  in
  emit st token l c

let lex_ident st l c =
  let start = st.pos in
  let j = ref start in
  while !j < st.n && is_alnum st.src.[!j] do
    incr j
  done;
  st.pos <- !j;
  emit st (word st.src start (!j - start) 0) l c

(* A string without escapes is one [String.sub]; the first backslash
   moves the rest into a [Buffer].  [\n] is a newline, a backslash before
   any other character stands for that character. *)
let rec plain_string st l c start j =
  if j >= st.n then error l c "unterminated string"
  else
    match st.src.[j] with
    | '"' ->
        st.pos <- j + 1;
        emit st (Token.STRING (String.sub st.src start (j - start))) l c
    | '\\' ->
        let buf = Buffer.create (j - start + 16) in
        Buffer.add_substring buf st.src start (j - start);
        escape st l c buf j
    | ch ->
        if ch = '\n' then newline st j;
        plain_string st l c start (j + 1)

(* the backslash at [j] *)
and escape st l c buf j =
  if j + 1 >= st.n then error l c "unterminated string"
  else begin
    let ch = st.src.[j + 1] in
    if ch = '\n' then newline st (j + 1);
    Buffer.add_char buf (if ch = 'n' then '\n' else ch);
    escaped_string st l c buf (j + 2)
  end

and escaped_string st l c buf j =
  if j >= st.n then error l c "unterminated string"
  else
    match st.src.[j] with
    | '"' ->
        st.pos <- j + 1;
        emit st (Token.STRING (Buffer.contents buf)) l c
    | '\\' -> escape st l c buf j
    | ch ->
        if ch = '\n' then newline st j;
        Buffer.add_char buf ch;
        escaped_string st l c buf (j + 1)

let punct st token width l c =
  st.pos <- st.pos + width;
  emit st token l c

let rec lex st =
  skip_ws st;
  let i = st.pos in
  let l = st.line and c = col st i in
  if i >= st.n then emit st Token.EOF l c
  else begin
    let next = if i + 1 < st.n then st.src.[i + 1] else ' ' in
    (match st.src.[i] with
    | '{' -> punct st Token.LBRACE 1 l c
    | '}' -> punct st Token.RBRACE 1 l c
    | '(' -> punct st Token.LPAREN 1 l c
    | ')' -> punct st Token.RPAREN 1 l c
    | '[' -> punct st Token.LBRACKET 1 l c
    | ']' -> punct st Token.RBRACKET 1 l c
    | ';' -> punct st Token.SEMI 1 l c
    | ',' -> punct st Token.COMMA 1 l c
    | '.' -> punct st Token.DOT 1 l c
    | '@' -> punct st Token.AT 1 l c
    | '+' -> punct st Token.PLUS 1 l c
    | '-' -> punct st Token.MINUS 1 l c
    | '*' -> punct st Token.STAR 1 l c
    | '/' -> punct st Token.SLASH 1 l c
    | '=' ->
        if next = '=' then punct st Token.EQ 2 l c
        else punct st Token.ASSIGN 1 l c
    | '<' ->
        if next = '=' then punct st Token.LE 2 l c
        else if next = '>' then punct st Token.NEQ 2 l c
        else punct st Token.LT 1 l c
    | '>' ->
        if next = '=' then punct st Token.GE 2 l c
        else punct st Token.GT 1 l c
    | '"' -> plain_string st l c (i + 1) (i + 1)
    | ch when is_digit ch -> lex_number st l c
    | ch when is_alpha ch -> lex_ident st l c
    | ch -> error l c "unexpected character %C" ch);
    lex st
  end

let tokenize src =
  let n = String.length src in
  let st =
    { src; n; pos = 0; line = 1; bol = 0;
      toks = Array.make (min 256 (n + 1)) filler; len = 0 }
  in
  lex st;
  { toks = st.toks; len = st.len }
