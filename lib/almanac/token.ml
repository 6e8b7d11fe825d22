(** Lexical tokens of Almanac. *)

type t =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  (* keywords *)
  | KW_MACHINE
  | KW_EXTENDS
  | KW_STATE
  | KW_PLACE
  | KW_ALL
  | KW_ANY  (* quantifier in [place] *)
  | KW_ANYCAP  (* the [ANY] wildcard literal *)
  | KW_SENDER
  | KW_RECEIVER
  | KW_MIDPOINT
  | KW_RANGE
  | KW_UTIL
  | KW_WHEN
  | KW_DO
  | KW_RECV
  | KW_FROM
  | KW_HARVESTER
  | KW_ENTER
  | KW_EXIT
  | KW_REALLOC
  | KW_AS
  | KW_TRANSIT
  | KW_SEND
  | KW_TO
  | KW_IF
  | KW_THEN
  | KW_ELSE
  | KW_WHILE
  | KW_RETURN
  | KW_EXTERNAL
  | KW_TRUE
  | KW_FALSE
  | KW_AND
  | KW_OR
  | KW_NOT
  (* types *)
  | KW_BOOL
  | KW_INT
  | KW_LONG
  | KW_FLOAT
  | KW_STRING
  | KW_LIST
  | KW_PACKET
  | KW_ACTION
  | KW_FILTER
  | KW_STATS
  | KW_RULE
  | KW_VOID
  (* trigger types *)
  | KW_TIME
  | KW_POLL
  | KW_PROBE
  (* punctuation / operators *)
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | DOT
  | AT
  | ASSIGN  (* = *)
  | EQ  (* == *)
  | NEQ  (* <> *)
  | LE
  | GE
  | LT
  | GT
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | EOF

let keyword_table : (string * t) list =
  [ ("machine", KW_MACHINE); ("extends", KW_EXTENDS); ("state", KW_STATE);
    ("place", KW_PLACE); ("all", KW_ALL); ("any", KW_ANY); ("ANY", KW_ANYCAP);
    ("sender", KW_SENDER); ("receiver", KW_RECEIVER);
    ("midpoint", KW_MIDPOINT); ("range", KW_RANGE); ("util", KW_UTIL);
    ("when", KW_WHEN); ("do", KW_DO); ("recv", KW_RECV); ("from", KW_FROM);
    ("harvester", KW_HARVESTER); ("enter", KW_ENTER); ("exit", KW_EXIT);
    ("realloc", KW_REALLOC); ("as", KW_AS); ("transit", KW_TRANSIT);
    ("send", KW_SEND); ("to", KW_TO); ("if", KW_IF); ("then", KW_THEN);
    ("else", KW_ELSE); ("while", KW_WHILE); ("return", KW_RETURN);
    ("external", KW_EXTERNAL); ("true", KW_TRUE); ("false", KW_FALSE);
    ("and", KW_AND); ("or", KW_OR); ("not", KW_NOT); ("bool", KW_BOOL);
    ("int", KW_INT); ("long", KW_LONG); ("float", KW_FLOAT);
    ("string", KW_STRING); ("list", KW_LIST); ("packet", KW_PACKET);
    (* "stats" is a soft keyword: it names a type but the paper's own
       examples also use it as a variable ([when (pollStats as stats)]),
       so the parser recognizes it contextually *)
    ("action", KW_ACTION); ("filter", KW_FILTER);
    ("rule", KW_RULE); ("void", KW_VOID); ("time", KW_TIME);
    ("poll", KW_POLL); ("probe", KW_PROBE) ]

(* Tokens compared without the generic [compare]: a constant constructor
   is an immediate, so [==] decides it; the four carrying constructors
   compare their payloads, the float by IEEE [=]. *)
let equal a b =
  match (a, b) with
  | IDENT x, IDENT y -> String.equal x y
  | INT x, INT y -> Int.equal x y
  | FLOAT x, FLOAT y -> x = y
  | STRING x, STRING y -> String.equal x y
  | (IDENT _ | INT _ | FLOAT _ | STRING _), _
  | _, (IDENT _ | INT _ | FLOAT _ | STRING _) ->
      false
  | a, b -> a == b

let to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT i -> Printf.sprintf "integer %d" i
  | FLOAT f -> Printf.sprintf "float %g" f
  | STRING s -> Printf.sprintf "string %S" s
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | SEMI -> "';'"
  | COMMA -> "','"
  | DOT -> "'.'"
  | AT -> "'@'"
  | ASSIGN -> "'='"
  | EQ -> "'=='"
  | NEQ -> "'<>'"
  | LE -> "'<='"
  | GE -> "'>='"
  | LT -> "'<'"
  | GT -> "'>'"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | EOF -> "end of input"
  | t -> (
      match List.find_opt (fun (_, tok) -> equal tok t) keyword_table with
      | Some (kw, _) -> Printf.sprintf "keyword %S" kw
      | None -> "token")
