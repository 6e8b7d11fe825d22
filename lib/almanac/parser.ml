exception Error of string

(* Structured variant carrying a positioned diagnostic; the legacy
   [program]/[expression] entry points convert it to [Error]. *)
exception Error_diag of Diagnostic.t

(* the tokens are [toks.(0)] to [toks.(len - 1)], the last [EOF] *)
type state = { toks : Lexer.located array; len : int; mutable pos : int }

let pos_of st =
  let { Lexer.line; col; _ } = st.toks.(st.pos) in
  { Ast.line; col }

let error st fmt =
  let { Lexer.token; line; col } = st.toks.(st.pos) in
  Printf.ksprintf
    (fun m ->
      raise
        (Error_diag
           (Diagnostic.error ~pos:{ Ast.line; col } ~code:"P002"
              (Printf.sprintf "%s (found %s)" m (Token.to_string token)))))
    fmt

let cur st = st.toks.(st.pos).Lexer.token

let peek st k =
  let i = st.pos + k in
  if i < st.len then st.toks.(i).Lexer.token else Token.EOF

let advance st = if st.pos < st.len - 1 then st.pos <- st.pos + 1

(* the current token is [tok] *)
let at st tok = Token.equal (cur st) tok

let eat st tok =
  if at st tok then advance st
  else error st "expected %s" (Token.to_string tok)

let accept st tok =
  if at st tok then begin
    advance st;
    true
  end
  else false

let ident st =
  match cur st with
  | Token.IDENT s ->
      advance st;
      s
  | _ -> error st "expected an identifier"

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let typ_of_token = function
  | Token.KW_BOOL -> Some Ast.Tbool
  | Token.KW_INT -> Some Ast.Tint
  | Token.KW_LONG -> Some Ast.Tlong
  | Token.KW_FLOAT -> Some Ast.Tfloat
  | Token.KW_STRING -> Some Ast.Tstring
  | Token.KW_LIST -> Some Ast.Tlist
  | Token.KW_PACKET -> Some Ast.Tpacket
  | Token.KW_ACTION -> Some Ast.Taction
  | Token.KW_FILTER -> Some Ast.Tfilter
  | Token.KW_STATS -> Some Ast.Tstats
  | Token.KW_RULE -> Some Ast.Trule
  | Token.KW_VOID -> Some Ast.Tunit
  | _ -> None

let parse_typ st =
  match cur st with
  | Token.IDENT "stats" ->
      advance st;
      Ast.Tstats
  | t -> (
      match typ_of_token t with
      | Some t ->
          advance st;
          t
      | None -> error st "expected a type")

(* Does a declaration start here?  [stats] is a soft keyword: it starts a
   declaration only when followed by an identifier. *)
let decl_starts st =
  match cur st with
  | Token.IDENT "stats" -> (
      match peek st 1 with Token.IDENT _ -> true | _ -> false)
  | t -> Option.is_some (typ_of_token t)

let trigger_type_of_token = function
  | Token.KW_TIME -> Some Ast.Time
  | Token.KW_POLL -> Some Ast.Poll
  | Token.KW_PROBE -> Some Ast.Probe
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let filter_head_of_ident = function
  | "srcIP" -> Some Ast.SrcIP
  | "dstIP" -> Some Ast.DstIP
  | "srcPort" -> Some Ast.SrcPort
  | "dstPort" -> Some Ast.DstPort
  | "port" -> Some Ast.PortF
  | "proto" -> Some Ast.ProtoF
  | _ -> None

let starts_filter_arg = function
  | Token.STRING _ | Token.INT _ | Token.KW_ANYCAP | Token.IDENT _ -> true
  | _ -> false

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if accept st Token.KW_OR then Ast.Binop (Ast.Or, lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_cmp st in
  if accept st Token.KW_AND then Ast.Binop (Ast.And, lhs, parse_and st)
  else lhs

and parse_cmp st =
  let lhs = parse_add st in
  let op =
    match cur st with
    | Token.EQ -> Some Ast.Eq
    | Token.NEQ -> Some Ast.Neq
    | Token.LE -> Some Ast.Le
    | Token.GE -> Some Ast.Ge
    | Token.LT -> Some Ast.Lt
    | Token.GT -> Some Ast.Gt
    | _ -> None
  in
  match op with
  | Some op ->
      advance st;
      Ast.Binop (op, lhs, parse_add st)
  | None -> lhs

and parse_add st =
  let rec go lhs =
    match cur st with
    | Token.PLUS ->
        advance st;
        go (Ast.Binop (Ast.Add, lhs, parse_mul st))
    | Token.MINUS ->
        advance st;
        go (Ast.Binop (Ast.Sub, lhs, parse_mul st))
    | _ -> lhs
  in
  go (parse_mul st)

and parse_mul st =
  let rec go lhs =
    match cur st with
    | Token.STAR ->
        advance st;
        go (Ast.Binop (Ast.Mul, lhs, parse_unary st))
    | Token.SLASH ->
        advance st;
        go (Ast.Binop (Ast.Div, lhs, parse_unary st))
    | _ -> lhs
  in
  go (parse_unary st)

and parse_unary st =
  match cur st with
  | Token.KW_NOT ->
      advance st;
      Ast.Unop (Ast.Not, parse_unary st)
  | Token.MINUS ->
      advance st;
      Ast.Unop (Ast.Neg, parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let rec fields e =
    if accept st Token.DOT then fields (Ast.Field (e, ident st)) else e
  in
  fields (parse_primary st)

and parse_args st =
  eat st Token.LPAREN;
  if accept st Token.RPAREN then []
  else begin
    let rec go acc =
      let e = parse_expr st in
      if accept st Token.COMMA then go (e :: acc)
      else begin
        eat st Token.RPAREN;
        List.rev (e :: acc)
      end
    in
    go []
  end

and parse_struct_lit st name =
  eat st Token.LBRACE;
  let rec go acc =
    if accept st Token.RBRACE then List.rev acc
    else begin
      eat st Token.DOT;
      let field = ident st in
      eat st Token.ASSIGN;
      let e = parse_expr st in
      let acc = (field, e) :: acc in
      if accept st Token.COMMA then go acc
      else begin
        eat st Token.RBRACE;
        List.rev acc
      end
    end
  in
  Ast.StructLit (name, go [])

and parse_primary st =
  match cur st with
  | Token.INT i ->
      advance st;
      Ast.Int i
  | Token.FLOAT f ->
      advance st;
      Ast.Float f
  | Token.STRING s ->
      advance st;
      Ast.String s
  | Token.KW_TRUE ->
      advance st;
      Ast.Bool true
  | Token.KW_FALSE ->
      advance st;
      Ast.Bool false
  | Token.KW_ANYCAP ->
      advance st;
      Ast.AnyLit
  | Token.LPAREN ->
      advance st;
      let e = parse_expr st in
      eat st Token.RPAREN;
      e
  | Token.LBRACKET ->
      advance st;
      if accept st Token.RBRACKET then Ast.ListLit []
      else begin
        let rec go acc =
          let e = parse_expr st in
          if accept st Token.COMMA then go (e :: acc)
          else begin
            eat st Token.RBRACKET;
            List.rev (e :: acc)
          end
        in
        Ast.ListLit (go [])
      end
  | Token.IDENT name -> (
      match filter_head_of_ident name with
      | Some head when starts_filter_arg (peek st 1) ->
          advance st;
          let arg =
            match cur st with
            | Token.KW_ANYCAP ->
                advance st;
                Ast.AnyLit
            | Token.STRING s ->
                advance st;
                Ast.String s
            | Token.INT i ->
                advance st;
                Ast.Int i
            | Token.IDENT _ ->
                (* variables, calls and field accesses are all valid
                   filter arguments: [dstIP protected], [srcIP p.srcIP],
                   [srcIP nth(attackers, i)] *)
                parse_postfix st
            | _ -> error st "expected a filter argument"
          in
          Ast.FilterAtom (head, arg)
      | _ ->
          advance st;
          if at st Token.LPAREN then Ast.Call (name, parse_args st)
          else if at st Token.LBRACE && Token.equal (peek st 1) Token.DOT then
            parse_struct_lit st name
          else Ast.Var name)
  | _ -> error st "expected an expression"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let parse_dest st =
  match cur st with
  | Token.KW_HARVESTER ->
      advance st;
      Ast.Harvester
  | Token.IDENT m ->
      advance st;
      if accept st Token.AT then Ast.Machine (m, Some (parse_expr st))
      else Ast.Machine (m, None)
  | _ -> error st "expected a message destination"

let rec parse_stmt st =
  let sloc = pos_of st in
  { Ast.sk = parse_stmt_kind st; sloc }

and parse_stmt_kind st =
  match cur st with
  | Token.KW_IF ->
      advance st;
      eat st Token.LPAREN;
      let cond = parse_expr st in
      eat st Token.RPAREN;
      eat st Token.KW_THEN;
      let then_ = parse_block st in
      let else_ =
        if accept st Token.KW_ELSE then
          (* allow both [else { ... }] and [else if ...] *)
          if at st Token.KW_IF then [ parse_stmt st ] else parse_block st
        else []
      in
      Ast.If (cond, then_, else_)
  | Token.KW_WHILE ->
      advance st;
      eat st Token.LPAREN;
      let cond = parse_expr st in
      eat st Token.RPAREN;
      let body = parse_block st in
      Ast.While (cond, body)
  | Token.KW_RETURN ->
      advance st;
      if accept st Token.SEMI then Ast.Return None
      else begin
        let e = parse_expr st in
        eat st Token.SEMI;
        Ast.Return (Some e)
      end
  | Token.KW_TRANSIT ->
      advance st;
      let e = parse_expr st in
      eat st Token.SEMI;
      Ast.Transit e
  | Token.KW_SEND ->
      advance st;
      let e = parse_expr st in
      eat st Token.KW_TO;
      let d = parse_dest st in
      eat st Token.SEMI;
      Ast.Send (e, d)
  | _ when decl_starts st ->
      let typ = parse_typ st in
      let name = ident st in
      let init = if accept st Token.ASSIGN then Some (parse_expr st) else None in
      eat st Token.SEMI;
      Ast.Decl (typ, name, init)
  | Token.IDENT name when Token.equal (peek st 1) Token.ASSIGN ->
      advance st;
      advance st;
      let e = parse_expr st in
      eat st Token.SEMI;
      Ast.Assign (name, e)
  | _ ->
      let e = parse_expr st in
      eat st Token.SEMI;
      Ast.ExprStmt e

and parse_block st =
  eat st Token.LBRACE;
  let rec go acc =
    if accept st Token.RBRACE then List.rev acc
    else go (parse_stmt st :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let parse_trigger st =
  match cur st with
  | Token.KW_ENTER ->
      advance st;
      Ast.On_enter
  | Token.KW_EXIT ->
      advance st;
      Ast.On_exit
  | Token.KW_REALLOC ->
      advance st;
      Ast.On_realloc
  | Token.KW_RECV ->
      advance st;
      let typ = parse_typ st in
      let name = ident st in
      eat st Token.KW_FROM;
      let d = parse_dest st in
      Ast.On_recv (typ, name, d)
  | Token.IDENT y ->
      advance st;
      if accept st Token.KW_AS then Ast.On_trigger_var (y, Some (ident st))
      else Ast.On_trigger_var (y, None)
  | _ -> error st "expected an event trigger"

let parse_event st ~loc =
  (* the [when] keyword has been consumed; [loc] is its position *)
  eat st Token.LPAREN;
  let trigger = parse_trigger st in
  eat st Token.RPAREN;
  eat st Token.KW_DO;
  let body = parse_block st in
  { Ast.trigger; body; evloc = loc }

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let parse_var_decl st ~is_external =
  let vloc = pos_of st in
  let vtyp = parse_typ st in
  let vname = ident st in
  let vinit = if accept st Token.ASSIGN then Some (parse_expr st) else None in
  eat st Token.SEMI;
  { Ast.is_external; vtyp; vname; vinit; vloc }

let parse_trig_decl st =
  let tloc = pos_of st in
  let ttyp =
    match trigger_type_of_token (cur st) with
    | Some t ->
        advance st;
        t
    | None -> error st "expected a trigger type"
  in
  let tname = ident st in
  let tinit = if accept st Token.ASSIGN then Some (parse_expr st) else None in
  eat st Token.SEMI;
  { Ast.ttyp; tname; tinit; tloc }

let parse_util st ~loc =
  (* the [util] keyword has been consumed; [loc] is its position *)
  eat st Token.LPAREN;
  let uparam = ident st in
  eat st Token.RPAREN;
  let ubody = parse_block st in
  { Ast.uparam; ubody; uloc = loc }

let parse_state st ~loc =
  (* the [state] keyword has been consumed; [loc] is its position *)
  let sname = ident st in
  eat st Token.LBRACE;
  let locals = ref [] and util = ref None and events = ref [] in
  let rec go () =
    if accept st Token.RBRACE then ()
    else begin
      (match cur st with
      | Token.KW_UTIL ->
          let uloc = pos_of st in
          advance st;
          if Option.is_some !util then error st "duplicate util block";
          util := Some (parse_util st ~loc:uloc)
      | Token.KW_WHEN ->
          let evloc = pos_of st in
          advance st;
          events := parse_event st ~loc:evloc :: !events
      | Token.KW_EXTERNAL ->
          error st "external variables are not allowed inside states"
      | _ when decl_starts st ->
          locals := parse_var_decl st ~is_external:false :: !locals
      | _ -> error st "expected a state item (variable, util or when)");
      go ()
    end
  in
  go ();
  { Ast.sname; slocals = List.rev !locals; sutil = !util;
    sevents = List.rev !events; stloc = loc }

let parse_place st ~loc =
  (* the [place] keyword has been consumed; [loc] is its position *)
  let pquant =
    match cur st with
    | Token.KW_ALL ->
        advance st;
        Ast.QAll
    | Token.KW_ANY ->
        advance st;
        Ast.QAny
    | _ -> error st "expected 'all' or 'any'"
  in
  if accept st Token.SEMI then
    { Ast.pquant; pconstraint = Ast.Anywhere; ploc = loc }
  else begin
    let role =
      match cur st with
      | Token.KW_SENDER ->
          advance st;
          Some Ast.Sender
      | Token.KW_RECEIVER ->
          advance st;
          Some Ast.Receiver
      | Token.KW_MIDPOINT ->
          advance st;
          Some Ast.Midpoint
      | _ -> None
    in
    match role with
    | Some role ->
        let pfilter =
          if at st Token.KW_RANGE then None else Some (parse_expr st)
        in
        eat st Token.KW_RANGE;
        let rop =
          match cur st with
          | Token.EQ -> Ast.Eq
          | Token.LE -> Ast.Le
          | Token.GE -> Ast.Ge
          | Token.LT -> Ast.Lt
          | Token.GT -> Ast.Gt
          | _ -> error st "expected a range comparison"
        in
        advance st;
        let rbound = parse_expr st in
        eat st Token.SEMI;
        { Ast.pquant;
          pconstraint = Ast.On_range { role; pfilter; rop; rbound };
          ploc = loc }
    | None ->
        (* explicit node list *)
        let rec go acc =
          let e = parse_expr st in
          if accept st Token.COMMA then go (e :: acc)
          else begin
            eat st Token.SEMI;
            List.rev (e :: acc)
          end
        in
        { Ast.pquant; pconstraint = Ast.At_nodes (go []); ploc = loc }
  end

let parse_machine st ~loc =
  (* the [machine] keyword has been consumed; [loc] is its position *)
  let mname = ident st in
  let extends = if accept st Token.KW_EXTENDS then Some (ident st) else None in
  eat st Token.LBRACE;
  let places = ref [] and vars = ref [] and trigs = ref [] in
  let states = ref [] and events = ref [] in
  let rec go () =
    if accept st Token.RBRACE then ()
    else begin
      (match cur st with
      | Token.KW_PLACE ->
          let ploc = pos_of st in
          advance st;
          places := parse_place st ~loc:ploc :: !places
      | Token.KW_STATE ->
          let stloc = pos_of st in
          advance st;
          states := parse_state st ~loc:stloc :: !states
      | Token.KW_WHEN ->
          let evloc = pos_of st in
          advance st;
          events := parse_event st ~loc:evloc :: !events
      | Token.KW_EXTERNAL ->
          advance st;
          vars := parse_var_decl st ~is_external:true :: !vars
      | t when Option.is_some (trigger_type_of_token t) ->
          trigs := parse_trig_decl st :: !trigs
      | _ when decl_starts st ->
          vars := parse_var_decl st ~is_external:false :: !vars
      | _ -> error st "expected a machine item");
      go ()
    end
  in
  go ();
  { Ast.mname; extends; places = List.rev !places; mvars = List.rev !vars;
    mtrigs = List.rev !trigs; states = List.rev !states;
    mevents = List.rev !events; mloc = loc }

let parse_fundec st =
  let floc = pos_of st in
  let fret = parse_typ st in
  let fname = ident st in
  eat st Token.LPAREN;
  let fparams =
    if accept st Token.RPAREN then []
    else begin
      let rec go acc =
        let t = parse_typ st in
        let n = ident st in
        if accept st Token.COMMA then go ((t, n) :: acc)
        else begin
          eat st Token.RPAREN;
          List.rev ((t, n) :: acc)
        end
      in
      go []
    end
  in
  let fbody = parse_block st in
  { Ast.fname; fret; fparams; fbody; floc }

let parse_program st =
  let funcs = ref [] and machines = ref [] in
  let rec go () =
    match cur st with
    | Token.EOF -> ()
    | Token.KW_MACHINE ->
        let mloc = pos_of st in
        advance st;
        machines := parse_machine st ~loc:mloc :: !machines;
        go ()
    | t when Option.is_some (typ_of_token t) ->
        funcs := parse_fundec st :: !funcs;
        go ()
    | _ -> error st "expected a machine or function declaration"
  in
  go ();
  { Ast.funcs = List.rev !funcs; machines = List.rev !machines }

let make_state src =
  let { Lexer.toks; len } =
    try Lexer.tokenize src
    with Lexer.Error (pos, message) ->
      raise (Error_diag (Diagnostic.error ~pos ~code:"P001" message))
  in
  { toks; len; pos = 0 }

(* Legacy string payload: "line:col: message", as before diagnostics. *)
let string_of_diag (d : Diagnostic.t) =
  if d.pos = Ast.no_pos then d.message
  else Printf.sprintf "%s: %s" (Ast.pos_to_string d.pos) d.message

let program_result src =
  try Ok (parse_program (make_state src))
  with Error_diag d -> Stdlib.Error d

let program src =
  try parse_program (make_state src)
  with Error_diag d -> raise (Error (string_of_diag d))

let expression src =
  try
    let st = make_state src in
    let e = parse_expr st in
    if not (at st Token.EOF) then error st "trailing input after expression";
    e
  with Error_diag d -> raise (Error (string_of_diag d))
