(* The XML layer of the seed interchange format (see xml.mli).  The
   writer appends into one [Buffer]: escaping copies the unescaped runs of
   a value with [Buffer.add_substring] and writes only the entities, so
   serializing a tree allocates little beyond the output itself.  The
   escape table is shared with writers that emit the same markup without
   a tree ([Farm_runtime.Checkpoint]), through [add_escaped] and
   [escaped_length]. *)

type t = Element of string * (string * string) list * t list | Text of string

let element ?(attrs = []) name children = Element (name, attrs, children)
let text s = Text s

let name = function
  | Element (n, _, _) -> n
  | Text _ -> invalid_arg "Xml.name: text node"

let attr t key =
  match t with
  | Element (_, attrs, _) -> List.assoc_opt key attrs
  | Text _ -> None

let attr_exn t key =
  match attr t key with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Xml.attr_exn: missing attribute %S on <%s>" key
           (match t with Element (n, _, _) -> n | Text _ -> "#text"))

let children = function Element (_, _, c) -> c | Text _ -> []

let select t n =
  List.filter
    (function Element (n', _, _) -> n' = n | Text _ -> false)
    (children t)

let first t n = match select t n with x :: _ -> Some x | [] -> None

let rec text_content = function
  | Text s -> s
  | Element (_, _, c) -> String.concat "" (List.map text_content c)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* The five characters escaped in text and attribute values, and their
   entities; [""] for every other character. *)
let entity = function
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '&' -> "&amp;"
  | '"' -> "&quot;"
  | '\'' -> "&apos;"
  | _ -> ""

let add_escaped buf s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let e = entity s.[i] in
    if String.length e > 0 then begin
      Buffer.add_substring buf s !run (i - !run);
      Buffer.add_string buf e;
      run := i + 1
    end
  done;
  Buffer.add_substring buf s !run (n - !run)

let escaped_length s =
  let n = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    let e = String.length (entity s.[i]) in
    if e > 0 then n := !n + e - 1
  done;
  !n

let to_string ?(indent = true) t =
  let buf = Buffer.create 1024 in
  let newline () = if indent then Buffer.add_char buf '\n' in
  let pad depth =
    if indent then
      for _ = 1 to 2 * depth do
        Buffer.add_char buf ' '
      done
  in
  let rec go depth t =
    pad depth;
    match t with
    | Text s ->
        add_escaped buf s;
        newline ()
    | Element (n, attrs, kids) -> (
        Buffer.add_char buf '<';
        Buffer.add_string buf n;
        List.iter
          (fun (k, v) ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf k;
            Buffer.add_string buf "=\"";
            add_escaped buf v;
            Buffer.add_char buf '"')
          attrs;
        match kids with
        | [] ->
            Buffer.add_string buf "/>";
            newline ()
        | kids ->
            Buffer.add_char buf '>';
            newline ();
            List.iter (go (depth + 1)) kids;
            pad depth;
            Buffer.add_string buf "</";
            Buffer.add_string buf n;
            Buffer.add_char buf '>';
            newline ())
  in
  go 0 t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

(* the character at the cursor satisfies [p]: the scanning loops test
   this, or the cursor directly, rather than [peek], which allocates an
   option per character *)
let holds c p = c.pos < String.length c.src && p c.src.[c.pos]
let advance c = c.pos <- c.pos + 1

(* [s] occurs in [src] at [pos + i], compared from its [i]th character
   in place *)
let rec occurs_at src pos s i =
  i = String.length s
  || (pos + i < String.length src
     && src.[pos + i] = s.[i]
     && occurs_at src pos s (i + 1))

let starts_with c s = occurs_at c.src c.pos s 0

let skip c s = c.pos <- c.pos + String.length s

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false
let skip_ws c = while holds c is_space do advance c done

let rec skip_misc c =
  skip_ws c;
  if starts_with c "<?" then begin
    (match String.index_from_opt c.src c.pos '>' with
    | Some i -> c.pos <- i + 1
    | None -> fail "unterminated prolog");
    skip_misc c
  end
  else if starts_with c "<!--" then begin
    let rec go i =
      if i + 3 > String.length c.src then fail "unterminated comment"
      else if occurs_at c.src i "-->" 0 then c.pos <- i + 3
      else go (i + 1)
    in
    go (c.pos + 4);
    skip_misc c
  end

let is_name_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '-' || ch = ':' || ch = '.'

let parse_name c =
  let start = c.pos in
  while holds c is_name_char do advance c done;
  if c.pos = start then fail "expected a name at offset %d" c.pos;
  String.sub c.src start (c.pos - start)

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '&' then begin
      let j = try String.index_from s !i ';' with Not_found -> fail "bad entity" in
      (match String.sub s (!i + 1) (j - !i - 1) with
      | "lt" -> Buffer.add_char buf '<'
      | "gt" -> Buffer.add_char buf '>'
      | "amp" -> Buffer.add_char buf '&'
      | "quot" -> Buffer.add_char buf '"'
      | "apos" -> Buffer.add_char buf '\''
      | e -> fail "unknown entity &%s;" e);
      i := j + 1
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let parse_attrs c =
  let attrs = ref [] in
  let rec go () =
    skip_ws c;
    match peek c with
    | Some ch when is_name_char ch ->
        let key = parse_name c in
        skip_ws c;
        (match peek c with
        | Some '=' -> advance c
        | _ -> fail "expected '=' after attribute %s" key);
        skip_ws c;
        let quote =
          match peek c with
          | Some (('"' | '\'') as q) ->
              advance c;
              q
          | _ -> fail "expected a quoted attribute value"
        in
        let start = c.pos in
        while c.pos < String.length c.src && c.src.[c.pos] <> quote do
          advance c
        done;
        (match peek c with
        | Some _ -> ()
        | None -> fail "unterminated attribute value");
        let v = String.sub c.src start (c.pos - start) in
        advance c;
        attrs := (key, unescape v) :: !attrs;
        go ()
    | _ -> ()
  in
  go ();
  List.rev !attrs

let rec parse_element c =
  if not (starts_with c "<") then fail "expected '<' at offset %d" c.pos;
  advance c;
  let tag = parse_name c in
  let attrs = parse_attrs c in
  skip_ws c;
  if starts_with c "/>" then begin
    skip c "/>";
    Element (tag, attrs, [])
  end
  else if starts_with c ">" then begin
    advance c;
    let kids = ref [] in
    let rec go () =
      if peek c = None then fail "unterminated <%s>" tag
      else if starts_with c "</" then begin
        skip c "</";
        let close = parse_name c in
        if close <> tag then fail "mismatched </%s> for <%s>" close tag;
        skip_ws c;
        if starts_with c ">" then advance c else fail "expected '>'"
      end
      else if starts_with c "<!--" then begin
        skip_misc c;
        go ()
      end
      else if starts_with c "<" then begin
        kids := parse_element c :: !kids;
        go ()
      end
      else begin
        let start = c.pos in
        while c.pos < String.length c.src && c.src.[c.pos] <> '<' do
          advance c
        done;
        let s = unescape (String.sub c.src start (c.pos - start)) in
        if String.trim s <> "" then kids := Text s :: !kids;
        go ()
      end
    in
    go ();
    Element (tag, attrs, List.rev !kids)
  end
  else fail "malformed tag <%s" tag

let parse src =
  let c = { src; pos = 0 } in
  skip_misc c;
  let e = parse_element c in
  skip_ws c;
  e
