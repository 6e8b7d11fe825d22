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

(* The scanning loops below test the character at the cursor against the
   length directly, with no [char option] and no predicate passed as a
   closure per character. *)
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

(* the first offset of [ch] in [src.[i .. stop - 1]], or [stop] *)
let rec index_upto src i stop ch =
  if i >= stop || src.[i] = ch then i else index_upto src (i + 1) stop ch

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws c =
  while c.pos < String.length c.src && is_space c.src.[c.pos] do
    advance c
  done

(* the comment at the cursor, and nothing after it *)
let skip_comment c =
  let rec go i =
    if i + 3 > String.length c.src then fail "unterminated comment"
    else if occurs_at c.src i "-->" 0 then c.pos <- i + 3
    else go (i + 1)
  in
  go (c.pos + 4)

let rec skip_misc c =
  skip_ws c;
  if starts_with c "<?" then begin
    (match String.index_from_opt c.src c.pos '>' with
    | Some i -> c.pos <- i + 1
    | None -> fail "unterminated prolog");
    skip_misc c
  end
  else if starts_with c "<!--" then begin
    skip_comment c;
    skip_misc c
  end

let is_name_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '-' || ch = ':' || ch = '.'

(* the offset after the name at the cursor *)
let name_end c =
  let src = c.src in
  let j = ref c.pos in
  while !j < String.length src && is_name_char src.[!j] do
    incr j
  done;
  if !j = c.pos then fail "expected a name at offset %d" c.pos;
  !j

let parse_name c =
  let start = c.pos in
  c.pos <- name_end c;
  String.sub c.src start (c.pos - start)

(* [src.[start .. stop - 1]] with its entities replaced; a run without
   [&] is one [String.sub] *)
let unescape src start stop =
  if index_upto src start stop '&' = stop then
    String.sub src start (stop - start)
  else begin
    let buf = Buffer.create (stop - start) in
    let i = ref start in
    while !i < stop do
      if src.[!i] = '&' then begin
        let j = index_upto src !i stop ';' in
        if j = stop then fail "bad entity";
        (match String.sub src (!i + 1) (j - !i - 1) with
        | "lt" -> Buffer.add_char buf '<'
        | "gt" -> Buffer.add_char buf '>'
        | "amp" -> Buffer.add_char buf '&'
        | "quot" -> Buffer.add_char buf '"'
        | "apos" -> Buffer.add_char buf '\''
        | e -> fail "unknown entity &%s;" e);
        i := j + 1
      end
      else begin
        Buffer.add_char buf src.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

(* [src.[start .. stop - 1]] is blank by [String.trim]'s measure *)
let rec blank src start stop =
  start >= stop
  || (match src.[start] with
     | ' ' | '\012' | '\n' | '\r' | '\t' -> true
     | _ -> false)
     && blank src (start + 1) stop

(* The readers below recurse with an accumulator rather than closing
   over a list ref, so an element costs no closure. *)
let rec parse_attrs c acc =
  skip_ws c;
  let src = c.src in
  let n = String.length src in
  if c.pos < n && is_name_char src.[c.pos] then begin
    let key = parse_name c in
    skip_ws c;
    if c.pos < n && src.[c.pos] = '=' then advance c
    else fail "expected '=' after attribute %s" key;
    skip_ws c;
    let quote = if c.pos < n then src.[c.pos] else ' ' in
    if quote <> '"' && quote <> '\'' then
      fail "expected a quoted attribute value";
    advance c;
    let start = c.pos in
    let stop = index_upto src start n quote in
    if stop = n then fail "unterminated attribute value";
    c.pos <- stop + 1;
    parse_attrs c ((key, unescape src start stop) :: acc)
  end
  else List.rev acc

let rec parse_element c =
  if not (starts_with c "<") then fail "expected '<' at offset %d" c.pos;
  advance c;
  let tag = parse_name c in
  let attrs = parse_attrs c [] in
  skip_ws c;
  if starts_with c "/>" then begin
    skip c "/>";
    Element (tag, attrs, [])
  end
  else if starts_with c ">" then begin
    advance c;
    Element (tag, attrs, parse_children c tag [])
  end
  else fail "malformed tag <%s" tag

(* the children of [tag] up to its closing tag, which is compared in
   place and cut only for the error *)
and parse_children c tag acc =
  let src = c.src in
  if c.pos >= String.length src then fail "unterminated <%s>" tag
  else if starts_with c "</" then begin
    skip c "</";
    let start = c.pos in
    let stop = name_end c in
    if stop - start <> String.length tag || not (occurs_at src start tag 0)
    then
      fail "mismatched </%s> for <%s>"
        (String.sub src start (stop - start))
        tag;
    c.pos <- stop;
    skip_ws c;
    if starts_with c ">" then advance c else fail "expected '>'";
    List.rev acc
  end
  else if starts_with c "<!--" then begin
    skip_comment c;
    parse_children c tag acc
  end
  else if starts_with c "<" then begin
    let kid = parse_element c in
    parse_children c tag (kid :: acc)
  end
  else begin
    let start = c.pos in
    let stop = index_upto src start (String.length src) '<' in
    c.pos <- stop;
    (* blank runs between elements are layout, not text *)
    if blank src start stop then parse_children c tag acc
    else parse_children c tag (Text (unescape src start stop) :: acc)
  end

let parse src =
  let c = { src; pos = 0 } in
  skip_misc c;
  let e = parse_element c in
  skip_ws c;
  e
