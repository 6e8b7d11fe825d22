type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type t = {
  code : string;
  severity : severity;
  pos : Ast.pos;
  file : string option;
  message : string;
}

let make ?file ?(pos = Ast.no_pos) severity ~code message =
  { code; severity; pos; file; message }

let error ?file ?pos ~code message = make ?file ?pos Error ~code message
let warning ?file ?pos ~code message = make ?file ?pos Warning ~code message

let errorf ?file ?pos ~code fmt =
  Printf.ksprintf (error ?file ?pos ~code) fmt

let warningf ?file ?pos ~code fmt =
  Printf.ksprintf (warning ?file ?pos ~code) fmt

let with_file file ds =
  List.map
    (fun d -> match d.file with Some _ -> d | None -> { d with file = Some file })
    ds

let compare_diag a b =
  let c = compare (a.pos.Ast.line, a.pos.Ast.col) (b.pos.Ast.line, b.pos.Ast.col) in
  if c <> 0 then c
  else
    let c = compare a.code b.code in
    if c <> 0 then c else compare a.message b.message

let sort ds = List.stable_sort compare_diag ds

let is_error d = d.severity = Error
let has_errors ds = List.exists is_error ds

let to_string d =
  let b = Buffer.create 64 in
  (match d.file with
  | Some f ->
      Buffer.add_string b f;
      Buffer.add_char b ':'
  | None -> ());
  if d.pos <> Ast.no_pos then begin
    Buffer.add_string b (Ast.pos_to_string d.pos);
    Buffer.add_string b ": "
  end
  else if d.file <> None then Buffer.add_char b ' ';
  Buffer.add_string b (severity_to_string d.severity);
  Buffer.add_char b '[';
  Buffer.add_string b d.code;
  Buffer.add_string b "]: ";
  Buffer.add_string b d.message;
  Buffer.contents b

let pp fmt d = Format.pp_print_string fmt (to_string d)

let print_all oc ds =
  List.iter (fun d -> Printf.fprintf oc "%s\n" (to_string d)) (sort ds)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json ds =
  let one d =
    Printf.sprintf
      "{\"file\":%s,\"line\":%d,\"col\":%d,\"code\":\"%s\",\"severity\":\"%s\",\"message\":\"%s\"}"
      (match d.file with
      | Some f -> Printf.sprintf "\"%s\"" (json_escape f)
      | None -> "null")
      d.pos.Ast.line d.pos.Ast.col (json_escape d.code)
      (severity_to_string d.severity)
      (json_escape d.message)
  in
  "[" ^ String.concat "," (List.map one (sort ds)) ^ "]"
