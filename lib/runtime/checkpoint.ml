module Value = Farm_almanac.Value
module Xml = Farm_almanac.Xml
module Filter = Farm_net.Filter
module Tcam = Farm_net.Tcam
module Flow = Farm_net.Flow
module Ipaddr = Farm_net.Ipaddr

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

let float_of_attr s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail "bad float %S" s

let int_of_attr s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail "bad int %S" s

let bool_of_attr = function
  | "1" -> true
  | "0" -> false
  | s -> fail "bad bool %S" s

(* ------------------------------------------------------------------ *)
(* Filters                                                             *)
(* ------------------------------------------------------------------ *)

let proto_of_attr s =
  match Flow.proto_of_string s with
  | Some p -> p
  | None -> fail "bad proto %S" s

let atom_of_xml x =
  let v () = Xml.attr_exn x "v" in
  let prefix () =
    match Ipaddr.Prefix.of_string_opt (v ()) with
    | Some p -> p
    | None -> fail "bad prefix %S" (v ())
  in
  match Xml.name x with
  | "srcip" -> Filter.Src_ip (prefix ())
  | "dstip" -> Filter.Dst_ip (prefix ())
  | "srcport" -> Filter.Src_port (int_of_attr (v ()))
  | "dstport" -> Filter.Dst_port (int_of_attr (v ()))
  | "port" -> Filter.Port (int_of_attr (v ()))
  | "proto" -> Filter.Proto (proto_of_attr (v ()))
  | "anyatom" -> Filter.Any
  | n -> fail "unknown filter atom <%s>" n

let rec filter_of_xml x =
  let two () =
    match Xml.children x with
    | [ a; b ] -> (filter_of_xml a, filter_of_xml b)
    | l -> fail "<%s> wants 2 children, got %d" (Xml.name x) (List.length l)
  in
  match Xml.name x with
  | "t" -> Filter.True
  | "f" -> Filter.False
  | "and" ->
      let a, b = two () in
      Filter.And (a, b)
  | "or" ->
      let a, b = two () in
      Filter.Or (a, b)
  | "not" -> (
      match Xml.children x with
      | [ a ] -> Filter.Not (filter_of_xml a)
      | _ -> fail "<not> wants 1 child")
  | _ -> Filter.Atom (atom_of_xml x)

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let action_of_xml x =
  let arg () = Xml.attr_exn x "arg" in
  match Xml.attr_exn x "kind" with
  | "forward" -> Tcam.Forward (int_of_attr (arg ()))
  | "drop" -> Tcam.Drop
  | "ratelimit" -> Tcam.Rate_limit (float_of_attr (arg ()))
  | "setqos" -> Tcam.Set_qos (int_of_attr (arg ()))
  | "mirror" -> Tcam.Mirror
  | "count" -> Tcam.Count
  | k -> fail "unknown action kind %S" k

let packet_of_xml x : Flow.packet =
  let a k = Xml.attr_exn x k in
  let addr k =
    match Ipaddr.of_string_opt (a k) with
    | Some ip -> ip
    | None -> fail "bad address %S" (a k)
  in
  { tuple =
      { src = addr "src"; dst = addr "dst"; sport = int_of_attr (a "sport");
        dport = int_of_attr (a "dport"); proto = proto_of_attr (a "proto") };
    size = int_of_attr (a "size");
    flags =
      { syn = bool_of_attr (a "syn"); ack = bool_of_attr (a "ack");
        fin = bool_of_attr (a "fin"); rst = bool_of_attr (a "rst") };
    payload = a "payload" }

let rec value_of_xml x : Value.t =
  match Xml.name x with
  | "unit" -> Value.Unit
  | "bool" -> Value.Bool (bool_of_attr (Xml.attr_exn x "v"))
  | "num" -> Value.Num (float_of_attr (Xml.attr_exn x "v"))
  | "str" -> Value.Str (Xml.attr_exn x "v")
  | "list" -> Value.List (List.map value_of_xml (Xml.children x))
  | "packet" -> Value.Packet (packet_of_xml x)
  | "action" -> Value.Action (action_of_xml x)
  | "filter" -> (
      match Xml.children x with
      | [ f ] -> Value.FilterV (filter_of_xml f)
      | _ -> fail "<filter> wants 1 child")
  | "stats" ->
      let s = Xml.attr_exn x "v" in
      let parts =
        if s = "" then []
        else String.split_on_char ' ' s |> List.filter (fun p -> p <> "")
      in
      Value.Stats (Array.of_list (List.map float_of_attr parts))
  | "struct" ->
      Value.Struct
        ( Xml.attr_exn x "name",
          List.map
            (fun f ->
              match Xml.children f with
              | [ v ] -> (Xml.attr_exn f "name", value_of_xml v)
              | _ -> fail "<field> wants 1 child")
            (Xml.select x "field") )
  | n -> fail "unknown value element <%s>" n

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

type t = {
  ck_seed : int;
  ck_epoch : int;
  ck_seq : int;
  ck_full : bool;
  ck_vars : (string * Value.t) list;
  ck_removed : string list;
  ck_state : string;
}

let of_xml x =
  if Xml.name x <> "checkpoint" then fail "expected <checkpoint>";
  let vars =
    match Xml.first x "vars" with
    | None -> fail "<checkpoint> missing <vars>"
    | Some vs ->
        List.map
          (fun v ->
            match Xml.children v with
            | [ value ] -> (Xml.attr_exn v "name", value_of_xml value)
            | _ -> fail "<var> wants 1 child")
          (Xml.select vs "var")
  in
  let removed =
    match Xml.first x "removed" with
    | None -> []
    | Some rs -> List.map (fun r -> Xml.attr_exn r "n") (Xml.select rs "r")
  in
  { ck_seed = int_of_attr (Xml.attr_exn x "seed");
    ck_epoch = int_of_attr (Xml.attr_exn x "epoch");
    ck_seq = int_of_attr (Xml.attr_exn x "seq");
    ck_full = bool_of_attr (Xml.attr_exn x "full");
    ck_vars = vars; ck_removed = removed;
    ck_state = Xml.attr_exn x "state" }

let decode s = of_xml (Xml.parse s)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* One walk writes a checkpoint's wire form into a buffer ([encode]) or
   only counts its bytes ([wire_bytes]): the two cannot disagree, and
   pricing builds no tree, prints no float and allocates no string but
   the text of an IP address.  The bytes are those
   [Xml.to_string ~indent:false] writes for the tree [of_xml] reads back:
   childless elements close with "/>", attribute values are escaped as
   [Xml.add_escaped] does. *)
type sink = Buf of Buffer.t | Len of int ref

(* markup, as is *)
let raw s m =
  match s with
  | Buf b -> Buffer.add_string b m
  | Len n -> n := !n + String.length m

(* an attribute value *)
let text s v =
  match s with
  | Buf b -> Xml.add_escaped b v
  | Len n -> n := !n + Xml.escaped_length v

(* decimal digits of [i], without its sign *)
let rec digits i = if i > -10 && i < 10 then 1 else 1 + digits (i / 10)

let int s i =
  match s with
  | Buf b -> Buffer.add_string b (string_of_int i)
  | Len n -> n := !n + digits i + if i < 0 then 1 else 0

(* [String.length (Printf.sprintf "%h" f)] from [f]'s sign and the low 63
   bits of its pattern: "-" if negative, then "infinity", "nan", or "0x",
   the leading digit, "." and the mantissa's hex digits up to the last
   non-zero one (none for a zero mantissa), "p", the exponent's sign and
   its decimal digits. *)
let hex_length ~neg bits =
  let e = (bits lsr 52) land 0x7ff and m = bits land 0xf_ffff_ffff_ffff in
  let rec nibbles m d =
    if m land 0xf = 0 then nibbles (m lsr 4) (d - 1) else d
  in
  (if neg then 1 else 0)
  +
  if e = 0x7ff then if m = 0 then 8 else 3
  else
    let exp = if e > 0 then e - 1023 else if m = 0 then 0 else -1022 in
    5 + (if m = 0 then 0 else 1 + nibbles m 13) + digits exp

(* Floats travel as hex literals ("%h") so decode (encode v) is exact —
   counters restored from a checkpoint must be bit-identical for replay
   determinism.  Inlined, so pricing a counter of a [Stats] array does
   not box it (16 B per counter otherwise). *)
let[@inline] hex s f =
  match s with
  | Buf b -> Printf.bprintf b "%h" f
  | Len n ->
      let bits = Int64.to_int (Int64.bits_of_float f) in
      n := !n + hex_length ~neg:(Float.sign_bit f) bits

let bool s b = raw s (if b then "1" else "0")

(* [<tag a="v"/>]: [m] is the markup up to the value's opening quote *)
let leaf_text s m v = raw s m; text s v; raw s "\"/>"
let leaf_int s m i = raw s m; int s i; raw s "\"/>"
let leaf_hex s m f = raw s m; hex s f; raw s "\"/>"

let rec filter s (f : Filter.t) =
  match f with
  | True -> raw s "<t/>"
  | False -> raw s "<f/>"
  | And (a, b) -> raw s "<and>"; filter s a; filter s b; raw s "</and>"
  | Or (a, b) -> raw s "<or>"; filter s a; filter s b; raw s "</or>"
  | Not a -> raw s "<not>"; filter s a; raw s "</not>"
  | Atom (Src_ip p) -> leaf_text s "<srcip v=\"" (Ipaddr.Prefix.to_string p)
  | Atom (Dst_ip p) -> leaf_text s "<dstip v=\"" (Ipaddr.Prefix.to_string p)
  | Atom (Src_port p) -> leaf_int s "<srcport v=\"" p
  | Atom (Dst_port p) -> leaf_int s "<dstport v=\"" p
  | Atom (Port p) -> leaf_int s "<port v=\"" p
  | Atom (Proto p) -> leaf_text s "<proto v=\"" (Flow.proto_to_string p)
  | Atom Any -> raw s "<anyatom/>"

let action s (a : Tcam.action) =
  match a with
  | Forward p -> leaf_int s "<action kind=\"forward\" arg=\"" p
  | Drop -> raw s "<action kind=\"drop\"/>"
  | Rate_limit r -> leaf_hex s "<action kind=\"ratelimit\" arg=\"" r
  | Set_qos q -> leaf_int s "<action kind=\"setqos\" arg=\"" q
  | Mirror -> raw s "<action kind=\"mirror\"/>"
  | Count -> raw s "<action kind=\"count\"/>"

let packet s ({ tuple = t; flags = fl; _ } as p : Flow.packet) =
  raw s "<packet src=\""; text s (Ipaddr.to_string t.src);
  raw s "\" dst=\""; text s (Ipaddr.to_string t.dst);
  raw s "\" sport=\""; int s t.sport;
  raw s "\" dport=\""; int s t.dport;
  raw s "\" proto=\""; text s (Flow.proto_to_string t.proto);
  raw s "\" size=\""; int s p.size;
  raw s "\" syn=\""; bool s fl.syn;
  raw s "\" ack=\""; bool s fl.ack;
  raw s "\" fin=\""; bool s fl.fin;
  raw s "\" rst=\""; bool s fl.rst;
  leaf_text s "\" payload=\"" p.payload

let rec value s (v : Value.t) =
  match v with
  | Unit -> raw s "<unit/>"
  | Bool b -> raw s (if b then "<bool v=\"1\"/>" else "<bool v=\"0\"/>")
  | Num n -> leaf_hex s "<num v=\"" n
  | Str x -> leaf_text s "<str v=\"" x
  | List [] -> raw s "<list/>"
  | List l -> raw s "<list>"; values s l; raw s "</list>"
  | Nums a when Float.Array.length a = 0 -> raw s "<list/>"
  | Nums a ->
      (* the bytes of the [List] of its [Num]s *)
      raw s "<list>";
      Float.Array.iter (fun n -> leaf_hex s "<num v=\"" n) a;
      raw s "</list>"
  | Packet p -> packet s p
  | Action a -> action s a
  | FilterV f -> raw s "<filter>"; filter s f; raw s "</filter>"
  | Stats arr ->
      raw s "<stats v=\"";
      for i = 0 to Array.length arr - 1 do
        if i > 0 then raw s " ";
        hex s arr.(i)
      done;
      raw s "\"/>"
  | Struct (name, []) -> leaf_text s "<struct name=\"" name
  | Struct (name, fields) ->
      raw s "<struct name=\""; text s name; raw s "\">";
      bindings s "field" fields;
      raw s "</struct>"

and values s = function [] -> () | v :: l -> value s v; values s l

(* [<tag name="k">v</tag>] per binding *)
and bindings s tag = function
  | [] -> ()
  | (k, v) :: l ->
      raw s "<"; raw s tag; raw s " name=\""; text s k; raw s "\">";
      value s v;
      raw s "</"; raw s tag; raw s ">";
      bindings s tag l

let rec removed s = function
  | [] -> ()
  | n :: l -> leaf_text s "<r n=\"" n; removed s l

let write s ck =
  raw s "<checkpoint seed=\""; int s ck.ck_seed;
  raw s "\" epoch=\""; int s ck.ck_epoch;
  raw s "\" seq=\""; int s ck.ck_seq;
  raw s "\" full=\""; bool s ck.ck_full;
  raw s "\" state=\""; text s ck.ck_state;
  (match ck.ck_vars with
  | [] -> raw s "\"><vars/>"
  | l -> raw s "\"><vars>"; bindings s "var" l; raw s "</vars>");
  (match ck.ck_removed with
  | [] -> raw s "<removed/>"
  | l -> raw s "<removed>"; removed s l; raw s "</removed>");
  raw s "</checkpoint>"

let encode ck =
  let b = Buffer.create 1024 in
  write (Buf b) ck;
  Buffer.contents b

let wire_bytes ck =
  let n = ref 0 in
  write (Len n) ck;
  float_of_int !n

let delta ~base vars =
  let changed =
    List.filter
      (fun (k, v) ->
        match List.assoc_opt k base with
        | Some v0 -> not (Value.equal v0 v)
        | None -> true)
      vars
  in
  let removed =
    List.filter_map
      (fun (k, _) -> if List.mem_assoc k vars then None else Some k)
      base
  in
  (changed, removed)

let apply ~base ck =
  if ck.ck_full then ck.ck_vars
  else
    let kept =
      List.filter_map
        (fun (k, v) ->
          if List.mem k ck.ck_removed then None
          else
            match List.assoc_opt k ck.ck_vars with
            | Some v' -> Some (k, v')
            | None -> Some (k, v))
        base
    in
    let fresh =
      List.filter (fun (k, _) -> not (List.mem_assoc k base)) ck.ck_vars
    in
    kept @ fresh
