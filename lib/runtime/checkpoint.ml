module Value = Farm_almanac.Value
module Xml = Farm_almanac.Xml
module Filter = Farm_net.Filter
module Tcam = Farm_net.Tcam
module Flow = Farm_net.Flow
module Ipaddr = Farm_net.Ipaddr

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* Floats travel as hex literals ("%h") so decode (encode v) is exact —
   counters restored from a checkpoint must be bit-identical for replay
   determinism. *)
let float_attr f = Printf.sprintf "%h" f

let float_of_attr s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail "bad float %S" s

let int_of_attr s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail "bad int %S" s

let bool_attr b = if b then "1" else "0"

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

let atom_to_xml (a : Filter.atom) =
  let leaf ?v name =
    Xml.element ~attrs:(match v with Some v -> [ ("v", v) ] | None -> []) name
      []
  in
  match a with
  | Filter.Src_ip p -> leaf ~v:(Ipaddr.Prefix.to_string p) "srcip"
  | Filter.Dst_ip p -> leaf ~v:(Ipaddr.Prefix.to_string p) "dstip"
  | Filter.Src_port p -> leaf ~v:(string_of_int p) "srcport"
  | Filter.Dst_port p -> leaf ~v:(string_of_int p) "dstport"
  | Filter.Port p -> leaf ~v:(string_of_int p) "port"
  | Filter.Proto p -> leaf ~v:(Flow.proto_to_string p) "proto"
  | Filter.Any -> leaf "anyatom"

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

let rec filter_to_xml (f : Filter.t) =
  match f with
  | Filter.True -> Xml.element "t" []
  | Filter.False -> Xml.element "f" []
  | Filter.Atom a -> atom_to_xml a
  | Filter.And (a, b) -> Xml.element "and" [ filter_to_xml a; filter_to_xml b ]
  | Filter.Or (a, b) -> Xml.element "or" [ filter_to_xml a; filter_to_xml b ]
  | Filter.Not a -> Xml.element "not" [ filter_to_xml a ]

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

let action_to_xml (a : Tcam.action) =
  let mk kind arg =
    Xml.element
      ~attrs:
        (("kind", kind) :: (match arg with Some v -> [ ("arg", v) ] | None -> []))
      "action" []
  in
  match a with
  | Tcam.Forward p -> mk "forward" (Some (string_of_int p))
  | Tcam.Drop -> mk "drop" None
  | Tcam.Rate_limit r -> mk "ratelimit" (Some (float_attr r))
  | Tcam.Set_qos q -> mk "setqos" (Some (string_of_int q))
  | Tcam.Mirror -> mk "mirror" None
  | Tcam.Count -> mk "count" None

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

let packet_to_xml (p : Flow.packet) =
  Xml.element
    ~attrs:
      [ ("src", Ipaddr.to_string p.tuple.src);
        ("dst", Ipaddr.to_string p.tuple.dst);
        ("sport", string_of_int p.tuple.sport);
        ("dport", string_of_int p.tuple.dport);
        ("proto", Flow.proto_to_string p.tuple.proto);
        ("size", string_of_int p.size);
        ("syn", bool_attr p.flags.syn);
        ("ack", bool_attr p.flags.ack);
        ("fin", bool_attr p.flags.fin);
        ("rst", bool_attr p.flags.rst);
        ("payload", p.payload) ]
    "packet" []

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

let rec value_to_xml (v : Value.t) =
  match v with
  | Value.Unit -> Xml.element "unit" []
  | Value.Bool b -> Xml.element ~attrs:[ ("v", bool_attr b) ] "bool" []
  | Value.Num n -> Xml.element ~attrs:[ ("v", float_attr n) ] "num" []
  | Value.Str s -> Xml.element ~attrs:[ ("v", s) ] "str" []
  | Value.List l -> Xml.element "list" (List.map value_to_xml l)
  | Value.Packet p -> packet_to_xml p
  | Value.Action a -> action_to_xml a
  | Value.FilterV f -> Xml.element "filter" [ filter_to_xml f ]
  | Value.Stats arr ->
      Xml.element
        ~attrs:
          [ ("v",
             String.concat " " (Array.to_list (Array.map float_attr arr))) ]
        "stats" []
  | Value.Struct (name, fields) ->
      Xml.element
        ~attrs:[ ("name", name) ]
        "struct"
        (List.map
           (fun (k, v) ->
             Xml.element ~attrs:[ ("name", k) ] "field" [ value_to_xml v ])
           fields)

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

let to_xml ck =
  Xml.element
    ~attrs:
      [ ("seed", string_of_int ck.ck_seed);
        ("epoch", string_of_int ck.ck_epoch);
        ("seq", string_of_int ck.ck_seq);
        ("full", bool_attr ck.ck_full);
        ("state", ck.ck_state) ]
    "checkpoint"
    [ Xml.element "vars"
        (List.map
           (fun (k, v) ->
             Xml.element ~attrs:[ ("name", k) ] "var" [ value_to_xml v ])
           ck.ck_vars);
      Xml.element "removed"
        (List.map
           (fun n -> Xml.element ~attrs:[ ("n", n) ] "r" [])
           ck.ck_removed) ]

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

let encode ck = Xml.to_string ~indent:false (to_xml ck)
let decode s = of_xml (Xml.parse s)
let wire_bytes ck = float_of_int (String.length (encode ck))

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
