type proto = Tcp | Udp | Icmp

let proto_to_string = function Tcp -> "tcp" | Udp -> "udp" | Icmp -> "icmp"

let proto_of_string = function
  | "tcp" -> Some Tcp
  | "udp" -> Some Udp
  | "icmp" -> Some Icmp
  | _ -> None

type five_tuple = {
  src : Ipaddr.t;
  dst : Ipaddr.t;
  sport : int;
  dport : int;
  proto : proto;
}

type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool }

let no_flags = { syn = false; ack = false; fin = false; rst = false }
let syn_only = { no_flags with syn = true }
let syn_ack = { no_flags with syn = true; ack = true }

type packet = {
  tuple : five_tuple;
  size : int;
  flags : tcp_flags;
  payload : string;
}

type t = { id : int; tuple : five_tuple; rate : float; path : int list }

let pp_tuple ppf t =
  Format.fprintf ppf "%a:%d -> %a:%d (%s)" Ipaddr.pp t.src t.sport Ipaddr.pp
    t.dst t.dport (proto_to_string t.proto)

let packet ?(flags = no_flags) ?(payload = "") tuple size =
  { tuple; size; flags; payload }
