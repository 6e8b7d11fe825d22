(** Flows and packet headers — the traffic objects seen by filters, TCAM
    rules and monitoring tasks. *)

type proto = Tcp | Udp | Icmp

val proto_to_string : proto -> string
val proto_of_string : string -> proto option

type five_tuple = {
  src : Ipaddr.t;
  dst : Ipaddr.t;
  sport : int;
  dport : int;
  proto : proto;
}

(** TCP flag view carried by sampled/probed packets (SYN-flood detection and
    friends inspect these). *)
type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool }

val no_flags : tcp_flags
val syn_only : tcp_flags
val syn_ack : tcp_flags

type packet = {
  tuple : five_tuple;
  size : int;  (** bytes *)
  flags : tcp_flags;
  payload : string;  (** synthetic payload excerpt, e.g. DNS qname *)
}

type t = {
  id : int;
  tuple : five_tuple;
  rate : float;  (** bytes per second while active *)
  path : int list;  (** switch ids traversed, in order *)
}

val pp_tuple : Format.formatter -> five_tuple -> unit

(** A fresh packet of [size] bytes for the tuple with default flags. *)
val packet : ?flags:tcp_flags -> ?payload:string -> five_tuple -> int -> packet
