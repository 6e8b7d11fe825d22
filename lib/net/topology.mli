(** Network topologies: nodes (switches and hosts) connected by links.
    Generators for the spine-leaf fabric of the paper's production
    deployment, plus fat-tree and linear topologies for tests. *)

type kind = Switch | Host

type node = {
  id : int;
  kind : kind;
  name : string;
  prefix : Ipaddr.Prefix.t option;  (** hosts announce a /24 *)
}

type t

(** {2 Construction} *)

val empty : unit -> t

(** Returns the new node's id. *)
val add_switch : t -> string -> int

val add_host : t -> string -> Ipaddr.Prefix.t -> int

(** Bidirectional link. *)
val add_link : t -> int -> int -> unit

(** {2 Generators} *)

(** Leaf-spine fabric: every leaf connects to every spine; [hosts_per_leaf]
    hosts hang off each leaf.  Host [h] of leaf [l] announces
    [10.(l+1).(h+1).0/24]. *)
val spine_leaf : spines:int -> leaves:int -> hosts_per_leaf:int -> t

(** Three-layer fat-tree of parameter [k] (k pods, (k/2)^2 cores); [k] must
    be even.  One host per edge switch port. *)
val fat_tree : k:int -> t

(** A chain of [n] switches with one host at each end. *)
val linear : n:int -> t

(** {2 Queries} *)

val node : t -> int -> node
val node_count : t -> int
val nodes : t -> node list
val switches : t -> node list
val hosts : t -> node list
val switch_ids : t -> int list
val is_switch : t -> int -> bool

(** Neighbors reachable over links that are currently up. *)
val neighbors : t -> int -> int list

(** {2 Link state}

    Links are physical: taking one down never renumbers ports
    ([port_to]/[port_count] keep counting it), it only removes the link from
    [neighbors] and hence from routing. *)

val has_link : t -> int -> int -> bool

(** Raises [Invalid_argument] when the link does not exist. *)
val set_link_state : t -> int -> int -> up:bool -> unit

val link_is_up : t -> int -> int -> bool

(** All physical links, each reported once as [(a, b)] with [a < b],
    sorted. *)
val links : t -> (int * int) list

(** [links] restricted to switch-switch links. *)
val switch_links : t -> (int * int) list

(** Degree of the node = number of ports. *)
val port_count : t -> int -> int

(** Port index on [a] that faces neighbor [b]; raises [Not_found] when the
    link does not exist. *)
val port_to : t -> int -> int -> int

(** Host whose prefix contains the address. *)
val host_of_addr : t -> Ipaddr.t -> int option
