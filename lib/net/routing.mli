(** Routing and the SDN-controller path queries used by the seeder.

    Provides all-shortest-path enumeration (ECMP candidate set) and
    φ{_path}: the set of paths that traffic matching a filter can take —
    the primitive behind Almanac's range-based placement constraints
    ([place any receiver ex range <= 1] etc., §III-B). *)

type path = int list
(** Node ids in order, endpoints included. *)

(** All shortest paths between two nodes (BFS + DAG enumeration).  Empty if
    disconnected.  Enumeration stops at 64 paths. *)
val shortest_paths : Topology.t -> src:int -> dst:int -> path list

(** One ECMP path chosen deterministically from [flow] (hash of the tuple
    selects among equal-cost candidates). *)
val route_flow : Topology.t -> Flow.five_tuple -> path option

(** φ{_path}: paths between host pairs that can carry traffic matching the
    filter.  A host pair (h1, h2) qualifies when the filter is satisfiable
    given src ∈ prefix(h1) and dst ∈ prefix(h2). *)
val paths_matching : Topology.t -> Filter.t -> path list

(** Switch ids of a path, in order (drops host endpoints). *)
val path_switches : Topology.t -> path -> int list

(** Can the filter match a packet with src in [src] and dst in [dst]?
    Three-valued evaluation, conservative towards "possible". *)
val satisfiable :
  Filter.t -> src:Ipaddr.Prefix.t -> dst:Ipaddr.Prefix.t -> bool
