(** The Table I catalog: every monitoring/attack use case implemented in
    Almanac, ready to hand to the seeder. *)

type entry := Task_common.entry

(** All Table I entries, in the paper's order. *)
val all : entry list

(** An entry of {!all} by name, or one of the sketch-based variants (the
    paper's §VIII future-work extension), which are not part of Table I.
    Raises [Invalid_argument] for an unknown name. *)
val find : string -> entry
val names : string list

(** Seed lines of code for the table; the inherited HHH entry counts only
    its delta over the HH machine it extends (as the paper does). *)
val table1_loc : entry -> int

(** Sanity-compile every entry (parse + typecheck + analyses) against a
    topology; returns the per-entry error if any.  Used by tests and the
    [table1] bench. *)
val compile_all :
  Farm_net.Topology.t -> (string * (unit, string) result) list
