(** Deterministic fault injection.

    A fault {e plan} is a time-ordered list of fault events — switch crashes
    and recoveries, link flaps, control-plane degradation, counter
    freezes/glitches — described purely as data.  This module knows nothing
    about fabrics or seeders: callers supply a {!handlers} record that maps
    each event kind onto the layer that implements it (see
    [Farm_runtime.Chaos] for the standard wiring).  Because plans are data
    and all randomness flows through the caller's {!Rng.t}, a (engine seed,
    plan) pair replays byte-identically. *)

type event =
  | Switch_down of int          (** management-plane crash of a switch *)
  | Switch_up of int            (** crashed switch comes back *)
  | Link_down of int * int      (** link failure (either endpoint order) *)
  | Link_up of int * int
  | Ctrl_degrade of { loss : float; delay : float; dup : float }
      (** control messages: drop probability, added one-way latency
          (seconds), duplication probability *)
  | Ctrl_restore                (** control plane back to lossless *)
  | Counter_freeze of int       (** switch's ASIC reads return stale data *)
  | Counter_thaw of int
  | Counter_glitch of int       (** next ASIC read returns corrupted data *)
  | Traffic_surge of { links : (int * int) list; factor : float }
      (** offered load on the links multiplies by [factor] (overload) *)
  | Traffic_calm of { links : (int * int) list }
      (** surge over: the links return to their base rates *)
  | Report_storm of { node : int; reports : int }
      (** every seed instance on the switch bursts [reports] reports *)
  | Pcie_degrade of { node : int; factor : float }
      (** the switch's PCIe polling bandwidth divides by [factor] *)
  | Pcie_restore of int         (** PCIe bus back to full speed *)

type entry = { at : float; event : event }

type plan = entry list

type handlers = {
  on_switch_down : int -> unit;
  on_switch_up : int -> unit;
  on_link_down : int -> int -> unit;
  on_link_up : int -> int -> unit;
  on_ctrl_degrade : loss:float -> delay:float -> dup:float -> unit;
  on_ctrl_restore : unit -> unit;
  on_counter_freeze : int -> unit;
  on_counter_thaw : int -> unit;
  on_counter_glitch : int -> unit;
  on_traffic_surge : links:(int * int) list -> factor:float -> unit;
  on_traffic_calm : links:(int * int) list -> unit;
  on_report_storm : node:int -> reports:int -> unit;
  on_pcie_degrade : node:int -> factor:float -> unit;
  on_pcie_restore : int -> unit;
}

(** Ignores every event. *)
val null_handlers : handlers

val dispatch : handlers -> event -> unit

val event_to_string : event -> string

(** One line per entry. *)
val to_string : plan -> string

(** Schedule every entry of the plan on the engine; entries in the past are
    applied at the current time.  [on_applied] runs after each event's
    handler — chaos tests use it to check invariants right after every
    fault. *)
val inject :
  ?on_applied:(float -> event -> unit) -> Engine.t -> handlers -> plan -> unit

(** Random well-formed plan: paired episodes (crash then usually recovery,
    link down then up, degrade then restore, freeze then thaw, one-shot
    glitches) over the given switches and links, all within
    [\[0, horizon\]].  Downs and ups are properly nested per subject, so a
    plan never crashes an already-crashed switch.  [episodes] defaults
    to 4.

    [overload] (default [false]) adds resource-pressure episodes to the
    pool: traffic surges on links (paired with a calm), report storms, and
    PCIe slowdowns (paired with a restore).  Leaving it off draws exactly
    the pre-overload rng stream, so existing plans replay unchanged. *)
val random_plan :
  rng:Rng.t ->
  switches:int list ->
  ?links:(int * int) list ->
  ?episodes:int ->
  ?overload:bool ->
  horizon:float ->
  unit ->
  plan
