(** Standard wiring of [Farm_sim.Fault] plans onto a running FARM stack:
    switch crashes/recoveries hit the {!Seeder}, link flaps hit the
    {!Farm_net.Fabric} (rerouting flows), control-plane degradation hits the
    seeder's message path, and counter faults hit the per-switch {!Soil}.
    Events naming unknown switches or links are ignored, so randomly
    generated plans can be applied to any topology.

    Switch events are {e silent} ground-truth crashes/reboots
    ([Seeder.crash_switch]/[revive_switch]); the control plane learns of
    them from the seeder's failure detector — heartbeats and a timeout
    with [auto_heal], a zero-latency oracle without it. *)

val handlers : Seeder.t -> Farm_sim.Fault.handlers

(** [inject seeder plan] schedules the plan on the seeder's engine with
    {!handlers}.  [on_applied] runs right after each event takes effect —
    the chaos suite checks its invariants there. *)
val inject :
  ?on_applied:(float -> Farm_sim.Fault.event -> unit) ->
  Seeder.t ->
  Farm_sim.Fault.plan ->
  unit
