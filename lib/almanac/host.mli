(** The host interface shared by both Almanac execution engines.

    Engines ({!Interp}, {!Exec}) are host-agnostic: every effect (time,
    resources, messaging, TCAM access, polling-rate changes) goes through a
    {!host} record.  The FARM runtime wires the host to a soil on a
    simulated switch; tests can wire it to stubs. *)

exception Runtime_error of string

(** Raise {!Runtime_error} with a formatted message. *)
val fail : ('a, unit, string, 'b) format4 -> 'a

(** Where a received message came from (pattern-matched by [recv]). *)
type source = From_harvester | From_machine of string

(** A resolved [send] destination: the engine evaluates any [@dst]
    expression before handing the message to the host. *)
type target = To_harvester | To_machine of string * int option

type host = {
  h_now : unit -> float;
  h_resources : unit -> float array;
      (** allocated resources, indexed per {!Analysis.resource_index} *)
  h_send : target -> Value.t -> unit;
  h_set_trigger : string -> Ast.trigger_type -> Value.t -> unit;
      (** trigger variable reassigned at runtime (new struct or bare
          period); the host reschedules polling *)
  h_builtin : string -> (Value.t list -> Value.t) option;
      (** host-provided auxiliary functions; consulted before the pure
          built-ins *)
  h_on_transit : string -> string -> unit;  (** old state, new state *)
  h_log : string -> unit;
  h_trace : string -> string -> unit;
      (** observability hook, called by both engines on trigger dispatch
          with (trigger name, current state); the FARM runtime wires it
          to the engine's current simulation-time trace sink. *)
}

(** A do-nothing host for pure tests. *)
val null_host : host
