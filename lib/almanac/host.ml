(** The host interface shared by both Almanac execution engines (the
    reference tree-walking {!Interp} and the slot-compiled {!Exec}).  Every
    effect a machine can perform — time, resources, messaging, TCAM access,
    polling-rate changes — goes through a [host] record, so engines are
    interchangeable behind {!Engine.S}. *)

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type source = From_harvester | From_machine of string

type target = To_harvester | To_machine of string * int option

type host = {
  h_now : unit -> float;
  h_resources : unit -> float array;
  h_send : target -> Value.t -> unit;
  h_set_trigger : string -> Ast.trigger_type -> Value.t -> unit;
  h_builtin : string -> (Value.t list -> Value.t) option;
  h_on_transit : string -> string -> unit;
  h_log : string -> unit;
  h_trace : string -> string -> unit;
}

let null_host =
  { h_now = (fun () -> 0.);
    h_resources = (fun () -> Array.make Analysis.n_resources 1.);
    h_send = (fun _ _ -> ());
    h_set_trigger = (fun _ _ _ -> ());
    h_builtin = (fun _ -> None);
    h_on_transit = (fun _ _ -> ());
    h_log = (fun _ -> ());
    h_trace = (fun _ _ -> ()) }
