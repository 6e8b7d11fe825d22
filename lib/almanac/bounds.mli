(** Resource-bound inference: abstract interpretation of a machine's
    handlers against the soil cost model, yielding per-seed worst-case
    VCpu / Ram / TcamR / Pcie demands.

    The pass mirrors exactly what the soil charges at runtime (poll issue
    and delivery, IPC, handler dispatch, [exec], TCAM updates, transits)
    and splits the result into a deterministic {e floor} — the cost the
    seed's subscriptions incur every second regardless of traffic — and a
    {e worst case} that adds conditional handler-body costs at full
    trigger rate.  The floor is exact for machines whose handlers have no
    traffic-dependent branches ([deterministic = true]).

    The prices come from a {!cost_model}, which the runtime builds from
    its own calibration ([Farm_runtime.Soil.bounds_model]); the almanac
    layer stays independent of the runtime.  [exec] is priced by
    {!Builtins.exec_cost}, the function the soil host charges. *)

type cost_model = {
  cores : float;
  poll_issue_cost : float;  (** per ASIC poll *)
  poll_process_cost : float;  (** per delivery (plus a per-record share) *)
  handler_base_cost : float;  (** per handler dispatch / TCAM op / transit *)
  sample_cost : float;  (** per sampled probe packet *)
  aggregation_cost : float;  (** per delivery when polls aggregate *)
  ipc_cpu_cost : float;  (** soil→seed delivery *)
  counter_record_bytes : float;  (** bytes per counter read over PCIe *)
  probe_packet_bytes : float;  (** assumed packet size for probe PCIe *)
  port_count : int;  (** ports an [All_ports] poll reads *)
  loop_bound : int;  (** assumed worst-case [while] iterations *)
  scalar_bytes : float;  (** RAM per scalar variable *)
  list_bytes : float;  (** RAM per list/stats variable *)
}

type demand = {
  vcpu_floor : float;
      (** cores consumed by subscriptions alone (deterministic) *)
  vcpu_worst : float;  (** cores with every handler body at full cost *)
  ram_bytes : float;
  tcam_rules : int;  (** worst-case concurrently installed rules *)
  pcie_reads : float;  (** deterministic counter reads per second *)
  pcie_reads_worst : float;  (** plus worst-case probe samples *)
  deterministic : bool;
      (** no probe triggers, no conditional costs, no transits in
          periodic handlers: [vcpu_floor] = [vcpu_worst] = actual *)
}

(** [infer ~machine ~polls ~res ()] computes the demand of one seed of
    [machine] given the poll analysis ({!Analysis.summarize}) and the
    resource allocation [res] (indexed by {!Analysis.resource_index};
    polling rates may depend on it). *)
val infer :
  model:cost_model ->
  machine:Ast.machine ->
  polls:Analysis.poll_summary list ->
  res:float array ->
  unit ->
  demand

(** Cross-check against the [util] constraint polynomials: for every
    state whose util declares a vCPU envelope, warn ([B201]) when the
    cheapest allocation the constraints admit understates the inferred
    deterministic floor — the seeder would grant the seed less CPU than
    its own subscriptions consume. *)
val cross_check :
  model:cost_model ->
  ?file:string ->
  machine:Ast.machine ->
  polls:Analysis.poll_summary list ->
  state_utils:(string * Analysis.util_summary) list ->
  unit ->
  Diagnostic.t list
