type scheme = Grpc | Shared_buffer

type exec_model = Threads | Processes

(* Calibration: a local gRPC round trip costs ~80 us base (HTTP/2 framing,
   protobuf, socket wakeups) and degrades linearly as more seed channels
   multiplex onto the management CPU; the shared ring buffer costs ~2 us
   for threads, plus a futex wakeup across processes. *)
let latency scheme exec ~seeds =
  let n = float_of_int (max 0 seeds) in
  match (scheme, exec) with
  | Grpc, Threads -> 80e-6 +. (4e-6 *. n)
  | Grpc, Processes -> 120e-6 +. (6e-6 *. n)
  | Shared_buffer, Threads -> 2e-6 +. (0.02e-6 *. n)
  | Shared_buffer, Processes -> 8e-6 +. (0.05e-6 *. n)

let cpu_cost scheme exec =
  match (scheme, exec) with
  | Grpc, Threads -> 30e-6
  | Grpc, Processes -> 45e-6
  | Shared_buffer, Threads -> 1e-6
  | Shared_buffer, Processes -> 4e-6
