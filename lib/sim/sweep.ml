(* Domain-parallel sweep runner.

   FARM's evaluation is dominated by *independent* discrete-event runs:
   chaos cases under shifted seeds, experiment figures swept over a
   parameter, bench episodes.  Each run owns its engine, fabric and RNG,
   so they parallelize embarrassingly across OCaml 5 domains; the only
   requirements are per-run isolation (the scenario function must build
   all of its state itself, seeded via [Rng.stream]/[Rng.derive_seed])
   and deterministic result order (results are keyed by scenario index,
   never by completion order).

   Work is distributed by an atomic take-a-number counter, so uneven
   scenario costs balance automatically.  Exceptions in a scenario stop
   the sweep and re-raise in the caller after all domains joined.

   Multicore discipline (why the shape below, measured on this repo's
   bench_smoke sweep):

   - Domains are clamped to the hardware by default.  OCaml 5 minor
     collections are stop-the-world across all running domains, so
     oversubscribing cores turns every minor GC into a rendezvous with
     descheduled domains — a measured 3-15x *slowdown*, not a wash.
     [~clamp:false] keeps the old behavior for determinism tests that
     need real extra domains.
   - Workers run with an enlarged per-domain minor heap: fewer minor
     collections means fewer stop-the-world barriers.  [Gc.set minor_heap_size] is per-domain in
     OCaml 5, so a spawned worker's setting dies with its domain; the
     participating caller's GC parameters are snapshotted and restored.
   - Workers accumulate results domain-locally and the caller assembles
     the final array after the join: scenario returns are never [Some]-
     boxed into a shared array from multiple domains, and the only
     cross-domain mutable words are the two atomics (allocated apart so
     the take-a-number counter does not false-share the failure slot). *)

let env_domains () =
  match Sys.getenv_opt "FARM_SWEEP_DOMAINS" with
  | Some s -> (try Some (max 1 (int_of_string (String.trim s))) with _ -> None)
  | None -> None

let default_domains () =
  match env_domains () with
  | Some d -> d
  | None -> Domain.recommended_domain_count ()

let requested_domains domains =
  match domains with
  | Some d when d >= 1 -> d
  | Some _ -> invalid_arg "Sweep.run: domains must be >= 1"
  | None -> default_domains ()

let effective_domains ?domains ?(clamp = true) n =
  let d = requested_domains domains in
  let d = if clamp then Stdlib.min d (Domain.recommended_domain_count ()) else d in
  Stdlib.min d (Stdlib.max n 0)

(* Minor heap words given to each sweep worker (16 MB on 64-bit): large
   enough that allocation-heavy scenarios promote in bulk instead of
   tripping frequent stop-the-world minor collections. *)
let worker_minor_words = 2 * 1024 * 1024

let run ?domains ?(clamp = true) n f =
  if n < 0 then invalid_arg "Sweep.run: negative scenario count";
  let d = effective_domains ?domains ~clamp n in
  if d <= 1 then Array.init n f
  else begin
    let failure = Atomic.make None in
    (* spacing allocation: keeps [next] (hammered by take-a-number) and
       [failure] (read per iteration) off the same cache line *)
    let _pad = Sys.opaque_identity (Array.make 16 0) in
    let next = Atomic.make 0 in
    ignore (_pad : int array);
    let tune_gc () =
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_words }
    in
    (* Take scenarios until the counter runs out (or a peer failed) and
       return this worker's results, newest first, keyed by index. *)
    let worker () =
      let acc = ref [] in
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get failure <> None then continue := false
        else
          match f i with
          | v -> acc := (i, v) :: !acc
          | exception e ->
              ignore (Atomic.compare_and_set failure None (Some e));
              continue := false
      done;
      !acc
    in
    let spawned =
      Array.init (d - 1) (fun _ ->
          Domain.spawn (fun () ->
              tune_gc ();
              worker ()))
    in
    (* the caller participates too; its GC parameters must not leak *)
    let caller_gc = Gc.get () in
    let mine =
      Fun.protect
        ~finally:(fun () -> Gc.set caller_gc)
        (fun () ->
          tune_gc ();
          worker ())
    in
    let parts = Array.map Domain.join spawned in
    (match Atomic.get failure with Some e -> raise e | None -> ());
    let results = Array.make n None in
    let fill part = List.iter (fun (i, v) -> results.(i) <- Some v) part in
    fill mine;
    Array.iter fill parts;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map ?domains ?clamp a f =
  run ?domains ?clamp (Array.length a) (fun i -> f a.(i))
