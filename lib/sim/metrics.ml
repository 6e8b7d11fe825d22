module Counter = struct
  type t = { mutable v : float }

  let create () = { v = 0. }
  let add t x = t.v <- t.v +. x
  let incr t = add t 1.
  let value t = t.v
  let reset t = t.v <- 0.
end

module Gauge = struct
  type t = { mutable v : float }

  let create () = { v = 0. }
  let set t x = t.v <- x
  let add t x = t.v <- t.v +. x
  let value t = t.v
  let reset t = t.v <- 0.
end

module Histogram = struct
  (* Invariant: slots [n .. cap-1] of [xs] always hold [infinity], so
     [ensure_sorted] can sort the whole backing array in place — the
     padding stays at the tail — instead of copying out a sub-array on
     every re-sort. *)
  type t = { mutable xs : float array; mutable n : int; mutable sorted : bool }

  let create () = { xs = [||]; n = 0; sorted = true }

  let record t x =
    if t.n = Array.length t.xs then begin
      let cap = Stdlib.max 16 (2 * t.n) in
      let a = Array.make cap infinity in
      Array.blit t.xs 0 a 0 t.n;
      t.xs <- a
    end;
    t.xs.(t.n) <- x;
    t.n <- t.n + 1;
    t.sorted <- false

  let count t = t.n

  let fold f init t =
    let acc = ref init in
    for i = 0 to t.n - 1 do
      acc := f !acc t.xs.(i)
    done;
    !acc

  let max t = fold Float.max neg_infinity t
  let min t = fold Float.min infinity t

  let ensure_sorted t =
    if not t.sorted then begin
      Array.sort Float.compare t.xs;
      t.sorted <- true
    end

  let mean t =
    ensure_sorted t;
    if t.n = 0 then 0. else fold ( +. ) 0. t /. float_of_int t.n

  (* Linear interpolation between closest ranks: rank = p/100 * (n-1),
     value = xs.(floor rank) blended with xs.(ceil rank). *)
  let percentile t p =
    if t.n = 0 then 0.
    else begin
      ensure_sorted t;
      let rank = p /. 100. *. float_of_int (t.n - 1) in
      let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
      let lo = Stdlib.max 0 (Stdlib.min (t.n - 1) lo) in
      let hi = Stdlib.max 0 (Stdlib.min (t.n - 1) hi) in
      let frac = rank -. float_of_int lo in
      (t.xs.(lo) *. (1. -. frac)) +. (t.xs.(hi) *. frac)
    end

  let reset t =
    Array.fill t.xs 0 (Array.length t.xs) infinity;
    t.n <- 0;
    t.sorted <- true
end

module Registry = struct
  type metric =
    | Counter of Counter.t
    | Gauge of Gauge.t
    | Gauge_fn of (unit -> float)
    | Histogram of Histogram.t

  type t = { tbl : (string, metric) Hashtbl.t }

  let create () = { tbl = Hashtbl.create 64 }

  let kind = function
    | Counter _ -> "counter"
    | Gauge _ -> "gauge"
    | Gauge_fn _ -> "gauge"
    | Histogram _ -> "histogram"

  let clash name existing wanted =
    invalid_arg
      (Printf.sprintf "Metrics.Registry: %S already registered as a %s (wanted %s)" name
         (kind existing) wanted)

  let counter t name =
    match Hashtbl.find_opt t.tbl name with
    | Some (Counter c) -> c
    | Some m -> clash name m "counter"
    | None ->
        let c = Counter.create () in
        Hashtbl.replace t.tbl name (Counter c);
        c

  let gauge t name =
    match Hashtbl.find_opt t.tbl name with
    | Some (Gauge g) -> g
    | Some m -> clash name m "gauge"
    | None ->
        let g = Gauge.create () in
        Hashtbl.replace t.tbl name (Gauge g);
        g

  (* Callback gauges let components publish existing private fields
     without restructuring them; re-registering the same name swaps the
     callback (newest owner wins, e.g. after a world rebuild). *)
  let gauge_fn t name f =
    match Hashtbl.find_opt t.tbl name with
    | Some (Gauge_fn _) | None -> Hashtbl.replace t.tbl name (Gauge_fn f)
    | Some m -> clash name m "gauge"

  let histogram t name =
    match Hashtbl.find_opt t.tbl name with
    | Some (Histogram h) -> h
    | Some m -> clash name m "histogram"
    | None ->
        let h = Histogram.create () in
        Hashtbl.replace t.tbl name (Histogram h);
        h

  let find t name = Hashtbl.find_opt t.tbl name

  let names t =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort String.compare

  let value t name =
    match Hashtbl.find_opt t.tbl name with
    | Some (Counter c) -> Some (Counter.value c)
    | Some (Gauge g) -> Some (Gauge.value g)
    | Some (Gauge_fn f) -> Some (f ())
    | Some (Histogram h) -> Some (Histogram.mean h)
    | None -> None

  let fnum f =
    (* Integral floats (the common case for counters) print without a
       fractional part; everything else gets round-trippable precision. *)
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  let to_json t =
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\n";
    let ns = names t in
    List.iteri
      (fun i name ->
        if i > 0 then Buffer.add_string b ",\n";
        Printf.bprintf b "  %S: " name;
        match Hashtbl.find t.tbl name with
        | (Counter _ | Gauge _ | Gauge_fn _) as m ->
            Printf.bprintf b "{\"type\": \"%s\", \"value\": %s}" (kind m)
              (fnum (Option.get (value t name)))
        | Histogram h ->
            let n = Histogram.count h in
            if n = 0 then
              Buffer.add_string b "{\"type\": \"histogram\", \"count\": 0}"
            else
              let mean = Histogram.mean h in
              let p50 = Histogram.percentile h 50. in
              let p95 = Histogram.percentile h 95. in
              let p99 = Histogram.percentile h 99. in
              Printf.bprintf b
                "{\"type\": \"histogram\", \"count\": %d, \"mean\": %s, \"min\": %s, \
                 \"max\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s}"
                n (fnum mean) (fnum (Histogram.min h)) (fnum (Histogram.max h))
                (fnum p50) (fnum p95) (fnum p99))
      ns;
    Buffer.add_string b "\n}\n";
    Buffer.contents b
end
