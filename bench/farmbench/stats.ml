(* Order statistics for wall-clock samples and simulated latencies. *)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks, [rank = p/100 * (n-1)] —
   the same rule as [Sim.Metrics.Histogram.percentile]. *)
let percentile xs p =
  match sorted xs with
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      let n = Array.length a in
      let rank = p /. 100. *. float_of_int (n - 1) in
      let lo = truncate rank in
      let hi = min (n - 1) (lo + 1) in
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] (the default
   "exclusive" method), so spreads printed here match an external check
   of the same samples.  One sample gives a zero-width interval. *)
let quartiles xs =
  match sorted xs with
  | [] -> (nan, nan, nan)
  | [ x ] -> (x, x, x)
  | xs ->
      let a = Array.of_list xs in
      let ld = Array.length a in
      let m = ld + 1 in
      let q i =
        let j = i * m / 4 in
        let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.
      in
      (q 1, q 2, q 3)

(* A metric summarized over repeated measurements. *)
type summary = { median : float; q1 : float; q3 : float; n : int }

let summarize xs =
  let q1, _, q3 = quartiles xs in
  { median = median xs; q1; q3; n = List.length xs }

let summary_json ?unit s =
  Json.Obj
    ((match unit with Some u -> [ ("unit", Json.Str u) ] | None -> [])
    @ [ ("median", Json.Num s.median); ("q1", Json.Num s.q1);
        ("q3", Json.Num s.q3); ("n", Json.Num (float_of_int s.n)) ])
