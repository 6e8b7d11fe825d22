type t = {
  precision : int;
  m : int;
  reg : int array;  (* max leading-zero ranks *)
  seed : int;
}

let mix64 z =
  let z = Int64.of_int z in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ?(seed = 0x11) ~precision () =
  if precision < 4 || precision > 16 then
    invalid_arg "Hyperloglog.create: precision must be in [4, 16]";
  let m = 1 lsl precision in
  { precision; m; reg = Array.make m 0; seed }

let registers t = t.m

let add t key =
  let h = mix64 (Hashtbl.hash (t.seed, key) + t.seed) in
  (* top [precision] bits select the register *)
  let idx =
    Int64.to_int (Int64.shift_right_logical h (64 - t.precision))
  in
  (* rank = leading zeros of the remaining bits + 1 *)
  let rest = Int64.shift_left h t.precision in
  let rec rank bit acc =
    if acc > 64 - t.precision then acc
    else if Int64.logand (Int64.shift_right_logical rest (63 - bit)) 1L = 1L
    then acc
    else rank (bit + 1) (acc + 1)
  in
  let r = rank 0 1 in
  if r > t.reg.(idx) then t.reg.(idx) <- r

let alpha m =
  match m with
  | 16 -> 0.673
  | 32 -> 0.697
  | 64 -> 0.709
  | m -> 0.7213 /. (1. +. (1.079 /. float_of_int m))

let count t =
  let m = float_of_int t.m in
  let sum =
    Array.fold_left (fun acc r -> acc +. (2. ** float_of_int (-r))) 0. t.reg
  in
  let raw = alpha t.m *. m *. m /. sum in
  (* small-range correction (linear counting) *)
  let zeros = Array.fold_left (fun acc r -> if r = 0 then acc + 1 else acc) 0 t.reg in
  if raw <= 2.5 *. m && zeros > 0 then
    m *. Float.log (m /. float_of_int zeros)
  else raw

let merge t other =
  if t.precision <> other.precision then
    invalid_arg "Hyperloglog.merge: precision mismatch";
  Array.iteri
    (fun i r -> if r > t.reg.(i) then t.reg.(i) <- r)
    other.reg

let reset t = Array.fill t.reg 0 t.m 0
