type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let next_int64 t =
  let z = Int64.add t.state golden in
  t.state <- z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = { state = next_int64 t }

let stream t k =
  if k < 0 then invalid_arg "Rng.stream: key must be non-negative";
  (* jump the splitmix counter by (k+1) gamma increments, then advance
     once: child streams for distinct keys are decorrelated, and the
     parent state is left untouched so derivation order cannot matter *)
  let s = Int64.add t.state (Int64.mul golden (Int64.of_int (k + 1))) in
  { state = next_int64 { state = s } }

let derive_seed root ~stream =
  if stream < 0 then invalid_arg "Rng.derive_seed: stream must be non-negative";
  let s = Int64.add (Int64.of_int root) (Int64.mul golden (Int64.of_int stream)) in
  Int64.to_int (next_int64 { state = s }) land max_int

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* shift by 2 so the result fits OCaml's 63-bit native int *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let float t =
  (* 53 random bits -> [0, 1) *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int v /. 9007199254740992.

let uniform t lo hi = lo +. ((hi -. lo) *. float t)
let bool t = Int64.logand (next_int64 t) 1L = 1L
let bernoulli t p = float t < p

let exponential t lambda =
  if lambda <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.Float.log (1. -. float t) /. lambda

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  (* inverse-CDF over precomputed-free approximation: rejection-free sampling
     via the harmonic normalization computed on the fly is O(n); instead use
     the standard approximation by inverting the continuous Zipf CDF. *)
  if s = 1. then begin
    let u = float t in
    let hn = Float.log (float_of_int n +. 1.) in
    let r = Float.exp (u *. hn) -. 1. in
    Stdlib.min (n - 1) (int_of_float r)
  end
  else begin
    let u = float t in
    let p = 1. -. s in
    let hn = ((float_of_int n +. 1.) ** p -. 1.) /. p in
    let r = ((u *. hn *. p) +. 1.) ** (1. /. p) -. 1. in
    Stdlib.min (n - 1) (Stdlib.max 0 (int_of_float r))
  end

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
