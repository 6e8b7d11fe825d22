(* Deterministic structured tracing.  Events are stamped with simulation
   time only — never wall clock — so a traced run is byte-identical
   across replays and across [Sweep] domain counts.  A sink is owned by
   one engine, which is what makes the domain-count invariance hold by
   construction.  The one process-wide value is the counter that numbers
   keys: it holds no event, string or id.

   Storage is a chunked structure-of-arrays buffer with one slot layout
   for every event: ts, a descriptor, the name id and the tid, plus
   payload columns holding a span's duration and then one value per
   argument.  Recording writes unboxed floats and plain ints and never
   allocates (no event record, no args list, no string formatting).
   Chunks double from 1 Ki slots up to a 64 Ki cap and are never copied;
   a payload column is allocated the first time a chunk needs it, so the
   common event shapes do not pay for the widest one.  Strings are
   interned once per sink, and a key's id is kept in a per-sink array
   indexed by the key's number; everything textual — the Chrome JSON,
   [Printf] decimal timestamps, escaping — happens at flush time. *)

type arg = S of string | I of int | F of float

type phase =
  | Span of float  (** complete span: payload is the duration, seconds *)
  | Instant

type event = {
  ts : float;  (** simulation time, seconds *)
  cat : string;
  name : string;
  tid : int;
  ph : phase;
  args : (string * arg) list;
}

(* The descriptor packs everything about an event but its values:

     bit 0           phase (0 instant, 1 span)
     bits 1..6       kind of arg j in bits 1+2j .. 2+2j (none/I/F/S)
     bits 7..19      category label
     bits 20+13j ..  key label of arg j

   Name and tid have full-width slots of their own.  Payload column 0
   holds a span's duration; arg j sits in column [phase + j].  An [I]
   value, or the interned id of an [S] value, is stored as the bit
   pattern of the float, which round-trips every int. *)
let k_none = 0
let k_int = 1
let k_float = 2
let k_str = 3
let max_args = 3
let label_bits = 13
let max_labels = 1 lsl label_bits
let cat_shift = 7

let[@inline] key_shift j = cat_shift + ((1 + j) * label_bits)
let[@inline] kind_of d j = (d lsr (1 + (2 * j))) land 3
let[@inline] label_of d shift = (d lsr shift) land (max_labels - 1)

let arity d =
  if kind_of d 0 = k_none then 0
  else if kind_of d 1 = k_none then 1
  else if kind_of d 2 = k_none then 2
  else 3

let[@inline] bits_of_int v = Int64.float_of_bits (Int64.of_int v)
let[@inline] int_of_bits f = Int64.to_int (Int64.bits_of_float f)

(* One storage chunk: parallel per-slot arrays.  [c_pay.(j)] stays the
   shared empty array until an event in this chunk uses column [j]. *)
type chunk = {
  c_ts : float array;
  c_desc : int array;
  c_name : int array;
  c_tid : int array;
  c_pay : float array array;
}

let no_column : float array = [||]

let chunk_make cap =
  { c_ts = Array.create_float cap; c_desc = Array.make cap 0;
    c_name = Array.make cap 0; c_tid = Array.make cap 0;
    c_pay = Array.make (1 + max_args) no_column }

let chunk_cap c = Array.length c.c_ts

let[@inline] column c j =
  let col = c.c_pay.(j) in
  if col != no_column then col
  else begin
    let col = Array.create_float (chunk_cap c) in
    c.c_pay.(j) <- col;
    col
  end

let first_chunk = 1024
let max_chunk = 65536

(* A key is a code-literal string with a process-wide number, under
   which each sink's tables cache the key's id. *)
type key = { k_num : int; k_str : string }

let keys = Atomic.make 0
let key s = { k_num = Atomic.fetch_and_add keys 1; k_str = s }

(* A string intern table; ids are dense and stable for its lifetime. *)
type table = {
  ids : (string, int) Hashtbl.t;
  mutable strs : string array;
  mutable n : int;
  mutable by_key : int array;  (* key number -> id; -1 until resolved *)
}

let table_make () =
  { ids = Hashtbl.create 64; strs = Array.make 64 ""; n = 0;
    by_key = Array.make (Atomic.get keys) (-1) }

let table_id tb s =
  (* [Hashtbl.find] rather than [find_opt]: a hit returns the id with no
     [Some] box, so steady-state interning allocates nothing *)
  match Hashtbl.find tb.ids s with
  | id -> id
  | exception Not_found ->
      let id = tb.n in
      if id = Array.length tb.strs then begin
        let a = Array.make (2 * id) "" in
        Array.blit tb.strs 0 a 0 id;
        tb.strs <- a
      end;
      tb.strs.(id) <- s;
      tb.n <- id + 1;
      Hashtbl.add tb.ids s id;
      id

type t = {
  ring : int;  (* 0 = unbounded chunked buffer; >0 = flight-recorder ring *)
  mutable chunks : chunk array;  (* pointer table; only it is ever copied *)
  mutable n_chunks : int;
  mutable cur : chunk;  (* == chunks.(n_chunks - 1) *)
  mutable cur_off : int;  (* next free slot in [cur] (unbounded mode) *)
  mutable last : int;  (* slot of the newest event in [cur]; -1 if none *)
  mutable len : int;  (* valid events *)
  mutable head : int;  (* ring read position (oldest event) *)
  mutable dropped : int;  (* events overwritten by the ring *)
  names : table;  (* event names and string values *)
  labels : table;  (* categories and arg keys *)
}

let create ?(ring = 0) () =
  if ring < 0 then invalid_arg "Trace.create: negative ring";
  let cap = if ring > 0 then ring else first_chunk in
  let c = chunk_make cap in
  { ring; chunks = [| c |]; n_chunks = 1; cur = c; cur_off = 0; last = -1;
    len = 0; head = 0; dropped = 0; names = table_make ();
    labels = table_make () }

let count t = t.len
let dropped t = t.dropped

let clear t =
  (* keep the first chunk, release the rest.  The intern tables survive:
     ids stay valid across [clear]. *)
  let c0 = t.chunks.(0) in
  if t.n_chunks > 1 then t.chunks <- [| c0 |];
  t.n_chunks <- 1;
  t.cur <- c0;
  t.cur_off <- 0;
  t.last <- -1;
  t.len <- 0;
  t.head <- 0;
  t.dropped <- 0

let intern t s = table_id t.names s

let resolve tb k =
  let n = Array.length tb.by_key in
  if k.k_num >= n then begin
    let a = Array.make (max (k.k_num + 1) (2 * n)) (-1) in
    Array.blit tb.by_key 0 a 0 n;
    tb.by_key <- a
  end;
  let id = table_id tb k.k_str in
  tb.by_key.(k.k_num) <- id;
  id

(* After a key's first use on a sink: one array read, no allocation. *)
let[@inline] key_id tb k =
  let by = tb.by_key in
  let id = if k.k_num < Array.length by then by.(k.k_num) else -1 in
  if id >= 0 then id else resolve tb k

let name t k = key_id t.names k

let[@inline] label t k =
  let id = key_id t.labels k in
  if id >= max_labels then
    invalid_arg (Printf.sprintf "Trace: more than %d labels" max_labels);
  id

let add_chunk t =
  let cap = min (2 * chunk_cap t.cur) max_chunk in
  let c = chunk_make cap in
  if t.n_chunks = Array.length t.chunks then begin
    let a = Array.make (2 * t.n_chunks) c in
    Array.blit t.chunks 0 a 0 t.n_chunks;
    t.chunks <- a
  end;
  t.chunks.(t.n_chunks) <- c;
  t.n_chunks <- t.n_chunks + 1;
  t.cur <- c;
  t.cur_off <- 0

(* Claim the next event's slot in [t.cur].  Ring mode rotates inside its
   single preallocated chunk; unbounded mode appends, adding a fresh
   chunk when the current one fills (no copying, ever). *)
let[@inline] next_slot t =
  if t.ring > 0 then
    if t.len < t.ring then begin
      let i = (t.head + t.len) mod t.ring in
      t.len <- t.len + 1;
      i
    end
    else begin
      (* full: overwrite the oldest event *)
      let i = t.head in
      t.head <- (t.head + 1) mod t.ring;
      t.dropped <- t.dropped + 1;
      i
    end
  else begin
    if t.cur_off = chunk_cap t.cur then add_chunk t;
    let i = t.cur_off in
    t.cur_off <- i + 1;
    t.len <- t.len + 1;
    i
  end

let[@inline] record t ~ts ~desc ~name ~tid =
  let i = next_slot t in
  let c = t.cur in
  c.c_ts.(i) <- ts;
  c.c_desc.(i) <- desc;
  c.c_name.(i) <- name;
  c.c_tid.(i) <- tid;
  t.last <- i

let instant t ~ts ~cat ~name ~tid =
  record t ~ts ~desc:(label t cat lsl cat_shift) ~name ~tid

let span t ~ts ~dur ~cat ~name ~tid =
  record t ~ts ~desc:(1 lor (label t cat lsl cat_shift)) ~name ~tid;
  (column t.cur 0).(t.last) <- dur

let[@inline] add_arg t key kind v =
  let i = t.last in
  if i < 0 then invalid_arg "Trace: argument with no event recorded";
  let key = label t key in
  let c = t.cur in
  let d = c.c_desc.(i) in
  let j = arity d in
  if j = max_args then invalid_arg "Trace: more than 3 arguments";
  c.c_desc.(i) <- d lor (kind lsl (1 + (2 * j))) lor (key lsl key_shift j);
  (column c ((d land 1) + j)).(i) <- v

let arg_i t key v = add_arg t key k_int (bits_of_int v)
let arg_f t key v = add_arg t key k_float v
let arg_s t key s = add_arg t key k_str (bits_of_int s)

(* ------------------------------------------------------------------ *)
(* Decoding (flush time only)                                          *)
(* ------------------------------------------------------------------ *)

(* Reconstruct the [event] record held at offset [i] of chunk [c]. *)
let decode_at t c i =
  let d = c.c_desc.(i) in
  let base = d land 1 in
  let arg j =
    let p = c.c_pay.(base + j).(i) in
    let kind = kind_of d j in
    ( t.labels.strs.(label_of d (key_shift j)),
      if kind = k_int then I (int_of_bits p)
      else if kind = k_float then F p
      else S t.names.strs.(int_of_bits p) )
  in
  { ts = c.c_ts.(i);
    cat = t.labels.strs.(label_of d cat_shift);
    name = t.names.strs.(c.c_name.(i));
    tid = c.c_tid.(i);
    ph = (if base = 1 then Span c.c_pay.(0).(i) else Instant);
    args = List.init (arity d) arg }

let iter f t =
  if t.ring > 0 then begin
    let c = t.chunks.(0) in
    for i = 0 to t.len - 1 do
      f (decode_at t c ((t.head + i) mod t.ring))
    done
  end
  else begin
    (* every chunk before the current one is full *)
    let rem = ref t.len in
    for ci = 0 to t.n_chunks - 1 do
      let c = t.chunks.(ci) in
      let n = min !rem (chunk_cap c) in
      for i = 0 to n - 1 do
        f (decode_at t c i)
      done;
      rem := !rem - n
    done
  end

let events t =
  let acc = ref [] in
  iter (fun ev -> acc := ev :: !acc) t;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON (Perfetto-compatible)                      *)
(* ------------------------------------------------------------------ *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Microseconds with fixed sub-microsecond precision: deterministic
   decimal formatting, no locale or platform variance. *)
let us ts = Printf.sprintf "%.3f" (ts *. 1e6)

let arg_to_buf b = function
  | S s ->
      Buffer.add_char b '"';
      json_escape b s;
      Buffer.add_char b '"'
  | I i -> Buffer.add_string b (string_of_int i)
  | F f -> Buffer.add_string b (Printf.sprintf "%.17g" f)

let event_to_buf b ev =
  Buffer.add_string b "{\"name\":\"";
  json_escape b ev.name;
  Buffer.add_string b "\",\"cat\":\"";
  json_escape b ev.cat;
  (match ev.ph with
  | Span dur ->
      Buffer.add_string b "\",\"ph\":\"X\",\"ts\":";
      Buffer.add_string b (us ev.ts);
      Buffer.add_string b ",\"dur\":";
      Buffer.add_string b (us dur)
  | Instant ->
      Buffer.add_string b "\",\"ph\":\"i\",\"ts\":";
      Buffer.add_string b (us ev.ts);
      Buffer.add_string b ",\"s\":\"t\"");
  Buffer.add_string b ",\"pid\":1,\"tid\":";
  Buffer.add_string b (string_of_int ev.tid);
  (match ev.args with
  | [] -> ()
  | args ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          json_escape b k;
          Buffer.add_string b "\":";
          arg_to_buf b v)
        args;
      Buffer.add_char b '}');
  Buffer.add_char b '}'

let to_chrome_json t =
  let b = Buffer.create (256 * (1 + t.len)) in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  iter
    (fun ev ->
      if !first then first := false else Buffer.add_string b ",\n";
      event_to_buf b ev)
    t;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b
