type cmp = Le | Ge | Eq
type constr = { expr : Lin_expr.t; cmp : cmp; rhs : float }
type solution = { objective : float; values : float array }
type outcome = Optimal of solution | Infeasible | Unbounded

let eps = 1e-7

let constr expr cmp rhs = { expr; cmp; rhs }

(* Tableau layout: [m] constraint rows of width [cols + 1] (last column is
   the rhs).  [basis.(i)] is the column currently basic in row [i]. *)
type tableau = {
  t : float array array;
  basis : int array;
  m : int;
  cols : int;
}

let pivot tb ~row ~col =
  let t = tb.t in
  let p = t.(row).(col) in
  let w = tb.cols + 1 in
  let tr = t.(row) in
  for j = 0 to w - 1 do
    tr.(j) <- tr.(j) /. p
  done;
  for i = 0 to tb.m - 1 do
    if i <> row then begin
      let f = t.(i).(col) in
      if Float.abs f > 0. then begin
        let ti = t.(i) in
        for j = 0 to w - 1 do
          ti.(j) <- ti.(j) -. (f *. tr.(j))
        done
      end
    end
  done;
  tb.basis.(row) <- col

(* Reduced-cost row for cost vector [c] under the current basis:
   zeta.(j) = sum_i c(basis i) * T i j - c j, and the current objective in
   the last slot. *)
let make_zrow tb c =
  let w = tb.cols + 1 in
  let z = Array.make w 0. in
  for j = 0 to tb.cols - 1 do
    z.(j) <- -.c.(j)
  done;
  for i = 0 to tb.m - 1 do
    let cb = c.(tb.basis.(i)) in
    if Float.abs cb > 0. then
      let ti = tb.t.(i) in
      for j = 0 to w - 1 do
        z.(j) <- z.(j) +. (cb *. ti.(j))
      done
  done;
  z

let update_zrow z tb ~row ~col =
  let f = z.(col) in
  if Float.abs f > 0. then begin
    let tr = tb.t.(row) in
    for j = 0 to tb.cols do
      z.(j) <- z.(j) -. (f *. tr.(j))
    done
  end

(* Run simplex iterations for reduced-cost row [z]; [allowed j] restricts
   entering columns (used to forbid artificials in phase 2).  Returns
   [`Optimal] or [`Unbounded]. *)
let iterate ?deadline tb z ~allowed =
  let dantzig_limit = 20 * (tb.m + tb.cols) in
  let iter_limit = (200 * (tb.m + tb.cols)) + 10_000 in
  let expired () =
    match deadline with
    | Some d -> Unix.gettimeofday () > d
    | None -> false
  in
  let rec go it =
    if it > iter_limit then `Optimal (* stalled: accept current vertex *)
    else if it land 255 = 0 && expired () then `Timeout
    else begin
      (* entering column *)
      let enter = ref (-1) in
      if it <= dantzig_limit then begin
        let best = ref (-.eps) in
        for j = 0 to tb.cols - 1 do
          if allowed j && z.(j) < !best then begin
            best := z.(j);
            enter := j
          end
        done
      end
      else
        (* Bland's rule: first improving column, guarantees termination *)
        (try
           for j = 0 to tb.cols - 1 do
             if allowed j && z.(j) < -.eps then begin
               enter := j;
               raise Exit
             end
           done
         with Exit -> ());
      if !enter < 0 then `Optimal
      else begin
        let col = !enter in
        (* ratio test, Bland tie-break on basis index *)
        let row = ref (-1) in
        let best = ref infinity in
        for i = 0 to tb.m - 1 do
          let a = tb.t.(i).(col) in
          if a > eps then begin
            let r = tb.t.(i).(tb.cols) /. a in
            if
              r < !best -. eps
              || (r < !best +. eps && !row >= 0
                  && tb.basis.(i) < tb.basis.(!row))
            then begin
              best := r;
              row := i
            end
          end
        done;
        if !row < 0 then `Unbounded
        else begin
          pivot tb ~row:!row ~col;
          update_zrow z tb ~row:!row ~col;
          go (it + 1)
        end
      end
    end
  in
  go 0

let maximize ?deadline ~nvars ~objective constrs =
  let constrs = Array.of_list constrs in
  let m = Array.length constrs in
  let check_vars e =
    List.iter
      (fun v ->
        if v < 0 || v >= nvars then
          invalid_arg
            (Printf.sprintf "Simplex: variable x%d out of range (nvars=%d)" v
               nvars))
      (Lin_expr.vars e)
  in
  check_vars objective;
  Array.iter (fun c -> check_vars c.expr) constrs;
  (* Normalize: move expr constants to rhs, make rhs >= 0. *)
  let rows =
    Array.map
      (fun c ->
        let rhs = c.rhs -. Lin_expr.constant c.expr in
        let coeffs = Lin_expr.coeffs c.expr in
        if rhs < 0. then
          let coeffs = List.map (fun (v, a) -> (v, -.a)) coeffs in
          let cmp = match c.cmp with Le -> Ge | Ge -> Le | Eq -> Eq in
          (coeffs, cmp, -.rhs)
        else (coeffs, c.cmp, rhs))
      constrs
  in
  let nslack =
    Array.fold_left
      (fun acc (_, cmp, _) -> match cmp with Le | Ge -> acc + 1 | Eq -> acc)
      0 rows
  in
  let nart =
    Array.fold_left
      (fun acc (_, cmp, _) -> match cmp with Ge | Eq -> acc + 1 | Le -> acc)
      0 rows
  in
  let cols = nvars + nslack + nart in
  let t = Array.make_matrix m (cols + 1) 0. in
  let basis = Array.make m (-1) in
  let next_slack = ref nvars in
  let next_art = ref (nvars + nslack) in
  Array.iteri
    (fun i (coeffs, cmp, rhs) ->
      List.iter (fun (v, a) -> t.(i).(v) <- t.(i).(v) +. a) coeffs;
      t.(i).(cols) <- rhs;
      (match cmp with
      | Le ->
          t.(i).(!next_slack) <- 1.;
          basis.(i) <- !next_slack;
          incr next_slack
      | Ge ->
          t.(i).(!next_slack) <- -1.;
          incr next_slack
      | Eq -> ());
      match cmp with
      | Ge | Eq ->
          t.(i).(!next_art) <- 1.;
          basis.(i) <- !next_art;
          incr next_art
      | Le -> ())
    rows;
  let tb = { t; basis; m; cols } in
  let art_start = nvars + nslack in
  let infeasible = ref false in
  if nart > 0 then begin
    (* Phase 1: maximize -(sum of artificials). *)
    let c1 = Array.make cols 0. in
    for j = art_start to cols - 1 do
      c1.(j) <- -1.
    done;
    let z1 = make_zrow tb c1 in
    (match iterate ?deadline tb z1 ~allowed:(fun _ -> true) with
    | `Unbounded -> assert false (* phase-1 objective is bounded by 0 *)
    | `Optimal | `Timeout -> ());
    if z1.(cols) < -.eps then infeasible := true
    else
      (* Drive surviving artificial basics out of the basis. *)
      for i = 0 to m - 1 do
        if basis.(i) >= art_start then begin
          let found = ref false in
          let j = ref 0 in
          while (not !found) && !j < art_start do
            if Float.abs t.(i).(!j) > eps then begin
              pivot tb ~row:i ~col:!j;
              found := true
            end;
            incr j
          done
          (* If no pivot exists the row is redundant (all-zero over real
             columns); leaving the artificial basic at value 0 is harmless. *)
        end
      done
  end;
  if !infeasible then Infeasible
  else begin
    let c2 = Array.make cols 0. in
    List.iter (fun (v, a) -> c2.(v) <- a) (Lin_expr.coeffs objective);
    let z2 = make_zrow tb c2 in
    let allowed j = j < art_start in
    match iterate ?deadline tb z2 ~allowed with
    | `Unbounded -> Unbounded
    | `Timeout -> Infeasible  (* deadline hit: report no usable vertex *)
    | `Optimal ->
        let values = Array.make nvars 0. in
        for i = 0 to m - 1 do
          if basis.(i) < nvars then values.(basis.(i)) <- t.(i).(cols)
        done;
        Optimal
          { objective = z2.(cols) +. Lin_expr.constant objective; values }
  end

let minimize ~nvars ~objective constrs =
  match maximize ~nvars ~objective:(Lin_expr.neg objective) constrs with
  | Optimal s -> Optimal { s with objective = -.s.objective }
  | (Infeasible | Unbounded) as o -> o
