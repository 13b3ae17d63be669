(* The random-expression generator the differential tests share: MiniC
   arithmetic over the variables [a], [b] and [c] using only operators
   that cannot trap (no division), so every generated program runs to
   completion unless a check or the surrounding template traps.  Each
   test wraps these expressions in its own program template. *)

let rec gen_expr rng depth =
  if depth = 0 then
    match Random.State.int rng 4 with
    | 0 -> "a"
    | 1 -> "b"
    | 2 -> "c"
    | _ -> string_of_int (Random.State.int rng 2000 - 1000)
  else
    let l = gen_expr rng (depth - 1) and r = gen_expr rng (depth - 1) in
    match Random.State.int rng 9 with
    | 0 -> Printf.sprintf "(%s + %s)" l r
    | 1 -> Printf.sprintf "(%s - %s)" l r
    | 2 -> Printf.sprintf "(%s * %s)" l r
    | 3 -> Printf.sprintf "(%s & %s)" l r
    | 4 -> Printf.sprintf "(%s | %s)" l r
    | 5 -> Printf.sprintf "(%s ^ %s)" l r
    | 6 -> Printf.sprintf "(%s << %d)" l (Random.State.int rng 8)
    | 7 -> Printf.sprintf "(%s >> %d)" l (Random.State.int rng 8)
    | _ -> Printf.sprintf "(%s < %s ? %s : %s)" l r l r
