type sample = { s_per_op_ns : float; s_batches : int; s_reps : int }

(* Seconds on the monotonic clock, which no wall-clock step can move. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let measure ?(batches = 7) ?(reps = 50) f =
  (* Warm up caches and the allocator paths. *)
  f ();
  let times =
    List.init batches (fun _ ->
        let t0 = now () in
        for _ = 1 to reps do
          f ()
        done;
        (now () -. t0) /. float_of_int reps)
  in
  let sorted = List.sort compare times in
  let median = List.nth sorted (batches / 2) in
  { s_per_op_ns = median *. 1e9; s_batches = batches; s_reps = reps }

let overhead_pct ~baseline s =
  (s.s_per_op_ns -. baseline.s_per_op_ns) /. baseline.s_per_op_ns *. 100.0

let bandwidth_mb_s ~bytes_per_op s =
  float_of_int bytes_per_op /. (s.s_per_op_ns /. 1e9) /. (1024.0 *. 1024.0)
