(* Host speed reference.

   The machines this benchmark runs on share their cores with other
   tenants.  The contention comes in episodes of seconds to minutes and
   slows the whole process by up to 2x, so whole runs are slow and no
   choice of percentile over the measured ops removes it.  The benchmark
   therefore measures the host's current speed with a fixed reference
   kernel, run in short chunks between the measured ops, and scales the
   op times of each block by the nominal chunk time over the median time
   of the chunks run during the block and the second around it.  A
   scaled time is "milliseconds at nominal host speed"; the raw times
   are printed next to it.

   The kernel makes pseudo-random loads and stores in a 64 KB byte
   memory and boxes a quarter of its results: memory access and
   minor-heap allocation, as in the SVM engines and the compiler.  Its
   working set stays in the core's caches, and it is timed on a second
   pass, so it measures the core's speed rather than how much cache the
   measured op just evicted.  Under a busy neighbour core it slowed 1.7x
   and the syscall mix on the interpreter 1.6x.  It is part of the
   benchmark and must never change: every recorded time depends on
   it. *)

let now_ns = Span.now_ns

let mem_size = 64 lsl 10
let mem = Bytes.make mem_size '\001'
let ring = Array.make 4096 (ref 0)
let regs = Array.make 2 1

let run_kernel steps =
  let r = regs in
  for i = 1 to steps do
    r.(0) <- ((r.(0) * 1103515245) + 12345) land 0x3fffffff;
    let a = r.(0) land (mem_size - 8) in
    r.(1) <- r.(1) + Int64.to_int (Bytes.get_int64_le mem a);
    Bytes.set_int64_le mem ((a + 4096) land (mem_size - 8)) (Int64.of_int (r.(1) + i));
    if r.(0) land 3 = 0 then ring.(r.(0) land 4095) <- ref r.(1)
  done

(* Steps of one chunk, and the chunk time that counts as nominal speed:
   about what an uncontended core of a 2 GHz Xeon takes. *)
let chunk_steps = 15_000
let nominal_ns = 90_000.

let chunk () =
  run_kernel chunk_steps;
  let t0 = now_ns () in
  run_kernel chunk_steps;
  float_of_int (now_ns () - t0)

(* A chunk runs between measured ops at most this often, so the
   reference sees the same stretch of time the ops do. *)
let every_ns = 10_000_000

(* Every chunk of the run, newest first, with the time it ended. *)
let chunks : (int * float) list ref = ref []
let last = ref 0

let take () =
  let c = chunk () in
  last := now_ns ();
  chunks := (!last, c) :: !chunks

(* Call between measured ops. *)
let tick () = if now_ns () - !last >= every_ns then take ()

let median l =
  let a = Array.of_list (List.sort compare l) in
  a.(Array.length a / 2)

(* Chunks within this distance of a measured stretch count for it:
   contention episodes last seconds, and a wider window gives the
   median more chunks. *)
let window_ns = 1_000_000_000

(* The factor that scales times measured between [t0] and [t1] to
   nominal speed. *)
let factor ~t0 ~t1 =
  let near =
    List.filter_map
      (fun (t, c) -> if t >= t0 - window_ns && t <= t1 + window_ns then Some c else None)
      !chunks
  in
  nominal_ns /. median near
