(* Host-performance benchmark of the SVA reproduction.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Drives the kernel from outside, through the public functions of each
   layer, as one closed-loop client on one thread.  With --trace 0 it
   measures the end-to-end metrics; with --trace 1 it makes the separate
   traced run that gives the per-layer metrics (see NOTES.md for the
   workloads, the metrics and the layer -> metric -> workload table).
   Every operation is checked; the last line of standard output is one
   JSON object with the keys correct, attempted, failed and metrics. *)

module Boot = Ukern.Boot
module Kbuild = Ukern.Kbuild
module P = Sva_pipeline.Pipeline
module Stats = Sva_rt.Stats
module Closcomp = Sva_interp.Closcomp

type workload = Syscall_mix | Bulk_io | Vm_churn | Kernel_build

let workloads =
  [
    ("syscall-mix", Syscall_mix); ("bulk-io", Bulk_io); ("vm-churn", Vm_churn);
    ("kernel-build", Kernel_build);
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload syscall-mix|bulk-io|vm-churn|kernel-build \
     --seed N --seconds S --trace 0|1";
  exit 2

let workload, seed, seconds, traced =
  let w = ref None and seed = ref None and secs = ref None and tr = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        w := List.assoc_opt v workloads;
        if !w = None then usage ();
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        secs := int_of_string_opt v;
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        tr := Some (v = "1");
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!w, !seed, !secs, !tr) with
  | Some w, Some s, Some n, Some t when n >= 1 -> (w, s, n, t)
  | _ -> usage ()

let now_ns = Span.now_ns
let variant = Kbuild.as_tested
let engines = [ ("interp", P.default_engine); ("aot", P.aot_engine) ]

(* ---------- sample buffers and statistics ---------- *)

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let sorted b =
    let s = Array.sub b.a 0 b.n in
    Array.sort compare s;
    s

  let sum b =
    let s = ref 0. in
    for i = 0 to b.n - 1 do
      s := !s +. b.a.(i)
    done;
    !s
end

(* Nearest-rank percentile of a sorted array. *)
let pct s p =
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* ---------- op accounting ---------- *)

let attempted = ref 0
let failed = ref 0
let failure_notes : string list ref = ref []

let note_failure what =
  incr failed;
  if List.length !failure_notes < 8 then failure_notes := what :: !failure_notes

let describe = function
  | Ops.Bad s -> s
  | e -> Printexc.to_string e

(* Everything measured in one phase (one engine, or the build) over a
   run: host time per op, allocation, and the layer counters the traced
   run reports per op. *)
type phase = {
  ph_name : string;
  ph_span : string;  (** span name of one op *)
  times : Fbuf.t;  (** ns per timed op, at nominal host speed *)
  raw : Fbuf.t;  (** ns per timed op, as measured *)
  mutable words : float;  (** minor words over timed ops *)
  mutable majors : int;  (** major collections during timed ops *)
  mutable steps : int;
  mutable checks : int;
  mutable modeled_ops : int;  (** ops with steps/checks recorded *)
  mutable regs : int;
  mutable drops : int;
  mutable hits : int;
  mutable misses : int;
  mutable splay : int;
  mutable svaos_ops : int;
  mutable tc_hits : int;
  mutable tc_misses : int;
  mutable sigver : int;
  mutable violations : int;
}

let new_phase name =
  {
    ph_name = name; ph_span = "op." ^ name; times = Fbuf.create (); raw = Fbuf.create (); words = 0.; majors = 0; steps = 0;
    checks = 0; modeled_ops = 0; regs = 0; drops = 0; hits = 0; misses = 0;
    splay = 0; svaos_ops = 0; tc_hits = 0; tc_misses = 0; sigver = 0;
    violations = 0;
  }

(* Layer counters around the timed part of a block. *)
type counters = { c_stats : Stats.snapshot; c_tier : Stats.tier_snapshot;
                  c_splay : int; c_major : int }

let counters () =
  { c_stats = Stats.read (); c_tier = Stats.read_tier ();
    c_splay = Sva_rt.Splay.comparisons ();
    c_major = (Gc.quick_stat ()).Gc.major_collections }

let add_counters ph c0 =
  let c1 = counters () in
  let d = Stats.diff c1.c_stats c0.c_stats in
  let dt = Stats.diff_tier c1.c_tier c0.c_tier in
  ph.regs <- ph.regs + d.Stats.registrations;
  ph.drops <- ph.drops + d.Stats.drops;
  ph.hits <- ph.hits + d.Stats.cache_hits;
  ph.misses <- ph.misses + d.Stats.cache_misses;
  ph.violations <- ph.violations + d.Stats.violations;
  ph.splay <- ph.splay + (c1.c_splay - c0.c_splay);
  ph.majors <- ph.majors + (c1.c_major - c0.c_major);
  ph.tc_hits <- ph.tc_hits + dt.Stats.tcache_hits;
  ph.tc_misses <- ph.tc_misses + dt.Stats.tcache_misses;
  ph.sigver <- ph.sigver + dt.Stats.sig_verifications

(* ---------- the seeded op sequence ---------- *)

(* Block sizes: ops per block, warm-up ops before each engine block. *)
let warmup, engine_block, build_block =
  match workload with
  | Syscall_mix -> (50, 1000, 2)
  | Bulk_io -> (2, 24, 2)
  | Vm_churn -> (1, 6, 2)
  | Kernel_build -> (30, 600, 6)

let seq_len = warmup + engine_block

let shuffled k i =
  let rng = Random.State.make [| seed; i; k |] in
  let a = Array.init k Fun.id in
  for j = k - 1 downto 1 do
    let r = Random.State.int rng (j + 1) in
    let x = a.(j) in
    a.(j) <- a.(r);
    a.(r) <- x
  done;
  a

(* The order of the nine latency ops in each syscall-mix round, of the
   three parts of each bulk-io round, and the message each smoke script
   sends.  Every block replays the same sequence from a fresh boot, so
   each op's modeled counters can be compared across blocks and engines. *)
let mix_orders = Array.init seq_len (fun i -> shuffled 9 i)
let bulk_orders = Array.init seq_len (fun i -> shuffled 3 i)

let messages =
  Array.init seq_len (fun i -> Ops.seeded_bytes (Random.State.make [| seed; i; 7 |]) 48)

let mix_round c i =
  Array.iter (fun k -> (snd Ops.latency_ops.(k)) c) mix_orders.(i)

(* One bulk-io round; returns the data checks to run once the clock has
   stopped. *)
let bulk_round c i =
  let frames = ref [] in
  Array.iter
    (function
      | 0 -> Ops.op_file_read c
      | 1 -> Ops.op_pipe_stream c
      | _ -> frames := Ops.op_http c)
    bulk_orders.(i);
  let frames = !frames in
  fun () ->
    Ops.check_file_read c;
    Ops.check_pipe_stream c;
    Ops.check_http c frames

(* ---------- set-up ---------- *)

type env = {
  default_ref : P.built * string;  (** default build and its bytecode *)
  full_ref : (P.built * string) option;  (** kernel-build's full build *)
  mutable image : P.built;  (** the image the engine phases boot *)
}

let encode b = Sva_bytecode.Codec.encode b.P.bl_mod

let boot eng image =
  Span.within "ukern.boot_built" (fun () -> Boot.boot_built ~engine:eng image ~variant)

let fresh_ctx env eng =
  Ops.prepare ~seed ~bulk:(workload = Bulk_io) (boot eng env.image)

(* Run [f] as one checked op outside the timed blocks (set-up, warm-up). *)
let untimed what f =
  incr attempted;
  match f () with
  | () -> true
  | exception e ->
      note_failure (what ^ ": " ^ describe e);
      false

let smoke env eng i =
  let t = boot eng env.image in
  Ops.smoke t messages.(i);
  t

(* Default kernel build, first boot per engine (the aot compile from a
   cold translation cache), prepare and warm-up. *)
let setup () =
  Closcomp.clear_cache ();
  Stats.reset_all ();
  let b = Span.within "build.default" (fun () -> Stagebuild.kbuild Stagebuild.default_flags variant) in
  let default_ref = (b, encode b) in
  let full_ref =
    if workload = Kernel_build then
      let f = Span.within "build.full" (fun () -> Stagebuild.kbuild Stagebuild.full_flags variant) in
      Some (f, encode f)
    else None
  in
  let env =
    { default_ref; full_ref; image = fst (Option.value full_ref ~default:default_ref) }
  in
  List.iter
    (fun (name, eng) ->
      match workload with
      | Syscall_mix | Bulk_io | Kernel_build ->
          ignore
            (untimed ("first boot " ^ name) (fun () ->
                 let c = fresh_ctx env eng in
                 for i = 0 to warmup - 1 do
                   if workload = Bulk_io then bulk_round c i () else mix_round c i
                 done))
      | Vm_churn ->
          ignore (untimed ("first boot " ^ name) (fun () -> ignore (smoke env eng 0))))
    engines;
  env

(* ---------- timed blocks ---------- *)

(* Modeled counters (cycles, steps, checks) of every op of the first
   clean interpreter block: the oracle every later block, on either
   engine, must reproduce exactly. *)
let oracle : (int * int * int) array option ref = ref None

let compare_oracle ~engine recs =
  match !oracle with
  | None -> if engine = "interp" && Array.for_all Option.is_some recs then
        oracle := Some (Array.map Option.get recs)
  | Some o ->
      Array.iteri
        (fun i r ->
          match r with
          | Some r when r <> o.(i) ->
              let c, s, k = r and c0, s0, k0 = o.(i) in
              note_failure
                (Printf.sprintf
                   "%s op %d: modeled cycles/steps/checks %d/%d/%d, interpreter %d/%d/%d"
                   engine i c s k c0 s0 k0)
          | _ -> ())
        recs

(* Phase boundary: process-global state that one block could hand to
   the next is reset, as the repository's bench sections do. *)
let boundary () =
  Span.within "engine.Closcomp.clear_cache" Closcomp.clear_cache;
  Span.within "rt.Stats.reset_all" Stats.reset_all;
  Span.within "gc.compact" Gc.compact


(* The ops of one block: raw times, scaled to nominal host speed once
   the run is over (see speed.ml). *)
type segment = { sg_phase : phase; pending : Fbuf.t; sg_start : int }

let open_segment ph =
  Speed.take ();
  { sg_phase = ph; pending = Fbuf.create (); sg_start = now_ns () }

let closed : (segment * int) list ref = ref []

let close_segment sg =
  closed := (sg, now_ns ()) :: !closed;
  Speed.take ()

(* Scale every closed block's op times into its phase. *)
let finalize () =
  List.iter
    (fun (sg, t1) ->
      let f = Speed.factor ~t0:sg.sg_start ~t1 in
      for i = 0 to sg.pending.Fbuf.n - 1 do
        let x = sg.pending.Fbuf.a.(i) in
        Fbuf.add sg.sg_phase.raw x;
        Fbuf.add sg.sg_phase.times (x *. f)
      done)
    (List.rev !closed);
  closed := []

(* Time one op.  [run] performs it and returns a check to run after the
   clock stops, plus a function giving the op's modeled counters and
   SVA-OS op count.  Returns those counters, or None if the op failed. *)
let timed sg run =
  let ph = sg.sg_phase in
  incr attempted;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let result =
    match Span.op ph.ph_span run with
    | check, modeled -> (
        let t1 = now_ns () in
        let w1 = Gc.minor_words () in
        match check () with
        | () ->
            Fbuf.add sg.pending (float_of_int (t1 - t0));
            ph.words <- ph.words +. (w1 -. w0);
            Some (modeled ())
        | exception e ->
            note_failure (ph.ph_name ^ ": " ^ describe e);
            None)
    | exception e ->
        note_failure (ph.ph_name ^ ": " ^ describe e);
        None
  in
  Speed.tick ();
  result

let record ph recs i = function
  | Some (cycles, steps, checks, sops) ->
      recs.(i) <- Some (cycles, steps, checks);
      ph.steps <- ph.steps + steps;
      ph.checks <- ph.checks + checks;
      ph.svaos_ops <- ph.svaos_ops + sops;
      ph.modeled_ops <- ph.modeled_ops + 1;
      true
  | None -> false

(* An engine block on one booted kernel (all workloads but vm-churn): fresh
   boot, prepare, warm-up, then [engine_block] timed rounds.  After a
   failure the kernel is re-booted so one fault cannot cascade; the
   rest of that block is no longer compared with the oracle. *)
let vm_block env ph eng =
  let c = ref (fresh_ctx env eng) in
  let round cx i =
    if workload = Bulk_io then bulk_round cx i
    else begin
      mix_round cx i;
      ignore
    end
  in
  let ok = ref true in
  for i = 0 to warmup - 1 do
    if not (untimed "warm-up" (fun () -> round !c i ())) then begin
      ok := false;
      c := fresh_ctx env eng
    end
  done;
  let recs = Array.make engine_block None in
  let c0 = counters () in
  let sg = open_segment ph in
  for i = 0 to engine_block - 1 do
    let cx = !c in
    let t = cx.Ops.t in
    let cy = Boot.cycles t and st = Boot.steps t and ch = Stats.checks_now ()
    and so = t.Boot.sys.Sva_os.Svaos.ops_count in
    let r =
      timed sg (fun () ->
          let check = round cx (warmup + i) in
          ( check,
            fun () ->
              ( Boot.cycles t - cy, Boot.steps t - st, Stats.checks_now () - ch,
                t.Boot.sys.Sva_os.Svaos.ops_count - so ) ))
    in
    if not (record ph recs i r) then begin
      ok := false;
      c := fresh_ctx env eng
    end
  done;
  close_segment sg;
  add_counters ph c0;
  if !ok then compare_oracle ~engine:ph.ph_name recs

(* An engine block of whole-VM ops (vm-churn): each op
   boots a fresh SVM from the image, runs the smoke script and discards
   the VM.  The warm-up op fills the in-process translation cache.  A
   full major collection before each op (untimed) frees the last op's
   122 MB machine, so every op starts from the same heap and the
   process does not hold several dead machines at once.  The trace
   clock, which instantiate points at the newest VM, is reset first:
   otherwise it keeps the last VM alive, and the ops alternate between
   reusing a freed machine's memory (15 ms) and faulting in fresh pages
   (60 ms). *)
let idle_clock = !Sva_rt.Trace.clock

let churn_block env ph eng =
  let ok = ref true in
  for i = 0 to warmup - 1 do
    if not (untimed "warm-up" (fun () -> ignore (smoke env eng i))) then ok := false
  done;
  let recs = Array.make engine_block None in
  let c0 = counters () in
  let sg = open_segment ph in
  for i = 0 to engine_block - 1 do
    Sva_rt.Trace.clock := idle_clock;
    Gc.full_major ();
    let ch = Stats.checks_now () in
    let r =
      timed sg (fun () ->
          let t = smoke env eng (warmup + i) in
          ( ignore,
            fun () ->
              ( Boot.cycles t, Boot.steps t, Stats.checks_now () - ch,
                t.Boot.sys.Sva_os.Svaos.ops_count ) ))
    in
    if not (record ph recs i r) then ok := false
  done;
  close_segment sg;
  add_counters ph c0;
  if !ok then compare_oracle ~engine:ph.ph_name recs

(* A build block; each build starts after a full major collection, as
   whole-VM ops do.  kernel-build times the whole certified compile plus
   encode and sign; the runtime workloads time the default build they
   pay in set-up.  The traced run drives the build stage by stage.  The
   output must equal the set-up build's byte for byte. *)
let build_block env ph =
  let flags, (ref_built, ref_bytes) =
    match env.full_ref with
    | Some r -> (Stagebuild.full_flags, r)
    | None -> (Stagebuild.default_flags, env.default_ref)
  in
  let full = workload = Kernel_build in
  let sg = open_segment ph in
  for _ = 1 to build_block do
    Gc.full_major ();
    let r =
      timed sg (fun () ->
          let built, bytes, signed =
            if !Span.on then
              let b, bytes = Stagebuild.build flags variant in
              (b, Some bytes, None)
            else
              let b = Stagebuild.kbuild flags variant in
              if full then
                let bytes = Sva_bytecode.Codec.encode b.P.bl_mod in
                (b, Some bytes, Some (Sva_bytecode.Signing.sign b.P.bl_mod))
              else (b, None, None)
          in
          ( (fun () ->
              let bytes = match bytes with Some s -> s | None -> encode built in
              if bytes <> ref_bytes then raise (Ops.Bad "build output differs from set-up build");
              if built.P.bl_summary <> ref_built.P.bl_summary then
                raise (Ops.Bad "check-insertion summary differs from set-up build");
              (match signed with
              | Some e when e.Sva_bytecode.Signing.ce_bytecode <> bytes ->
                  raise (Ops.Bad "signed entry does not carry the encoded module")
              | _ -> ());
              if full then env.image <- built),
            fun () -> (0, 0, 0, 0) ))
    in
    ignore r
  done;
  close_segment sg

let run_phase env ph =
  boundary ();
  match ph.ph_name with
  | "build" -> build_block env ph
  | name -> (
      let eng = List.assoc name engines in
      match workload with
      | Syscall_mix | Bulk_io | Kernel_build -> vm_block env ph eng
      | Vm_churn -> churn_block env ph eng)

type phases = { interp : phase; aot : phase; build : phase }

let new_phases () =
  { interp = new_phase "interp"; aot = new_phase "aot"; build = new_phase "build" }

(* One cycle of blocks; the engine order alternates between cycles so
   slow drift of the host hits both engines alike. *)
let run_cycle env ps k =
  let engines = if k mod 2 = 0 then [ ps.interp; ps.aot ] else [ ps.aot; ps.interp ] in
  let order =
    if workload = Kernel_build then ps.build :: engines else engines @ [ ps.build ]
  in
  List.iter (run_phase env) order

(* ---------- metrics ---------- *)

let e2e : (string * float * string * string) list ref = ref []

let metric ?(note = "") name value unit =
  e2e := (name, value, unit, note) :: !e2e

(* The p50 and the rate are at nominal host speed (see speed.ml), with
   the raw value in the note.  The p90 is as measured: the tail is made
   of collections and page faults, which host contention stretches less
   than the body, so scaling it by the reference over-corrects it (see
   NOTES.md). *)
let phase_metrics ph =
  let s = Fbuf.sorted ph.times and r = Fbuf.sorted ph.raw in
  let n = Array.length s in
  let p = ph.ph_name in
  let nn = Printf.sprintf "n=%d" n in
  metric (p ^ ".op_ms_p50") (pct s 0.5 /. 1e6) "ms"
    ~note:(Printf.sprintf "n=%d, raw %.6g" n (pct r 0.5 /. 1e6));
  metric (p ^ ".op_ms_p90") (pct r 0.9 /. 1e6) "ms"
    ~note:(Printf.sprintf "n=%d, %d beyond, as measured; scaled %.6g" n
             (n - int_of_float (ceil (0.9 *. float_of_int n))) (pct s 0.9 /. 1e6));
  metric (p ^ ".ops_per_s") (float_of_int n /. (Fbuf.sum ph.times /. 1e9)) "ops/s"
    ~note:(Printf.sprintf "n=%d, raw %.6g" n (float_of_int n /. (Fbuf.sum ph.raw /. 1e9)));
  metric (p ^ ".alloc_kw_per_op") (ph.words /. float_of_int n /. 1e3) "kwords" ~note:nn

let modeled_cycles_per_op () =
  match !oracle with
  | Some o when Array.length o > 0 ->
      let s = Array.fold_left (fun a (c, _, _) -> a + c) 0 o in
      float_of_int s /. float_of_int (Array.length o)
  | _ -> nan

(* ---------- security check (kernel-build) ---------- *)

(* Section 7.2: four of the five exploits caught in the as-tested build,
   BID 13589 caught once the user-copy library is compiled, and none
   caught under Native.  A change that drops checks cannot pass.  This
   is the experiment of Exploits.report, run kernel by kernel with a
   full major collection in between: each kernel has a 122 MB machine,
   and report's eleven in a row would otherwise be live at once. *)
let exploit_check () =
  let caught = function Exploits.Caught _ -> true | _ -> false in
  let run conf variant ex =
    Gc.full_major ();
    Span.within "exploits.attack" (fun () ->
        Exploits.attack (Boot.boot ~conf ~variant ()) ex)
  in
  let ok =
    List.for_all
      (fun ex ->
        (not (caught (run P.Native Kbuild.as_tested ex)))
        &&
        let safe = caught (run P.Sva_safe Kbuild.as_tested ex) in
        match ex with
        | Exploits.Bid_13589 -> (not safe) && caught (run P.Sva_safe Kbuild.with_usercopy ex)
        | _ -> safe)
      Exploits.all
  in
  incr attempted;
  if not ok then note_failure "exploit verdicts differ from Section 7.2";
  ok

(* ---------- output ---------- *)

let json_number v =
  if Float.is_nan v || Float.is_integer v && Float.abs v > 1e15 then "null"
  else if Float.is_integer v then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct metrics =
  List.iter
    (fun (name, v, unit, note) ->
      Printf.printf "  %-40s %14.6g %-8s %s\n" name v unit note)
    metrics;
  Printf.printf "attempted %d, failed %d, error_rate %.6g\n" !attempted !failed
    (float_of_int !failed /. float_of_int (max 1 !attempted));
  List.iter (Printf.printf "  failure: %s\n") (List.rev !failure_notes);
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit, _) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string name)
             (json_number v) (Span.json_string unit))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed body

(* ---------- the two runs ---------- *)

let workload_name = fst (List.find (fun (_, w) -> w = workload) workloads)

let timed_run () =
  let setups =
    List.init 3 (fun _ ->
        Gc.compact ();
        Speed.take ();
        let t0 = now_ns () in
        let env = setup () in
        let t1 = now_ns () in
        Speed.take ();
        (t0, t1, env))
  in
  let env = (fun (_, _, e) -> e) (List.nth setups 2) in
  let ps = new_phases () in
  let t_end = now_ns () + (seconds * 1_000_000_000) in
  let k = ref 0 in
  while !k = 0 || now_ns () < t_end do
    run_cycle env ps !k;
    incr k
  done;
  finalize ();
  let setup_raw = List.map (fun (t0, t1, _) -> float_of_int (t1 - t0) /. 1e9) setups in
  let setup_scaled =
    List.map
      (fun (t0, t1, _) ->
        float_of_int (t1 - t0) /. 1e9 *. Speed.factor ~t0 ~t1)
      setups
  in
  let sec_ok = workload <> Kernel_build || exploit_check () in
  let violations = ps.interp.violations + ps.aot.violations in
  if violations > 0 then note_failure (Printf.sprintf "%d safety violations" violations);
  metric "setup_s" (Speed.median setup_scaled) "s"
    ~note:(Printf.sprintf "median of 3 set-ups, raw %.6g" (Speed.median setup_raw));
  metric "peak_rss_mb" (Probes.status_mb "VmHWM:") "MB";
  metric "modeled_cycles_per_op" (modeled_cycles_per_op ()) "cycles"
    ~note:(Printf.sprintf "n=%d" (match !oracle with Some o -> Array.length o | None -> 0));
  List.iter phase_metrics [ ps.interp; ps.aot; ps.build ];
  Printf.printf
    "workload %s, seed %d, %d cycles of blocks, rt.violations %d, reference chunk %.6g us (median of %d)\n"
    workload_name seed !k violations
    (Speed.median (List.map snd !Speed.chunks) /. 1e3)
    (List.length !Speed.chunks);
  print_result ~correct:(sec_ok && !failed = 0) (List.rev !e2e)

let traced_run () =
  let env = setup () in
  let t_start = now_ns () in
  Span.on := true;
  let layer = Probes.run ~untimed ~seed ~default:env.default_ref in
  let untraced = new_phases () and traced = new_phases () in
  let t_end = t_start + (seconds * 1_000_000_000) in
  let k = ref 0 in
  while !k < 2 || now_ns () < t_end do
    let trace = !k mod 2 = 1 in
    Span.on := trace;
    if trace then P.install_obs { P.default_obs with P.obs_profile = true }
    else Sva_rt.Trace.disable_profile ();
    run_cycle env (if trace then traced else untraced) (!k / 2);
    incr k
  done;
  Sva_rt.Trace.disable_profile ();
  Span.on := true;
  let sec_ok = workload <> Kernel_build || exploit_check () in
  Span.on := false;
  finalize ();
  let u = untraced in
  let per_op ph x = float_of_int x /. float_of_int (max 1 ph.modeled_ops) in
  let steps_per_op = per_op u.interp u.interp.steps in
  let m = ref [] in
  let add name v unit = m := (name, v, unit, "") :: !m in
  List.iter
    (fun ph ->
      let n = float_of_int ph.times.Fbuf.n in
      let steps = float_of_int (max 1 ph.steps) in
      add ("engine.ns_per_step." ^ ph.ph_name) (Fbuf.sum ph.times /. steps) "ns";
      add ("engine.alloc_w_per_step." ^ ph.ph_name) (ph.words /. steps) "words";
      add ("gc.major_per_kop." ^ ph.ph_name) (float_of_int ph.majors /. n *. 1e3) "count")
    [ u.interp; u.aot ];
  add "engine.steps_per_op" steps_per_op "steps";
  add "engine.tcache_hit_rate"
    (float_of_int u.aot.tc_hits /. float_of_int (max 1 (u.aot.tc_hits + u.aot.tc_misses)))
    "fraction";
  add "engine.sig_verifications_per_op"
    (float_of_int u.aot.sigver /. float_of_int (max 1 u.aot.times.Fbuf.n)) "count";
  add "rt.checks_per_op" (per_op u.interp u.interp.checks) "count";
  add "rt.regs_per_op" (per_op u.interp u.interp.regs) "count";
  add "rt.drops_per_op" (per_op u.interp u.interp.drops) "count";
  add "rt.cache_hit_rate"
    (float_of_int u.interp.hits /. float_of_int (max 1 (u.interp.hits + u.interp.misses)))
    "fraction";
  add "rt.splay_cmp_per_op" (per_op u.interp u.interp.splay) "count";
  add "svaos.ops_per_op" (per_op u.interp u.interp.svaos_ops) "count";
  let primary ps = if workload = Kernel_build then ps.build else ps.interp in
  let p50 ph = pct (Fbuf.sorted ph.times) 0.5 in
  add "host.ref_chunk_us" (Speed.median (List.map snd !Speed.chunks) /. 1e3) "us";
  let pt = p50 (primary traced) and pu = p50 (primary untraced) in
  m :=
    ( "trace.overhead_pct", (pt -. pu) /. pu *. 100., "%",
      Printf.sprintf "p50 traced %.6g ms (n=%d), untraced %.6g ms (n=%d)" (pt /. 1e6)
        (primary traced).times.Fbuf.n (pu /. 1e6) (primary untraced).times.Fbuf.n )
    :: !m;
  let violations =
    List.fold_left (fun a ph -> a + ph.violations) 0
      [ u.interp; u.aot; traced.interp; traced.aot ]
  in
  if violations > 0 then note_failure (Printf.sprintf "%d safety violations" violations);
  let path =
    Printf.sprintf ".bench_out/trace-%s-seed%d.json" workload_name seed
  in
  (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
  Span.write path;
  Printf.printf "workload %s, seed %d (traced run; spans in %s)\n" workload_name seed path;
  Printf.printf "  %-34s %8s %12s %12s\n" "span" "count" "total ms" "self ms";
  List.iter
    (fun (name, n, tot, slf) ->
      Printf.printf "  %-34s %8d %12.3f %12.3f\n" name n (float_of_int tot /. 1e6)
        (float_of_int slf /. 1e6))
    (Span.self_times ());
  print_result ~correct:(sec_ok && !failed = 0) (layer @ List.rev !m)

let () = if traced then traced_run () else timed_run ()
