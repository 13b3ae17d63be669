(* The observability layer (event trace + per-metapool metrics +
   cycle-attribution profiler) must observe without deciding: ring
   accounting is exact under wrap-around, a disabled emission site
   allocates nothing, enabling tracing/profiling changes no result, check
   count or modeled cycle, both execution tiers emit the same event
   stream (modulo the tier's own promote/tcache events), and the Chrome
   export survives a JSON round trip. *)

module Pipeline = Sva_pipeline.Pipeline
module Interp = Sva_interp.Interp
module Closcomp = Sva_interp.Closcomp
module Trace = Sva_rt.Trace
module Stats = Sva_rt.Stats
module Boot = Ukern.Boot
module J = Harness.Jsonout

let with_trace ?capacity f =
  Trace.enable ?capacity ();
  Fun.protect ~finally:Trace.disable f

let with_profile f =
  Trace.enable_profile ();
  Fun.protect ~finally:Trace.disable_profile f

(* ---------- ring buffer accounting ---------- *)

let test_ring_wrap () =
  with_trace ~capacity:8 (fun () ->
      for i = 0 to 19 do
        Trace.emit_svaos ("op" ^ string_of_int i)
      done;
      Alcotest.(check int) "capacity" 8 (Trace.capacity ());
      Alcotest.(check int) "emitted counts overwritten events" 20
        (Trace.emitted ());
      Alcotest.(check int) "dropped = emitted - capacity" 12 (Trace.dropped ());
      let evs = Trace.events () in
      Alcotest.(check int) "at most capacity retained" 8 (List.length evs);
      Alcotest.(check (list string))
        "oldest retained first, newest last"
        [ "op12"; "op13"; "op14"; "op15"; "op16"; "op17"; "op18"; "op19" ]
        (List.map (fun e -> e.Trace.ev_name) evs);
      Alcotest.(check int) "sequence numbers survive the wrap" 12
        (List.hd evs).Trace.ev_seq;
      Alcotest.(check int) "count by kind" 8 (Trace.count Trace.Ev_svaos);
      Trace.clear ();
      Alcotest.(check int) "clear resets emitted" 0 (Trace.emitted ());
      Alcotest.(check int) "clear resets dropped" 0 (Trace.dropped ());
      Alcotest.(check int) "clear empties the ring" 0
        (List.length (Trace.events ()));
      Alcotest.(check bool) "still recording after clear" true (Trace.enabled ()));
  Alcotest.(check bool) "disabled afterwards" false (Trace.enabled ())

let test_no_wrap_accounting () =
  with_trace ~capacity:16 (fun () ->
      for i = 1 to 5 do
        Trace.emit_check "ls" ~pool:"MP" ~addr:i ~len:8
      done;
      Alcotest.(check int) "emitted" 5 (Trace.emitted ());
      Alcotest.(check int) "nothing dropped below capacity" 0 (Trace.dropped ());
      Alcotest.(check int) "all retained" 5 (List.length (Trace.events ())))

(* ---------- disabled mode: one flag test, zero allocation ---------- *)

let test_disabled_zero_alloc () =
  Trace.disable ();
  (* warm the call sites so any one-time setup is out of the window *)
  Trace.emit_check "ls" ~pool:"MP" ~addr:0 ~len:0;
  Trace.emit_syscall_enter ~num:0;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Trace.emit_check "ls" ~pool:"MP" ~addr:i ~len:8;
    Trace.emit_register ~pool:"MP" ~start:i ~len:16;
    Trace.emit_drop ~pool:"MP" ~start:i;
    Trace.emit_syscall_enter ~num:4;
    Trace.emit_syscall_exit ~num:4;
    Trace.emit_svaos "sva.icontext.create";
    Trace.emit_range_elide ~what:"bounds" ~count:3
  done;
  let w1 = Gc.minor_words () in
  (* 70k disabled emissions; the only tolerated words are the boxed
     floats of the Gc.minor_words calls themselves *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled emission allocates nothing (%.0f words)"
       (w1 -. w0))
    true
    (w1 -. w0 < 64.)

(* ---------- differential: tracing is semantically invisible ---------- *)

(* A helper call in a loop over a global array, so the run exercises
   object registration and bounds/ls checks. *)
let gen_program seed =
  let rng = Random.State.make [| seed |] in
  let e1 = Randexpr.gen_expr rng 3 in
  let e2 = Randexpr.gen_expr rng 2 in
  let mask = (1 lsl (1 + Random.State.int rng 5)) - 1 in
  Printf.sprintf
    "int tbl[32];\n\
     int helper(int x, int i) { return (x ^ (x << 3)) + i * 3; }\n\
     int f(int a, int b) {\n\
    \  int c = %s;\n\
    \  int acc = 0;\n\
    \  for (int i = 0; i < 8; i++) {\n\
    \    tbl[i] = c + i;\n\
    \    if ((%s) > acc) acc += helper(c, i); else acc ^= tbl[i & %d];\n\
    \    c = c + i;\n\
    \  }\n\
    \  return acc;\n\
     }"
    e1 e2 (mask land 31)

let run_built built engine args =
  Stats.reset ();
  let t = Pipeline.instantiate ?engine built in
  let r =
    match Interp.call t "f" args with
    | v -> Ok v
    | exception Interp.Vm_error m -> Error ("vm: " ^ m)
    | exception Sva_rt.Violation.Safety_violation v ->
        Error ("violation: " ^ Sva_rt.Violation.to_string v)
  in
  (r, Interp.steps t, Interp.cycles t, Stats.read ())

(* ---------- the trace clock holds its VM weakly ---------- *)

(* Events are stamped with the live VM's cycles, and a dropped VM (with
   its machine memory) is collectable: the clock does not pin it. *)
let test_clock_weak () =
  let built =
    Pipeline.build ~conf:Pipeline.Sva_safe ~name:"clock" [ gen_program 1 ]
  in
  let w = Weak.create 1 in
  let[@inline never] run () =
    let t = Pipeline.instantiate built in
    Weak.set w 0 (Some t);
    ignore (Interp.call t "f" [ 3L; 4L ]);
    with_trace (fun () ->
        Trace.emit_svaos "probe";
        let e = List.hd (Trace.events ()) in
        Alcotest.(check bool) "VM ran" true (Interp.cycles t > 0);
        Alcotest.(check int) "event carries the live VM's cycles"
          (Interp.cycles t) e.Trace.ev_ts)
  in
  run ();
  Gc.full_major ();
  Alcotest.(check bool) "dropped VM collected" false (Weak.check w 0);
  with_trace (fun () ->
      Trace.emit_svaos "probe";
      Alcotest.(check int) "clock of a collected VM reads 0" 0
        (List.hd (Trace.events ())).Trace.ev_ts)

let arg_gen =
  QCheck2.Gen.(tup3 (int_range 0 5000) small_signed_int small_signed_int)

let prop_tracing_invisible =
  QCheck2.Test.make
    ~name:"tracing+profiling leave results, cycles and checks unchanged"
    ~count:20 arg_gen (fun (seed, a, b) ->
      let src = gen_program seed in
      let built = Pipeline.build ~conf:Pipeline.Sva_safe ~name:"rand" [ src ] in
      let args = [ Int64.of_int a; Int64.of_int b ] in
      let plain = run_built built None args in
      let traced =
        with_trace (fun () -> with_profile (fun () -> run_built built None args))
      in
      plain = traced)

(* ---------- both engines emit the same event stream ---------- *)

(* Tier promotion and translation-cache probes are the compiled engine's
   own activity — the one deliberate divergence — so the comparison
   projects them out.  Sequence numbers are dropped for the same reason
   (tier events interleave); everything else, timestamps included, must
   match because both engines keep bit-identical cycle counts. *)
let event_stream () =
  List.filter_map
    (fun (e : Trace.event) ->
      match e.Trace.ev_kind with
      | Trace.Ev_tier_promote | Trace.Ev_tcache_hit | Trace.Ev_tcache_miss
      | Trace.Ev_tcache_disk_hit | Trace.Ev_tcache_disk_stale
      | Trace.Ev_tcache_disk_write ->
          None
      | k ->
          Some
            (Trace.ekind_name k, e.Trace.ev_name, e.Trace.ev_pool,
             e.Trace.ev_a, e.Trace.ev_b, e.Trace.ev_ts))
    (Trace.events ())

let prop_engines_emit_identically =
  QCheck2.Test.make
    ~name:"interp and aot emit the same events" ~count:15
    arg_gen (fun (seed, a, b) ->
      let src = gen_program seed in
      let built = Pipeline.build ~conf:Pipeline.Sva_safe ~name:"rand" [ src ] in
      let args = [ Int64.of_int a; Int64.of_int b ] in
      with_trace (fun () ->
          ignore (run_built built None args);
          let si = event_stream () in
          Trace.clear ();
          Closcomp.clear_cache ();
          ignore (run_built built (Some Pipeline.aot_engine) args);
          si = event_stream ()))

(* ---------- Chrome trace-event export ---------- *)

let test_chrome_roundtrip () =
  with_trace ~capacity:64 (fun () ->
      Trace.emit_syscall_enter ~num:4;
      Trace.emit_check "ls" ~pool:"MP1" ~addr:64 ~len:8;
      Trace.emit_register ~pool:"MP1" ~start:128 ~len:32;
      Trace.emit_svaos "sva.icontext.create";
      Trace.emit_syscall_exit ~num:4;
      let j = Harness.Traceout.chrome_json () in
      Alcotest.(check bool) "emit/parse round-trip" true
        (J.parse (J.emit j) = j);
      let tev = J.to_list (Option.get (J.member "traceEvents" j)) in
      Alcotest.(check int) "one JSON record per retained event" 5
        (List.length tev);
      let phases =
        List.map (fun e -> J.to_string (Option.get (J.member "ph" e))) tev
      in
      Alcotest.(check (list string))
        "syscalls span B..E, the rest are instants"
        [ "B"; "i"; "i"; "i"; "E" ] phases;
      List.iter
        (fun e ->
          ignore (J.to_string (Option.get (J.member "name" e)));
          ignore (J.to_int (Option.get (J.member "ts" e))))
        tev)

(* ---------- profiler: shadow-stack self/total arithmetic ---------- *)

let test_profiler_shadow_stack () =
  with_profile (fun () ->
      (* outer runs cycles 0..100 with 6 checks; inner nests at 40..70
         with 3 of them.  Self = inclusive minus callees. *)
      Trace.fn_enter "outer" ~cycles:0 ~checks:0;
      Trace.fn_enter "inner" ~cycles:40 ~checks:2;
      Trace.fn_exit "inner" ~cycles:70 ~checks:5;
      Trace.fn_exit "outer" ~cycles:100 ~checks:6;
      match Trace.fn_report () with
      | [ o; i ] ->
          Alcotest.(check string) "hottest first" "outer" o.Trace.p_name;
          Alcotest.(check int) "outer self = 100 - 30" 70 o.Trace.p_self_cycles;
          Alcotest.(check int) "outer total inclusive" 100 o.Trace.p_total_cycles;
          Alcotest.(check int) "outer self checks" 3 o.Trace.p_self_checks;
          Alcotest.(check int) "outer calls" 1 o.Trace.p_calls;
          Alcotest.(check string) "inner second" "inner" i.Trace.p_name;
          Alcotest.(check int) "inner self" 30 i.Trace.p_self_cycles;
          Alcotest.(check int) "inner total" 30 i.Trace.p_total_cycles;
          Alcotest.(check int) "inner self checks" 3 i.Trace.p_self_checks;
          Alcotest.(check int) "self cycles partition the span" 100
            (Trace.fn_self_cycles ())
      | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows))

(* ---------- kernel: syscall attribution + per-pool metrics ---------- *)

let kernel ?engine conf =
  let b = Ukern.Kbuild.build ~conf Ukern.Kbuild.as_tested in
  Boot.boot_built ?engine b ~variant:Ukern.Kbuild.as_tested

let syscall_mix t =
  ignore (Boot.syscall t 1 []);
  Boot.write_user t 0 "trace.txt\000";
  let fd = Boot.syscall t 4 [ Boot.user_addr t 0; 1L ] in
  Boot.write_user t 1024 "secure virtual architecture";
  ignore (Boot.syscall t 7 [ fd; Boot.user_addr t 1024; 27L ]);
  ignore (Boot.syscall t 20 [ fd; 0L; 0L ]);
  ignore (Boot.syscall t 6 [ fd; Boot.user_addr t 2048; 64L ])

let test_kernel_attribution_and_metrics () =
  let t = kernel Pipeline.Sva_safe in
  with_trace (fun () ->
      with_profile (fun () ->
          Boot.reset_cycles t;
          List.iter
            (fun (_, mp) -> Sva_rt.Metapool_rt.reset_metrics mp)
            (Interp.metapools t.Boot.vm);
          syscall_mix t;
          (* the syscall scope wraps the whole trap path, so syscall self
             cycles partition the workload's cycles exactly *)
          Alcotest.(check int) "every workload cycle attributed to a syscall"
            (Boot.cycles t)
            (Trace.sys_self_cycles ());
          Alcotest.(check bool) "syscall events recorded" true
            (Trace.count Trace.Ev_syscall_enter > 0);
          Alcotest.(check int) "balanced enter/exit"
            (Trace.count Trace.Ev_syscall_enter)
            (Trace.count Trace.Ev_syscall_exit);
          Alcotest.(check bool) "check events recorded" true
            (Trace.count Trace.Ev_check > 0);
          let ms =
            List.map
              (fun (_, mp) -> Sva_rt.Metapool_rt.metrics mp)
              (Interp.metapools t.Boot.vm)
          in
          let touched =
            List.filter
              (fun (m : Sva_rt.Metapool_rt.metrics) ->
                m.Sva_rt.Metapool_rt.m_regs > 0
                || m.Sva_rt.Metapool_rt.m_lookups > 0)
              ms
          in
          Alcotest.(check bool) "some pool saw traffic" true (touched <> []);
          List.iter
            (fun (m : Sva_rt.Metapool_rt.metrics) ->
              let open Sva_rt.Metapool_rt in
              Alcotest.(check bool)
                (m.m_name ^ ": peak >= live") true (m.m_peak >= m.m_live);
              Alcotest.(check bool)
                (m.m_name ^ ": hits <= lookups") true
                (m.m_cache_hits <= m.m_lookups);
              let hr = metrics_hit_rate m in
              Alcotest.(check bool)
                (m.m_name ^ ": hit rate in [0,100]") true
                (hr >= 0. && hr <= 100.))
            ms;
          (* reset_metrics zeroes counters without touching objects *)
          List.iter
            (fun (_, mp) -> Sva_rt.Metapool_rt.reset_metrics mp)
            (Interp.metapools t.Boot.vm);
          List.iter
            (fun (_, mp) ->
              let m = Sva_rt.Metapool_rt.metrics mp in
              let open Sva_rt.Metapool_rt in
              Alcotest.(check int) (m.m_name ^ ": regs reset") 0 m.m_regs;
              Alcotest.(check int) (m.m_name ^ ": lookups reset") 0 m.m_lookups;
              Alcotest.(check int)
                (m.m_name ^ ": peak restarts at live")
                m.m_live m.m_peak)
            (Interp.metapools t.Boot.vm)))

let () =
  Alcotest.run "sva_trace"
    [
      ( "ring",
        [
          Alcotest.test_case "wrap-around accounting" `Quick test_ring_wrap;
          Alcotest.test_case "below-capacity accounting" `Quick
            test_no_wrap_accounting;
        ] );
      ( "invisibility",
        [
          Alcotest.test_case "disabled emission allocates nothing" `Quick
            test_disabled_zero_alloc;
          Alcotest.test_case "clock holds its VM weakly" `Quick test_clock_weak;
          QCheck_alcotest.to_alcotest prop_tracing_invisible;
          QCheck_alcotest.to_alcotest prop_engines_emit_identically;
        ] );
      ( "export",
        [
          Alcotest.test_case "Chrome JSON round-trip" `Quick
            test_chrome_roundtrip;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "shadow-stack self/total arithmetic" `Quick
            test_profiler_shadow_stack;
          Alcotest.test_case "syscall attribution and pool metrics" `Quick
            test_kernel_attribution_and_metrics;
        ] );
    ]
