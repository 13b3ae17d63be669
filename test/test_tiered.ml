(* The compiled execution engine (closure-compiled functions with a
   signed translation cache) must be semantically invisible: identical
   results, traps, exploit verdicts, check statistics and modeled cycle
   counts as the pre-decoded interpreter, both for whole-kernel AOT and
   for mixed mode, where a function runs interpreted before it is
   compiled.  Plus the Section 3.4 cache integrity story: entries are
   signed, reuse verifies the signature, and a tampered entry falls back
   to re-translation. *)

module Pipeline = Sva_pipeline.Pipeline
module Interp = Sva_interp.Interp
module Closcomp = Sva_interp.Closcomp
module Tcache_disk = Sva_interp.Tcache_disk
module Signing = Sva_bytecode.Signing
module Stats = Sva_rt.Stats
module Boot = Ukern.Boot

(* ---------- differential property: random programs ---------- *)

(* The data-dependent [hist] indices keep run-time bounds checks in every
   iteration, so the differential also covers intrinsic charging and,
   under a step limit, the trap position around a check. *)
let gen_program seed =
  let rng = Random.State.make [| seed |] in
  let e1 = Randexpr.gen_expr rng 3 in
  let e2 = Randexpr.gen_expr rng 3 in
  let e3 = Randexpr.gen_expr rng 2 in
  let shift = Random.State.int rng 8 in
  Printf.sprintf
    "int hist[8];\n\
     int helper(int x, int i) { return (x ^ (x << %d)) + i * 3; }\n\
     int f(int a, int b) {\n\
    \  int c = %s;\n\
    \  int acc = 0;\n\
    \  for (int i = 0; i < 8; i++) {\n\
    \    if ((%s) > acc) acc += helper(c, i); else acc ^= (%s);\n\
    \    hist[acc & 7] += i;\n\
    \    acc ^= hist[(c + i) & 7];\n\
    \    c = c + i;\n\
    \  }\n\
    \  return acc + hist[c & 7];\n\
     }"
    shift e1 e2 e3

(* Run a safe-built module's [f] on an engine, optionally with a step
   limit [k] steps past instantiation: result (or trap message), step
   count, modeled cycles and the check-stat snapshot. *)
let run_built built engine limit args =
  Stats.reset ();
  let t = Pipeline.instantiate ?engine built in
  Option.iter
    (fun k -> Interp.set_step_limit t (Some (Interp.steps t + k)))
    limit;
  let r =
    match Interp.call t "f" args with
    | v -> Ok v
    | exception Interp.Vm_error m -> Error ("vm: " ^ m)
    | exception Sva_rt.Violation.Safety_violation v ->
        Error ("violation: " ^ Sva_rt.Violation.to_string v)
  in
  (r, Interp.steps t, Interp.cycles t, Stats.read ())

(* No step limit, or one that lands somewhere inside the run, so the
   trap position is compared across engines too. *)
let gen_limit max_steps = QCheck2.Gen.(opt (int_range 0 max_steps))

let prop_engines_agree =
  let gen =
    QCheck2.Gen.(
      tup4 (int_range 0 5000) small_signed_int small_signed_int
        (gen_limit 400))
  in
  QCheck2.Test.make ~name:"aot agrees with the interpreter"
    ~count:60 gen (fun (seed, a, b, limit) ->
      let src = gen_program seed in
      let built =
        Pipeline.build ~conf:Pipeline.Sva_safe ~name:"rand" [ src ]
      in
      let args = [ Int64.of_int a; Int64.of_int b ] in
      let ri = run_built built None limit args in
      Closcomp.clear_cache ();
      let ra = run_built built (Some Pipeline.aot_engine) limit args in
      ri = ra)

(* Same property with the certified range elision on: the elided-check
   module must behave identically on both engines too. *)
let gen_range_program seed =
  let rng = Random.State.make [| seed |] in
  let e = Randexpr.gen_expr rng 2 in
  let mask = (1 lsl (1 + Random.State.int rng 6)) - 1 in
  Printf.sprintf
    "int tbl[64];\n\
     int f(int a, int b) {\n\
    \  int c = %s;\n\
    \  long acc = 0;\n\
    \  for (long i = 0; i < 64; i = i + 1) tbl[i] = (int)(i + c);\n\
    \  for (long i = 0; i < 64; i = i + 1) acc = acc + tbl[i];\n\
    \  long k = (long)(a + b) & %d;\n\
    \  acc = acc + tbl[k];\n\
    \  return (int)acc;\n\
     }"
    e mask

let prop_engines_agree_with_ranges =
  let gen =
    QCheck2.Gen.(
      tup4 (int_range 0 5000) small_signed_int small_signed_int
        (gen_limit 2000))
  in
  QCheck2.Test.make
    ~name:"aot agrees under range elision"
    ~count:15 gen
    (fun (seed, a, b, limit) ->
      let src = gen_range_program seed in
      let built =
        Pipeline.build ~conf:Pipeline.Sva_safe ~ranges:true ~name:"rand-rg"
          [ src ]
      in
      let args = [ Int64.of_int a; Int64.of_int b ] in
      let ri = run_built built None limit args in
      Closcomp.clear_cache ();
      let ra = run_built built (Some Pipeline.aot_engine) limit args in
      ri = ra)

(* ---------- the five exploits agree on both engines ---------- *)

let built_cache = Hashtbl.create 4

let kernel ?engine conf =
  let b =
    match Hashtbl.find_opt built_cache conf with
    | Some b -> b
    | None ->
        let b = Ukern.Kbuild.build ~conf Ukern.Kbuild.as_tested in
        Hashtbl.replace built_cache conf b;
        b
  in
  Boot.boot_built ?engine b ~variant:Ukern.Kbuild.as_tested

let test_exploit_verdicts_agree () =
  List.iter
    (fun ex ->
      let verdict engine =
        let t = kernel ?engine Pipeline.Sva_safe in
        Exploits.outcome_to_string (Exploits.attack t ex)
      in
      let vi = verdict None in
      Closcomp.clear_cache ();
      let va = verdict (Some Pipeline.aot_engine) in
      Alcotest.(check string)
        (Printf.sprintf "verdict for %s" (Exploits.name ex))
        vi va)
    Exploits.all

(* ---------- syscall mix: cycles, steps and stats bit-identical ---------- *)

let syscall_mix t =
  ignore (Boot.syscall t 1 []);
  Boot.write_user t 0 "tiered.txt\000";
  let fd = Boot.syscall t 4 [ Boot.user_addr t 0; 1L ] in
  Boot.write_user t 1024 "secure virtual architecture";
  ignore (Boot.syscall t 7 [ fd; Boot.user_addr t 1024; 27L ]);
  ignore (Boot.syscall t 20 [ fd; 0L; 0L ]);
  ignore (Boot.syscall t 6 [ fd; Boot.user_addr t 2048; 64L ]);
  ignore (Boot.syscall t 9 [])

let measure_mix t =
  Stats.reset ();
  Boot.reset_cycles t;
  Boot.reset_steps t;
  for _ = 1 to 4 do
    syscall_mix t
  done;
  (Boot.cycles t, Boot.steps t, Stats.to_string (Stats.read ()))

(* Mixed mode: the kernel boots interpreted, then the compiler is
   installed at threshold 2, so functions run interpreted first and
   compiled on a later call. *)
let test_syscall_mix_identical () =
  let ci, si, ki = measure_mix (kernel Pipeline.Sva_safe) in
  Closcomp.clear_cache ();
  Stats.reset_tier ();
  let t = kernel Pipeline.Sva_safe in
  Closcomp.enable ~threshold:2 t.Boot.vm;
  let ct, st, kt = measure_mix t in
  let tier = Stats.read_tier () in
  Alcotest.(check int) "modeled cycles" ci ct;
  Alcotest.(check int) "steps" si st;
  Alcotest.(check string) "check stats" ki kt;
  Alcotest.(check bool) "functions were promoted" true
    (tier.Stats.promotions > 0)

(* Same gate for the whole-kernel AOT engine: compiling everything at
   instantiate time must not move a single modeled number. *)
let test_syscall_mix_identical_aot () =
  let ci, si, ki = measure_mix (kernel Pipeline.Sva_safe) in
  Closcomp.clear_cache ();
  Stats.reset_tier ();
  let ca, sa, ka =
    measure_mix (kernel ~engine:Pipeline.aot_engine Pipeline.Sva_safe)
  in
  let tier = Stats.read_tier () in
  Alcotest.(check int) "modeled cycles" ci ca;
  Alcotest.(check int) "steps" si sa;
  Alcotest.(check string) "check stats" ki ka;
  Alcotest.(check bool) "whole kernel was compiled" true
    (tier.Stats.promotions > 0)

(* ---------- signed translation cache ---------- *)

let sum_src =
  "int helper(int x) { return x * 3 + 1; }\n\
   int f(int a, int b) {\n\
  \  int acc = 0;\n\
  \  for (int i = 0; i < 8; i++) acc += helper(a + b + i);\n\
  \  return acc;\n\
   }"

let build_sum () = Pipeline.build ~conf:Pipeline.Sva_safe ~name:"sum" [ sum_src ]

let key_of built name =
  match Sva_ir.Irmod.find_func built.Pipeline.bl_mod name with
  | Some fn -> Closcomp.key_of_func fn
  | None -> Alcotest.failf "no function %s in the built module" name

let test_cache_hit_across_instances () =
  let built = build_sum () in
  Closcomp.clear_cache ();
  Stats.reset_tier ();
  let t1 = Pipeline.instantiate ~engine:Pipeline.aot_engine built in
  let r1 = Interp.call t1 "f" [ 5L; 7L ] in
  let after_first = Stats.read_tier () in
  Alcotest.(check bool) "first run populates the cache" true
    (after_first.Stats.tcache_misses > 0);
  Alcotest.(check bool) "cache holds entries" true (Closcomp.cache_size () > 0);
  (* a second VM instance reuses the signed translations *)
  let t2 = Pipeline.instantiate ~engine:Pipeline.aot_engine built in
  let r2 = Interp.call t2 "f" [ 5L; 7L ] in
  let after_second = Stats.read_tier () in
  Alcotest.(check bool) "same result" true (r1 = r2);
  Alcotest.(check bool) "cache hits on reuse" true
    (after_second.Stats.tcache_hits > after_first.Stats.tcache_hits);
  Alcotest.(check bool) "signatures were re-verified" true
    (after_second.Stats.sig_verifications > after_first.Stats.sig_verifications)

let test_tampered_entry_falls_back () =
  let built = build_sum () in
  (* reference result from the interpreter *)
  let ti = Pipeline.instantiate built in
  let expected = Interp.call ti "f" [ 5L; 7L ] in
  Closcomp.clear_cache ();
  let t1 = Pipeline.instantiate ~engine:Pipeline.aot_engine built in
  Alcotest.(check bool) "clean aot run" true
    (Interp.call t1 "f" [ 5L; 7L ] = expected);
  let key = key_of built "f" in
  Alcotest.(check bool) "entry for f is cached" true
    (Closcomp.cached_entry key <> None);
  Alcotest.(check bool) "tampering succeeds" true
    (Closcomp.tamper_cached key Signing.tamper_fentry_signature);
  Stats.reset_tier ();
  let t2 = Pipeline.instantiate ~engine:Pipeline.aot_engine built in
  let r2 = Interp.call t2 "f" [ 5L; 7L ] in
  let tier = Stats.read_tier () in
  Alcotest.(check bool) "tampered entry detected (cache miss + resign)" true
    (tier.Stats.tcache_misses > 0);
  Alcotest.(check bool) "semantics unchanged after fallback" true
    (r2 = expected);
  (* the fallback re-signed the entry: it verifies again *)
  (match Closcomp.cached_entry key with
  | Some fe ->
      Signing.verify_function fe ~bytecode:fe.Signing.fe_bytecode
        ~native:fe.Signing.fe_native
  | None -> Alcotest.fail "entry missing after fallback")

let test_tampered_native_falls_back () =
  let built = build_sum () in
  Closcomp.clear_cache ();
  let t1 = Pipeline.instantiate ~engine:Pipeline.aot_engine built in
  let expected = Interp.call t1 "f" [ 2L; 3L ] in
  let key = key_of built "f" in
  Alcotest.(check bool) "tampering succeeds" true
    (Closcomp.tamper_cached key Signing.tamper_fentry_native);
  Stats.reset_tier ();
  let t2 = Pipeline.instantiate ~engine:Pipeline.aot_engine built in
  Alcotest.(check bool) "fallback reproduces the result" true
    (Interp.call t2 "f" [ 2L; 3L ] = expected);
  Alcotest.(check bool) "tamper counted as a miss" true
    ((Stats.read_tier ()).Stats.tcache_misses > 0)

(* ---------- persistent translation store ---------- *)

let with_store f =
  let dir = Filename.temp_dir "sva-tc-test" "" in
  Fun.protect
    ~finally:(fun () ->
      Tcache_disk.set_dir None;
      Closcomp.clear_cache ();
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let disk_engine dir =
  { Pipeline.aot_engine with Pipeline.eng_tcache_dir = Some dir }

(* A fresh process has an empty in-memory cache but the same store: the
   second instantiation must reload every translation from disk,
   re-verify it, and translate nothing. *)
let test_disk_cold_then_warm () =
  let built = build_sum () in
  with_store (fun dir ->
      Closcomp.clear_cache ();
      Stats.reset_tier ();
      let t1 = Pipeline.instantiate ~engine:(disk_engine dir) built in
      let r1 = Interp.call t1 "f" [ 5L; 7L ] in
      let cold = Stats.read_tier () in
      Alcotest.(check bool) "cold run translated" true
        (cold.Stats.tcache_misses > 0);
      Alcotest.(check bool) "cold run persisted entries" true
        (cold.Stats.tcache_disk_writes > 0);
      Closcomp.clear_cache ();
      Stats.reset_tier ();
      let t2 = Pipeline.instantiate ~engine:(disk_engine dir) built in
      let r2 = Interp.call t2 "f" [ 5L; 7L ] in
      let warm = Stats.read_tier () in
      Alcotest.(check bool) "same result" true (r1 = r2);
      Alcotest.(check bool) "warm run hits the store" true
        (warm.Stats.tcache_disk_hits >= 1);
      Alcotest.(check int) "warm run re-translates nothing" 0
        warm.Stats.tcache_misses;
      Alcotest.(check bool) "disk entries were re-verified" true
        (warm.Stats.sig_verifications > 0))

(* Corrupt the on-disk entry for [f] in a given way; the warm run must
   detect it (disk-stale), quietly re-translate, produce the identical
   result, and repair the store. *)
let test_disk_corruption mutate () =
  let built = build_sum () in
  with_store (fun dir ->
      Closcomp.clear_cache ();
      Stats.reset_tier ();
      let t1 = Pipeline.instantiate ~engine:(disk_engine dir) built in
      let expected = Interp.call t1 "f" [ 5L; 7L ] in
      let key = key_of built "f" in
      let path = Filename.concat dir (key ^ ".fent") in
      Alcotest.(check bool) "entry for f is on disk" true (Sys.file_exists path);
      let data = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (mutate data));
      Closcomp.clear_cache ();
      Stats.reset_tier ();
      let t2 = Pipeline.instantiate ~engine:(disk_engine dir) built in
      let r = Interp.call t2 "f" [ 5L; 7L ] in
      let tier = Stats.read_tier () in
      Alcotest.(check bool) "identical result after fallback" true
        (r = expected);
      Alcotest.(check bool) "corruption detected as disk-stale" true
        (tier.Stats.tcache_disk_stale > 0);
      Alcotest.(check bool) "function re-translated" true
        (tier.Stats.tcache_misses > 0);
      Alcotest.(check bool) "store repaired" true
        (tier.Stats.tcache_disk_writes > 0);
      (* the repaired entry decodes and verifies again *)
      let repaired =
        Signing.decode_fentry (In_channel.with_open_bin path In_channel.input_all)
      in
      Signing.verify_function repaired
        ~bytecode:repaired.Signing.fe_bytecode
        ~native:repaired.Signing.fe_native)

let truncate_entry data = String.sub data 0 (String.length data / 2)

let flip_signature data =
  Signing.encode_fentry
    (Signing.tamper_fentry_signature (Signing.decode_fentry data))

let stale_bytecode data =
  Signing.encode_fentry
    (Signing.tamper_fentry_bytecode (Signing.decode_fentry data))

(* structurally valid and internally consistent, but signed by a key
   that is not the SVM's *)
let wrong_key data =
  let e = Signing.decode_fentry data in
  let saved = !Signing.svm_key in
  Signing.svm_key := "not-the-svm-key";
  let e' =
    Signing.sign_function ~name:e.Signing.fe_name
      ~bytecode:e.Signing.fe_bytecode ~native:e.Signing.fe_native
  in
  Signing.svm_key := saved;
  Signing.encode_fentry e'

let () =
  Alcotest.run "sva_tiered"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_engines_agree;
          QCheck_alcotest.to_alcotest prop_engines_agree_with_ranges;
          Alcotest.test_case "exploit verdicts agree" `Slow
            test_exploit_verdicts_agree;
          Alcotest.test_case "syscall mix bit-identical" `Quick
            test_syscall_mix_identical;
          Alcotest.test_case "syscall mix bit-identical (aot)" `Quick
            test_syscall_mix_identical_aot;
        ] );
      ( "translation-cache",
        [
          Alcotest.test_case "signed entries reused across instances" `Quick
            test_cache_hit_across_instances;
          Alcotest.test_case "tampered signature falls back" `Quick
            test_tampered_entry_falls_back;
          Alcotest.test_case "tampered native artifact falls back" `Quick
            test_tampered_native_falls_back;
        ] );
      ( "persistent-store",
        [
          Alcotest.test_case "cold boot persists, warm process reloads" `Quick
            test_disk_cold_then_warm;
          Alcotest.test_case "truncated entry falls back" `Quick
            (test_disk_corruption truncate_entry);
          Alcotest.test_case "flipped signature byte falls back" `Quick
            (test_disk_corruption flip_signature);
          Alcotest.test_case "stale bytecode digest falls back" `Quick
            (test_disk_corruption stale_bytecode);
          Alcotest.test_case "wrong-key entry falls back" `Quick
            (test_disk_corruption wrong_key);
        ] );
    ]
