(* Layer probes of the traced run: each layer of the system called
   directly through its public functions, under spans, with the numbers
   the per-layer metrics report.  The workload-dependent per-op layer
   counters come from the traced run's workload blocks (bench.ml); these
   are the same on every workload. *)

module Boot = Ukern.Boot
module Kbuild = Ukern.Kbuild
module P = Sva_pipeline.Pipeline
module Closcomp = Sva_interp.Closcomp

let variant = Kbuild.as_tested
let now_ns = Span.now_ns

let median = Speed.median

(* Median wall time of [n] calls of [f], in ms. *)
let median_ms n f =
  median
    (List.init n (fun _ ->
         let t0 = now_ns () in
         f ();
         float_of_int (now_ns () - t0) /. 1e6))

(* A "<key> <n> kB" line of /proc/self/status, in MB. *)
let status_mb key =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:key l ->
            Scanf.sscanf
              (String.sub l (String.length key) (String.length l - String.length key))
              " %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

let run ~untimed ~seed ~default:(default_built, _) =
  let out = ref [] in
  let add name v unit = out := (name, v, unit, "") :: !out in
  let check what f = ignore (untimed what f) in
  (* --- build stages: the certified compile, stage by stage --- *)
  let reference =
    let b = Stagebuild.kbuild Stagebuild.full_flags variant in
    (b, Sva_bytecode.Codec.encode b.P.bl_mod)
  in
  let records =
    List.init 3 (fun _ ->
        let rc = Stagebuild.new_record () in
        check "stage replica" (fun () ->
            match Stagebuild.fidelity ~reference (Stagebuild.build ~rc Stagebuild.full_flags variant) with
            | Ok () -> ()
            | Error e -> raise (Ops.Bad e));
        rc)
  in
  List.iter
    (fun stage ->
      let per_rec rc =
        List.find_opt (fun (n, _, _) -> n = stage) rc.Stagebuild.r_stages
      in
      match List.filter_map per_rec records with
      | [] -> ()
      | (_, _, w) :: _ as l ->
          add (stage ^ "_ms") (median (List.map (fun (_, ns, _) -> float_of_int ns /. 1e6) l)) "ms";
          add (stage ^ "_mw") (w /. 1e6) "Mwords")
    Stagebuild.stage_names;
  let rc = List.hd records in
  add "ir.instrs" (float_of_int rc.Stagebuild.r_ir_instrs) "count";
  add "safety.instrs" (float_of_int rc.Stagebuild.r_safety_instrs) "count";
  (match (fst reference).P.bl_summary with
  | Some s ->
      add "safety.static_checks"
        (float_of_int
           (s.Sva_safety.Checkinsert.ls_inserted + s.bounds_inserted
          + s.funcchecks_inserted))
        "count"
  | None -> ());
  add "bytecode.kb" (float_of_int rc.Stagebuild.r_bytes /. 1024.) "KB";
  Gc.compact ();
  (* --- hw: machine creation --- *)
  let rss0 = status_mb "VmRSS:" in
  let m = Span.within "hw.Machine.create" Sva_hw.Machine.create in
  add "hw.create_rss_mb" (status_mb "VmRSS:" -. rss0) "MB";
  ignore (Sys.opaque_identity m);
  add "hw.create_ms"
    (median_ms 3 (fun () -> ignore (Span.within "hw.Machine.create" Sva_hw.Machine.create)))
    "ms";
  Gc.compact ();
  (* --- pipeline: instantiate on a pre-made SVA-OS, then kmain --- *)
  let instance eng =
    let sys = Span.within "svaos.Svaos.create" (fun () -> Sva_os.Svaos.create ()) in
    let t0 = now_ns () in
    let vm =
      Span.within "pipeline.instantiate" (fun () -> P.instantiate ~sys ~engine:eng default_built)
    in
    (vm, float_of_int (now_ns () - t0) /. 1e6)
  in
  ignore (instance P.aot_engine);
  List.iter
    (fun (name, eng) ->
      add ("pipeline.instantiate_ms." ^ name)
        (median (List.init 3 (fun _ -> snd (instance eng))))
        "ms")
    [ ("interp", P.default_engine); ("aot", P.aot_engine) ];
  add "ukern.kmain_ms"
    (median
       (List.init 3 (fun _ ->
            let vm, _ = instance P.default_engine in
            let t0 = now_ns () in
            check "kmain" (fun () ->
                if Span.within "ukern.kmain" (fun () -> Sva_interp.Interp.call vm "kmain" []) = None
                then raise (Ops.Bad "kmain returned void"));
            float_of_int (now_ns () - t0) /. 1e6)))
    "ms";
  (* --- engine: whole-kernel closure compile, cold and warm cache --- *)
  let compile_ms ~cold =
    median
      (List.init 3 (fun _ ->
           if cold then Closcomp.clear_cache ();
           let vm, _ = instance P.default_engine in
           Closcomp.enable ~threshold:1 vm;
           let t0 = now_ns () in
           Span.within "engine.Closcomp.compile_all" (fun () -> Closcomp.compile_all vm);
           float_of_int (now_ns () - t0) /. 1e6))
  in
  add "engine.aot_compile_ms.cold" (compile_ms ~cold:true) "ms";
  add "engine.aot_compile_ms.warm" (compile_ms ~cold:false) "ms";
  Gc.compact ();
  (* --- ukern: each kernel operation on each engine --- *)
  let op_probe c reps f =
    let t = c.Ops.t in
    for _ = 1 to 5 do
      Span.op "probe.warmup" (fun () -> f c)
    done;
    let cy0 = Boot.cycles t in
    let times =
      List.init reps (fun _ ->
          let t0 = now_ns () in
          Span.op "probe.op" (fun () -> f c);
          float_of_int (now_ns () - t0) /. 1e3)
    in
    (median times, float_of_int (Boot.cycles t - cy0) /. float_of_int reps)
  in
  List.iter
    (fun (ename, eng) ->
      check ("ukern probes " ^ ename) (fun () ->
          let c =
            Ops.prepare ~seed ~bulk:true
              (Span.within "ukern.boot_built" (fun () ->
                   Boot.boot_built ~engine:eng default_built ~variant))
          in
          Array.iter
            (fun (name, f) ->
              let us, cycles = op_probe c 200 f in
              add (Printf.sprintf "ukern.%s.us.%s" name ename) us "us";
              if ename = "interp" then add (Printf.sprintf "ukern.%s.cycles" name) cycles "cycles")
            Ops.latency_ops;
          let bulk name reps bytes per f =
            let us, cycles = op_probe c reps f in
            (match per with
            | `Kb -> add (Printf.sprintf "ukern.%s.us_per_kb.%s" name ename) (us /. (float_of_int bytes /. 1024.)) "us/KB"
            | `Ms -> add (Printf.sprintf "ukern.%s.ms.%s" name ename) (us /. 1e3) "ms");
            if ename = "interp" then
              add (Printf.sprintf "ukern.%s.cycles_per_byte" name) (cycles /. float_of_int bytes) "cycles/B"
          in
          bulk "file_read" 8 Ops.data_file_bytes `Kb (fun c ->
              Ops.op_file_read c;
              Ops.check_file_read c);
          bulk "pipe_stream" 50 Ops.stream_bytes `Kb (fun c ->
              Ops.op_pipe_stream c;
              Ops.check_pipe_stream c);
          bulk "http_85k" 8 Ops.www_bytes `Ms (fun c -> Ops.check_http c (Ops.op_http c))))
    [ ("interp", P.default_engine); ("aot", P.aot_engine) ];
  Gc.compact ();
  (* --- configuration differentials on the syscall mix (interp) --- *)
  let mix c = Array.iter (fun (_, f) -> f c) Ops.latency_ops in
  let conf_ctx ?(cached = true) conf =
    let b =
      Span.within ("build." ^ P.conf_name conf) (fun () -> Kbuild.build ~conf variant)
    in
    let t = Span.within "ukern.boot_built" (fun () -> Boot.boot_built b ~variant) in
    if not cached then
      Span.within "rt.Metapool_rt.set_cached" (fun () ->
          List.iter
            (fun (_, mp) -> Sva_rt.Metapool_rt.set_cached mp false)
            (Sva_interp.Interp.metapools t.Boot.vm));
    Ops.prepare ~seed ~bulk:false t
  in
  (* Rounds alternate between the two kernels one by one, so host
     contention hits both sides of each pair alike; returns the median
     per-pair difference (us, b minus a) and each side's modeled cycles
     per round. *)
  let pair a b =
    for _ = 1 to 10 do
      mix a;
      mix b
    done;
    let cy0 k = Boot.cycles k.Ops.t in
    let ca = cy0 a and cb = cy0 b in
    let time c =
      let t0 = now_ns () in
      Span.op "probe.mix" (fun () -> mix c);
      float_of_int (now_ns () - t0) /. 1e3
    in
    let n = 600 in
    let diffs = List.init n (fun _ -> let ta = time a in time b -. ta) in
    let per k c0 = float_of_int (Boot.cycles k.Ops.t - c0) /. float_of_int n in
    (median diffs, per a ca, per b cb)
  in
  check "svaos differential" (fun () ->
      let d, cn, cg = pair (conf_ctx P.Native) (conf_ctx P.Sva_gcc) in
      add "svaos.mediation_us_per_op" d "us";
      add "svaos.mediation_cycle_share" ((cg -. cn) /. cg) "fraction");
  Gc.compact ();
  check "check differential" (fun () ->
      let d, cl, cs = pair (conf_ctx P.Sva_llvm) (conf_ctx P.Sva_safe) in
      add "rt.check_us_per_op" d "us";
      add "rt.check_cycle_share" ((cs -. cl) /. cs) "fraction");
  Gc.compact ();
  check "cache differential" (fun () ->
      let d, _, _ = pair (conf_ctx P.Sva_safe) (conf_ctx ~cached:false P.Sva_safe) in
      add "rt.cache_saving_us_per_op" d "us");
  Gc.compact ();
  List.rev !out
