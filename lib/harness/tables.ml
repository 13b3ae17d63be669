module Pipeline = Sva_pipeline.Pipeline
module Boot = Ukern.Boot
module Kbuild = Ukern.Kbuild
module Pointsto = Sva_analysis.Pointsto
module T = Tablefmt

(* Build each kernel configuration once and reuse it across tables. *)
let image_cache : (Pipeline.conf, Pipeline.built) Hashtbl.t = Hashtbl.create 4

let image conf =
  match Hashtbl.find_opt image_cache conf with
  | Some b -> b
  | None ->
      let b = Kbuild.build ~conf Kbuild.as_tested in
      Hashtbl.replace image_cache conf b;
      b

let fresh_kernel conf = Boot.boot_built (image conf) ~variant:Kbuild.as_tested

(* The Sva_safe kernel built with the static lint stage: same sources,
   same options, plus findings and safe-access proofs (which elide
   provably-redundant load/store checks).  Cached like [image]. *)
let lint_image_cache : Pipeline.built option ref = ref None

let lint_image () =
  match !lint_image_cache with
  | Some b -> b
  | None ->
      let b = Kbuild.build ~conf:Pipeline.Sva_safe ~lint:true Kbuild.as_tested in
      lint_image_cache := Some b;
      b

(* The check-reduction comparison runs on the entire-kernel variant: with
   every pool complete, elided checks are checks that would really have
   been executed (on the as-tested kernel the provable accesses all sit
   on incomplete or type-homogeneous pools, which are check-free
   already; the ablation table shows that interaction). *)
let entire_pair_cache : (Pipeline.built * Pipeline.built) option ref = ref None

let entire_pair () =
  match !entire_pair_cache with
  | Some p -> p
  | None ->
      let off = Kbuild.build ~conf:Pipeline.Sva_safe Kbuild.entire_kernel in
      let on =
        Kbuild.build ~conf:Pipeline.Sva_safe ~lint:true Kbuild.entire_kernel
      in
      entire_pair_cache := Some (off, on);
      (off, on)

let sva_confs = [ Pipeline.Sva_gcc; Pipeline.Sva_llvm; Pipeline.Sva_safe ]

(* ---------- Table 4 ---------- *)

let count_lines pred src =
  List.length (List.filter pred (String.split_on_char '\n' src))

let contains line needle =
  let ll = String.length line and nl = String.length needle in
  let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
  nl > 0 && go 0

let table4 () =
  let sections = Kbuild.sections Kbuild.as_tested in
  let rows =
    List.map
      (fun (s : Kbuild.section) ->
        let total = count_lines (fun l -> String.trim l <> "") s.Kbuild.sec_source in
        let port = count_lines (fun l -> contains l "SVA-PORT") s.Kbuild.sec_source in
        let alloc = count_lines (fun l -> contains l "SVA-ALLOC") s.Kbuild.sec_source in
        let ana = count_lines (fun l -> contains l "SVA-ANALYSIS") s.Kbuild.sec_source in
        let pctv =
          if total = 0 then 0.0
          else float_of_int (port + alloc + ana) /. float_of_int total *. 100.0
        in
        [
          s.Kbuild.sec_name;
          string_of_int total;
          string_of_int port;
          string_of_int alloc;
          string_of_int ana;
          Printf.sprintf "%.1f%%" pctv;
        ])
      sections
  in
  T.render
    ~title:"Table 4: lines modified porting the kernel to SVA"
    ~note:
      "Paper: 154 SVA-OS + 76 allocator + 58 analysis lines over 603,232 \
       machine-independent LOC (0.03%), plus 4,777 arch-dependent lines \
       (16.3%).  Shape to check: port changes concentrate in the \
       SVA-OS/arch layer; machine-independent sections change only a few \
       percent."
    [ T.L; T.R; T.R; T.R; T.R; T.R ]
    [ "Section"; "LOC"; "SVA-OS"; "Allocators"; "Analysis"; "% changed" ]
    rows

(* ---------- Tables 7 and 8 ---------- *)

(* Deterministic cycle-model measurement: boot a fresh kernel, warm the
   operation once, then average the cycle delta over [reps] runs. *)
let measure_cell conf ~reps ~batches op_of_ctx =
  ignore batches;
  let t = fresh_kernel conf in
  let ctx = Workloads.prepare t in
  op_of_ctx ctx;
  Boot.reset_cycles t;
  for _ = 1 to reps do
    op_of_ctx ctx
  done;
  float_of_int (Boot.cycles t) /. float_of_int reps

let overhead ~baseline c = (c -. baseline) /. baseline *. 100.0

type t7_row = {
  t7_op : string;
  t7_native_cycles : float;
  t7_overheads : (string * float * float) list;
      (** configuration name, measured overhead %, paper overhead % *)
}

(* Measured table 7 data, memoized per repetition mode: the rendered
   table and the JSON payload see the same numbers even when both are
   requested in one run. *)
let t7_cache : (bool, t7_row list) Hashtbl.t = Hashtbl.create 2

let table7_data ?(quick = false) () =
  match Hashtbl.find_opt t7_cache quick with
  | Some rows -> rows
  | None ->
      let batches = if quick then 3 else 5 in
      let scale r = if quick then max 5 (r / 4) else r in
      let rows =
        List.map
          (fun (nm, (paper : float array), op, reps) ->
            let reps = scale reps in
            let native =
              measure_cell Pipeline.Native ~reps ~batches (fun c -> op c)
            in
            let overheads =
              List.mapi
                (fun i conf ->
                  let s = measure_cell conf ~reps ~batches (fun c -> op c) in
                  (Pipeline.conf_name conf, overhead ~baseline:native s,
                   paper.(i)))
                sva_confs
            in
            { t7_op = nm; t7_native_cycles = native; t7_overheads = overheads })
          Workloads.latency_ops
      in
      Hashtbl.replace t7_cache quick rows;
      rows

let table7 ?(quick = false) () =
  let rows =
    List.map
      (fun r ->
        match r.t7_overheads with
        | [ (_, g, pg); (_, l, pl); (_, s, ps) ] ->
            [
              r.t7_op;
              Printf.sprintf "%.0fcy" r.t7_native_cycles;
              T.pct g ^ " " ^ T.pct_paper pg;
              T.pct l ^ " " ^ T.pct_paper pl;
              T.pct s ^ " " ^ T.pct_paper ps;
            ]
        | _ -> assert false)
      (table7_data ~quick ())
  in
  T.render
    ~title:"Table 7: latency increase for raw kernel operations (vs native)"
    ~note:
      "Columns: measured% (paper%).  Shape to check: cheap syscalls \
       (getpid/gettimeofday) are dominated by SVA-OS cost so all three SVA \
       kernels pay similar moderate overhead; syscalls that do real work \
       (open/close, pipe, fork) blow up only under SVA-Safe where run-time \
       checks dominate (Section 7.1.2)."
    [ T.L; T.R; T.R; T.R; T.R ]
    [ "Operation"; "Native"; "SVA-GCC"; "SVA-LLVM"; "SVA-Safe" ]
    rows

let table8 ?(quick = false) () =
  let batches = if quick then 3 else 5 in
  let rows =
    List.map
      (fun (nm, paper, op, bytes, reps) ->
        let reps = if quick then max 2 (reps / 2) else reps in
        let native = measure_cell Pipeline.Native ~reps ~batches op in
        let cells =
          List.map
            (fun conf ->
              let s = measure_cell conf ~reps ~batches op in
              overhead ~baseline:native s)
            sva_confs
        in
        match cells with
        | [ g; l; s ] ->
            [
              nm;
              Printf.sprintf "%.2fcy/B" (native /. float_of_int bytes);
              T.pct g ^ " " ^ T.pct_paper paper.(0);
              T.pct l ^ " " ^ T.pct_paper paper.(1);
              T.pct s ^ " " ^ T.pct_paper paper.(2);
            ]
        | _ -> assert false)
      Workloads.bandwidth_ops
  in
  T.render
    ~title:"Table 8: bandwidth reduction for raw kernel operations (vs native)"
    ~note:
      "Columns: measured slowdown% (paper reduction%).  Shape to check: \
       file reads lose little (work is bulk copy); pipes lose much more \
       under SVA-Safe (checked ring-buffer path, Section 7.1.2)."
    [ T.L; T.R; T.R; T.R; T.R ]
    [ "Operation"; "Native"; "SVA-GCC"; "SVA-LLVM"; "SVA-Safe" ]
    rows

(* ---------- Tables 5 and 6 ---------- *)

type appmix = {
  am_name : string;
  am_pct_sys : float;  (** paper: % of time spent in the kernel *)
  am_paper : float array;  (** paper overheads: gcc/llvm/safe, % *)
  am_native_s : float;  (** paper native runtime, seconds *)
  am_op : Workloads.ctx -> unit;
  am_reps : int;
}

let local_apps =
  [
    {
      am_name = "bzip2 (8.6MB)";
      am_pct_sys = 16.4;
      am_paper = [| 0.9; 1.8; 1.8 |];
      am_native_s = 11.1;
      am_op = (fun c -> Workloads.op_file_read c 65536);
      am_reps = 4;
    };
    {
      am_name = "lame (42MB)";
      am_pct_sys = 0.91;
      am_paper = [| 0.0; 1.6; 0.8 |];
      am_native_s = 12.7;
      am_op = Workloads.op_write;
      am_reps = 100;
    };
    {
      am_name = "gcc (-O3 58k log)";
      am_pct_sys = 4.07;
      am_paper = [| 1.2; 2.1; 2.1 |];
      am_native_s = 24.3;
      am_op =
        (fun c ->
          Workloads.op_open_close c;
          Workloads.op_write c;
          Workloads.op_file_read c 8192);
      am_reps = 30;
    };
    {
      am_name = "ldd (all system libs)";
      am_pct_sys = 55.9;
      am_paper = [| 11.1; 22.2; 66.7 |];
      am_native_s = 1.8;
      am_op =
        (fun c ->
          Workloads.op_open_close c;
          Workloads.op_open_close c;
          Workloads.op_file_read c 4096);
      am_reps = 30;
    };
  ]

(* An application is fixed user time plus kernel time: with the paper's
   %system-time p, overall overhead = p/100 * kernel-mix overhead. *)
let app_overhead ~pct_sys ~mix_overhead = pct_sys /. 100.0 *. mix_overhead

let http_cell conf ~file ~cgi ~reps ~batches =
  ignore batches;
  let t = fresh_kernel conf in
  let ctx = Workloads.prepare t in
  Workloads.http_setup ctx;
  ignore (Workloads.serve_http_request ctx ~file ~cgi);
  Boot.reset_cycles t;
  for _ = 1 to reps do
    ignore (Workloads.serve_http_request ctx ~file ~cgi)
  done;
  float_of_int (Boot.cycles t) /. float_of_int reps

let scp_cell conf ~reps ~batches =
  ignore batches;
  let t = fresh_kernel conf in
  let ctx = Workloads.prepare t in
  Workloads.http_setup ctx;
  Workloads.op_scp_chunk ctx;
  Boot.reset_cycles t;
  for _ = 1 to reps do
    Workloads.op_scp_chunk ctx
  done;
  float_of_int (Boot.cycles t) /. float_of_int reps

let table5 ?(quick = false) () =
  let batches = if quick then 3 else 5 in
  let rows_local =
    List.map
      (fun am ->
        let reps = if quick then max 2 (am.am_reps / 3) else am.am_reps in
        let native =
          measure_cell Pipeline.Native ~reps ~batches am.am_op
        in
        let cells =
          List.map
            (fun conf ->
              let s = measure_cell conf ~reps ~batches am.am_op in
              app_overhead ~pct_sys:am.am_pct_sys
                ~mix_overhead:(overhead ~baseline:native s))
            sva_confs
        in
        match cells with
        | [ g; l; s ] ->
            [
              am.am_name;
              Printf.sprintf "%.1f%%sys" am.am_pct_sys;
              Printf.sprintf "%.1fs(paper)" am.am_native_s;
              T.pct g ^ " " ^ T.pct_paper am.am_paper.(0);
              T.pct l ^ " " ^ T.pct_paper am.am_paper.(1);
              T.pct s ^ " " ^ T.pct_paper am.am_paper.(2);
            ]
        | _ -> assert false)
      local_apps
  in
  let net_row name paper f =
    let native = f Pipeline.Native in
    let cells =
      List.map (fun conf -> overhead ~baseline:native (f conf)) sva_confs
    in
    match cells with
    | [ g; l; s ] ->
        [
          name;
          "-";
          "-";
          T.pct g ^ " " ^ T.pct_paper paper.(0);
          T.pct l ^ " " ^ T.pct_paper paper.(1);
          T.pct s ^ " " ^ T.pct_paper paper.(2);
        ]
    | _ -> assert false
  in
  let reps = if quick then 6 else 20 in
  let rows_net =
    [
      net_row "scp (file transfer)" [| 0.0; -1.1; -1.1 |] (fun conf ->
          scp_cell conf ~reps:(reps * 2) ~batches);
      net_row "thttpd (311B)" [| 13.6; 24.0; 61.5 |] (fun conf ->
          http_cell conf ~file:"www.311" ~cgi:false ~reps ~batches);
      net_row "thttpd (85K)" [| 0.0; 0.6; 4.6 |] (fun conf ->
          http_cell conf ~file:"www.85k" ~cgi:false
            ~reps:(max 2 (reps / 4))
            ~batches);
      net_row "thttpd (cgi)" [| 9.4; 17.0; 37.2 |] (fun conf ->
          http_cell conf ~file:"www.311" ~cgi:true ~reps ~batches);
    ]
  in
  T.render
    ~title:"Table 5: application latency increase (vs native)"
    ~note:
      "Columns: measured% (paper%).  Local applications are modelled as \
       fixed user time plus their paper %system-time share of the \
       measured kernel mix.  Shape to check: low-%sys applications see \
       tiny overheads; ldd and small-file thttpd suffer most; large-file \
       thttpd is cheap; cgi sits between (fork cost)."
    [ T.L; T.R; T.R; T.R; T.R; T.R ]
    [ "Test"; "%sys"; "Native"; "SVA-GCC"; "SVA-LLVM"; "SVA-Safe" ]
    (rows_local @ rows_net)

let table6 ?(quick = false) () =
  let batches = if quick then 3 else 5 in
  let reps = if quick then 6 else 20 in
  let cell conf ~file ~cgi ~reps =
    let s = http_cell conf ~file ~cgi ~reps ~batches in
    s
  in
  let row name ~file ~cgi ~bytes paper reps =
    let native = cell Pipeline.Native ~file ~cgi ~reps in
    let cells =
      List.map
        (fun conf ->
          (* bandwidth reduction = per-request slowdown *)
          let s = cell conf ~file ~cgi ~reps in
          overhead ~baseline:native s)
        sva_confs
    in
    match cells with
    | [ g; l; s ] ->
        [
          name;
          Printf.sprintf "%.2fcy/B" (native /. float_of_int bytes);
          T.pct g ^ " " ^ T.pct_paper paper.(0);
          T.pct l ^ " " ^ T.pct_paper paper.(1);
          T.pct s ^ " " ^ T.pct_paper paper.(2);
        ]
    | _ -> assert false
  in
  T.render
    ~title:"Table 6: thttpd bandwidth reduction (vs native)"
    ~note:
      "Columns: measured throughput loss% (paper%).  Shape to check: the \
       311B and cgi workloads lose real bandwidth under SVA-Safe (tens of \
       percent); the 85K workload barely moves."
    [ T.L; T.R; T.R; T.R; T.R ]
    [ "Request"; "Native"; "SVA-GCC"; "SVA-LLVM"; "SVA-Safe" ]
    [
      row "311 B" ~file:"www.311" ~cgi:false ~bytes:311 [| 3.10; 4.59; 33.3 |] reps;
      row "85 KB" ~file:"www.85k" ~cgi:false ~bytes:(85 * 1024)
        [| 0.21; -0.26; 2.33 |]
        (max 2 (reps / 4));
      row "cgi" ~file:"www.311" ~cgi:true ~bytes:311 [| -0.32; -0.46; 21.8 |] reps;
    ]

(* ---------- Table 9 ---------- *)

let table9_variant (v : Kbuild.variant) =
  let built = Kbuild.build ~conf:Pipeline.Sva_safe v in
  let pa = Option.get built.Pipeline.bl_pa in
  let accs = Pointsto.accesses pa in
  let by_kind k =
    List.filter (fun a -> a.Pointsto.acc_kind = k) accs
  in
  let pct_of pred l =
    if l = [] then 0.0
    else
      float_of_int (List.length (List.filter pred l))
      /. float_of_int (List.length l)
      *. 100.0
  in
  let incomplete a = not (Pointsto.is_complete a.Pointsto.acc_node) in
  let th a = Pointsto.is_type_homog a.Pointsto.acc_node in
  (* allocation sites "seen": instrumented sites vs allocator calls hidden
     inside unanalyzed functions *)
  let seen = List.length (Pointsto.alloc_sites pa) in
  let unseen = ref 0 in
  List.iter
    (fun f ->
      if Sva_ir.Func.has_attr f Sva_ir.Func.Noanalyze then
        Sva_ir.Func.iter_instrs f (fun _ i ->
            match i.Sva_ir.Instr.kind with
            | Sva_ir.Instr.Call (Sva_ir.Value.Fn (callee, _), _)
              when Sva_analysis.Allocdecl.find Kbuild.allocators callee <> None ->
                incr unseen
            | _ -> ()))
    built.Pipeline.bl_mod.Sva_ir.Irmod.m_funcs;
  let seen_pct =
    float_of_int seen /. float_of_int (max 1 (seen + !unseen)) *. 100.0
  in
  (v.Kbuild.v_name, seen_pct,
   List.map
     (fun (label, kind) ->
       let l = by_kind kind in
       (label, pct_of incomplete l, pct_of th l))
     [
       ("Loads", Pointsto.Acc_load);
       ("Stores", Pointsto.Acc_store);
       ("Structure indexing", Pointsto.Acc_struct_index);
       ("Array indexing", Pointsto.Acc_array_index);
     ])

let table9 () =
  let paper = function
    | "as-tested" ->
        [ (80.0, 29.0); (75.0, 32.0); (91.0, 16.0); (71.0, 41.0) ]
    | _ -> [ (0.0, 26.0); (0.0, 34.0); (0.0, 12.0); (0.0, 39.0) ]
  in
  let rows =
    List.concat_map
      (fun v ->
        let name, seen_pct, kinds = table9_variant v in
        let refs = paper name in
        List.mapi
          (fun i (label, inc, th) ->
            let pinc, pth = List.nth refs i in
            [
              (if i = 0 then
                 Printf.sprintf "%s (%.1f%% sites seen)" name seen_pct
               else "");
              label;
              T.pct inc ^ " " ^ T.pct_paper pinc;
              T.pct th ^ " " ^ T.pct_paper pth;
            ])
          kinds)
      [ Kbuild.as_tested; Kbuild.entire_kernel ]
  in
  T.render
    ~title:"Table 9: static metrics of the safety-checking compiler"
    ~note:
      "Columns: measured% (paper%).  Shape to check: the as-tested kernel \
       has most accesses on incomplete partitions (unanalyzed mm + \
       userspace); the entire-kernel build has none.  Type-safe fractions \
       are a minority in both (like many large C programs, only worse)."
    [ T.L; T.L; T.R; T.R ]
    [ "Kernel"; "Access type"; "Incomplete"; "Type safe" ]
    rows

(* ---------- exploits ---------- *)

let exploits_table () =
  let rows =
    List.concat_map
      (fun (r : Exploits.report_row) ->
        let base =
          [
            Exploits.name r.Exploits.rr_id;
            Exploits.subsystem r.Exploits.rr_id;
            Exploits.outcome_to_string r.Exploits.rr_native;
            Exploits.outcome_to_string r.Exploits.rr_safe;
          ]
        in
        match r.Exploits.rr_safe_extra with
        | Some o ->
            [ base @ [ "" ];
              [ ""; "  + user-copy library compiled"; ""; Exploits.outcome_to_string o ] ]
        | None -> [ base ])
      (Exploits.report ())
  in
  T.render
    ~title:"Section 7.2: exploit detection (4 of 5 caught; 5th after compiling the extra library)"
    ~note:
      "Paper: SVA prevents 4/5 previously-reported Linux 2.4.22 exploits; \
       the ELF one is missed because the user-copy library was outside the \
       safety-checking compile, and is caught once included."
    [ T.L; T.L; T.L; T.L ]
    [ "Exploit"; "Subsystem"; "Linux-native"; "Linux-SVA-Safe" ]
    (List.map (fun r -> match r with [ a; b; c; d; _ ] -> [ a; b; c; d ] | r -> r) rows)

(* ---------- Section 5 verifier experiment on the kernel ---------- *)

let verifier_experiment () =
  let v = Kbuild.as_tested in
  let m =
    Minic.Lower.compile_strings ~name:"ukern-verif" (Kbuild.sources v)
  in
  Sva_ir.Passes.run Sva_ir.Passes.Llvm_like m;
  let cfg = Kbuild.aconfig v in
  let pa = Pointsto.run ~config:cfg m in
  let mps = Sva_safety.Metapool.infer m pa cfg.Pointsto.allocators in
  let an = Sva_tyck.Tyck.extract m pa mps in
  let results = Sva_tyck.Inject.experiment m an ~instances:5 in
  let caught = List.length (List.filter (fun (_, _, c) -> c) results) in
  let rows =
    List.map
      (fun kind ->
        let mine =
          List.filter (fun (k, _, _) -> k = kind) results
        in
        let c = List.length (List.filter (fun (_, _, x) -> x) mine) in
        [
          Sva_tyck.Inject.kind_name kind;
          string_of_int (List.length mine);
          string_of_int c;
        ])
      Sva_tyck.Inject.all_kinds
  in
  T.render
    ~title:
      (Printf.sprintf
         "Section 5: verifier bug injection on the kernel — %d/%d caught \
          (paper: 20/20)"
         caught (List.length results))
    [ T.L; T.R; T.R ]
    [ "Injected analysis bug"; "Instances"; "Detected" ]
    rows

(* ---------- Figure 2 ---------- *)

let figure2 () =
  let built = image Pipeline.Sva_safe in
  let m = built.Pipeline.bl_mod in
  let pa = Option.get built.Pipeline.bl_pa in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "== Figure 2: fib_create_info after the safety-checking compiler ==\n";
  (match Sva_ir.Irmod.find_func m "fib_create_info" with
  | Some f -> Buffer.add_string buf (Sva_ir.Pp.string_of_func f)
  | None -> Buffer.add_string buf "fib_create_info not found\n");
  Buffer.add_string buf "\n-- points-to partitions of the fib code --\n";
  (match Sva_ir.Irmod.find_func m "fib_create_info" with
  | Some f ->
      let printed = Hashtbl.create 8 in
      List.iteri
        (fun i _ ->
          match Pointsto.reg_node pa ~fname:"fib_create_info" i with
          | Some n when not (Hashtbl.mem printed (Pointsto.node_id n)) ->
              Hashtbl.replace printed (Pointsto.node_id n) ();
              Buffer.add_string buf
                (Printf.sprintf "node %d [%s]%s ty=%s\n" (Pointsto.node_id n)
                   (Pointsto.flags_to_string n)
                   (if Pointsto.is_type_homog n then " TH" else "")
                   (match Pointsto.node_ty n with
                   | Some t -> Sva_ir.Ty.to_string t
                   | None -> "<collapsed>"))
          | _ -> ())
        (List.init f.Sva_ir.Func.f_next_reg (fun i -> i))
  | None -> ());
  Buffer.contents buf

(* ---------- ablations ---------- *)

(* A mixed syscall workload representative of the latency tables. *)
let ablation_workload ctx =
  Workloads.op_open_close ctx;
  Workloads.op_write ctx;
  Workloads.op_pipe_latency ctx;
  Workloads.op_getpid ctx

let ablation ?(quick = false) () =
  let reps = if quick then 10 else 40 in
  let build ?(options = Sva_safety.Checkinsert.default_options)
      ?(clone = false) ?(devirt = false) ?(checkopt = false) ?(lint = false)
      ?(ranges = false) () =
    Pipeline.build ~conf:Pipeline.Sva_safe
      ~aconfig:(Kbuild.aconfig Kbuild.as_tested)
      ~options ~clone ~devirt ~checkopt ~lint ~ranges
      ~lint_config:(Kbuild.lint_config Kbuild.as_tested)
      ~name:"ukern-ablation"
      (Kbuild.sources Kbuild.as_tested)
  in
  let measure built =
    let t = Boot.boot_built built ~variant:Kbuild.as_tested in
    let ctx = Workloads.prepare t in
    ablation_workload ctx;
    Boot.reset_cycles t;
    Sva_rt.Stats.reset ();
    for _ = 1 to reps do
      ablation_workload ctx
    done;
    let s = Sva_rt.Stats.read () in
    ( float_of_int (Boot.cycles t) /. float_of_int reps,
      (s.Sva_rt.Stats.bounds_checks + s.Sva_rt.Stats.ls_checks
      + s.Sva_rt.Stats.funcchecks)
      / reps )
  in
  let variants =
    [
      ("SVA-Safe baseline", build ());
      ("+ check optimizations (Sec 7.1.3)", build ~checkopt:true ());
      ( "- static bounds proofs",
        build
          ~options:
            { Sva_safety.Checkinsert.default_options with
              Sva_safety.Checkinsert.static_bounds = false }
          () );
      ( "- TH load/store elision",
        build
          ~options:
            { Sva_safety.Checkinsert.default_options with
              Sva_safety.Checkinsert.th_elides_lscheck = false }
          () );
      ( "- TH elision + static lint proofs",
        build
          ~options:
            { Sva_safety.Checkinsert.default_options with
              Sva_safety.Checkinsert.th_elides_lscheck = false }
          ~lint:true () );
      ("+ cloning + devirtualization (Sec 4.8)", build ~clone:true ~devirt:true ());
      ("+ range-certified elision (Sec 5)", build ~lint:true ~ranges:true ());
    ]
  in
  let baseline_cycles = ref 0.0 in
  let rows =
    List.mapi
      (fun i (name, built) ->
        let cycles, checks = measure built in
        if i = 0 then baseline_cycles := cycles;
        let stat =
          match built.Pipeline.bl_summary with
          | Some s ->
              Printf.sprintf "%d bounds + %d ls static"
                s.Sva_safety.Checkinsert.bounds_inserted
                s.Sva_safety.Checkinsert.ls_inserted
          | None -> "-"
        in
        let extra =
          (match built.Pipeline.bl_checkopt with
          | Some c ->
              Printf.sprintf " (dedup %d, hoisted %d)"
                c.Sva_safety.Checkopt.co_ls_deduped
                c.Sva_safety.Checkopt.co_bounds_hoisted
          | None -> "")
          ^ (match built.Pipeline.bl_summary with
            | Some s when s.Sva_safety.Checkinsert.ls_proved_static > 0 ->
                Printf.sprintf " (lint-proved %d)"
                  s.Sva_safety.Checkinsert.ls_proved_static
            | _ -> "")
          ^ (match built.Pipeline.bl_summary with
            | Some s when s.Sva_safety.Checkinsert.bounds_static_range > 0 ->
                Printf.sprintf " (range-elided %d)"
                  s.Sva_safety.Checkinsert.bounds_static_range
            | _ -> "")
          ^
          if built.Pipeline.bl_cloned > 0 || built.Pipeline.bl_devirt > 0 then
            Printf.sprintf " (cloned %d, devirt %d)" built.Pipeline.bl_cloned
              built.Pipeline.bl_devirt
          else ""
        in
        [
          name;
          stat ^ extra;
          string_of_int checks;
          Printf.sprintf "%.0fcy" cycles;
          (if i = 0 then "-"
           else T.pct ((cycles -. !baseline_cycles) /. !baseline_cycles *. 100.0));
        ])
      variants
  in
  T.render
    ~title:"Ablation: the paper's proposed/used compiler optimizations"
    ~note:
      "Workload: open/close + write + pipe round-trip + getpid per rep.         Section 7.1.3 predicts the check optimizations 'should greatly        improve the performance overheads for kernel operations'; disabling        the baseline's static proofs or TH elision shows how much they        already save.  The lint row re-enables the safe-access prover on        top of the no-TH build: its proofs recover most of the load/store        checks TH elision was covering.  The range row adds the certified        value-range elision (removing it = the '- range elision' ablation        of EXPERIMENTS.md)."
    [ T.L; T.L; T.R; T.R; T.R ]
    [ "Variant"; "Static instrumentation"; "Checks/op"; "Cycles/op"; "vs base" ]
    rows

(* ---------- check-insertion summary ---------- *)

let check_summary () =
  let built = image Pipeline.Sva_safe in
  match built.Pipeline.bl_summary with
  | None -> "no summary (kernel not built with checks)"
  | Some s ->
      let open Sva_safety.Checkinsert in
      let lint_s = Option.get (snd (entire_pair ())).Pipeline.bl_summary in
      T.render ~title:"Safety-checking compiler: static instrumentation summary"
        ~note:
          "Supports the Section 7.1.3 discussion: the static-bounds column \
           is the optimization that removes provably-safe indexing checks; \
           the lint-proved row is what the sva_lint safe-access prover \
           additionally elides when the lint stage is enabled."
        [ T.L; T.R ]
        [ "Metric"; "Count" ]
        [
          [ "load/store checks inserted"; string_of_int s.ls_inserted ];
          [ "load/store checks elided (TH pools)"; string_of_int s.ls_elided_th ];
          [ "load/store checks off (incomplete pools)";
            string_of_int s.ls_reduced_incomplete ];
          [ "load/store checks elided by lint proofs (entire-kernel build)";
            string_of_int lint_s.ls_proved_static ];
          [ "bounds checks inserted"; string_of_int s.bounds_inserted ];
          [ "geps proven safe statically"; string_of_int s.bounds_static ];
          [ "indirect-call checks inserted"; string_of_int s.funcchecks_inserted ];
          [ "indirect-call checks elided"; string_of_int s.funcchecks_elided ];
          [ "object registrations"; string_of_int s.regs_inserted ];
          [ "object drops"; string_of_int s.drops_inserted ];
          [ "stack objects promoted to heap"; string_of_int s.stack_promoted ];
        ]

(* ---------- fast-path check runtime (lookup cache + pre-decode) ---------- *)

(* The Table 7 syscall mix under SVA-Safe, measured with the per-metapool
   object-lookup cache off and on.  Both runs use the same deterministic
   cycle model; the cache changes how many splay comparisons each check
   performs, not what any check decides. *)
let fastpath_measure ~reps ~cache =
  let t = fresh_kernel Pipeline.Sva_safe in
  (* Caching is per-pool state now (no process-global kill switch), so
     configure this instance's pools and leave every other SVM alone. *)
  List.iter
    (fun (_, mp) -> Sva_rt.Metapool_rt.set_cached mp cache)
    (Sva_interp.Interp.metapools t.Boot.vm);
  let ctx = Workloads.prepare t in
  ablation_workload ctx;
  Boot.reset_cycles t;
  Sva_rt.Stats.reset ();
  let cmp0 = Sva_rt.Splay.comparisons () in
  for _ = 1 to reps do
    ablation_workload ctx
  done;
  let cmp = Sva_rt.Splay.comparisons () - cmp0 in
  let s = Sva_rt.Stats.read () in
  ( float_of_int cmp /. float_of_int reps,
    float_of_int (Boot.cycles t) /. float_of_int reps,
    Sva_rt.Stats.total_checks s / reps,
    Sva_rt.Stats.hit_rate s )

type fastpath_data = {
  fp_cmp_off : float;  (** splay comparisons per op, cache off *)
  fp_cmp_on : float;
  fp_cycles_off : float;
  fp_cycles_on : float;
  fp_checks_off : int;
  fp_checks_on : int;
  fp_hit_rate : float;  (** cache hit rate, percent *)
  fp_reduction : float;  (** comparison reduction factor (off / on) *)
}

let fp_cache : (bool, fastpath_data) Hashtbl.t = Hashtbl.create 2

let fastpath_data ?(quick = false) () =
  match Hashtbl.find_opt fp_cache quick with
  | Some d -> d
  | None ->
      let reps = if quick then 10 else 40 in
      let cmp_off, cyc_off, checks_off, _ =
        fastpath_measure ~reps ~cache:false
      in
      let cmp_on, cyc_on, checks_on, hit = fastpath_measure ~reps ~cache:true in
      let d =
        {
          fp_cmp_off = cmp_off;
          fp_cmp_on = cmp_on;
          fp_cycles_off = cyc_off;
          fp_cycles_on = cyc_on;
          fp_checks_off = checks_off;
          fp_checks_on = checks_on;
          fp_hit_rate = hit;
          fp_reduction = (if cmp_on > 0.0 then cmp_off /. cmp_on else infinity);
        }
      in
      Hashtbl.replace fp_cache quick d;
      d

let fastpath ?(quick = false) ?(strict = false) () =
  let d = fastpath_data ~quick () in
  let cmp_off, cyc_off, checks_off = (d.fp_cmp_off, d.fp_cycles_off, d.fp_checks_off) in
  let cmp_on, cyc_on, checks_on, hit =
    (d.fp_cmp_on, d.fp_cycles_on, d.fp_checks_on, d.fp_hit_rate)
  in
  let reduction = d.fp_reduction in
  let row name cmp cyc checks rate =
    [
      name;
      Printf.sprintf "%.0f" cmp;
      Printf.sprintf "%.0fcy" cyc;
      string_of_int checks;
      rate;
    ]
  in
  let table =
    T.render
      ~title:"Fast path: object-lookup cache on the Table 7 syscall mix (SVA-Safe)"
      ~note:
        (Printf.sprintf
           "Workload: open/close + write + pipe round-trip + getpid per rep. \
            The direct-mapped per-metapool cache answers repeated object \
            lookups without restructuring the splay tree; a hit is charged \
            1 cycle against 3 per splay comparison (DESIGN.md Section 6). \
            Splay comparison reduction: %.1fx (>= 2x required). Checks per \
            op are identical by construction - the cache is semantically \
            invisible."
           reduction)
      [ T.L; T.R; T.R; T.R; T.R ]
      [ "Configuration"; "Splay cmp/op"; "Cycles/op"; "Checks/op"; "Hit rate" ]
      [
        row "cache off (seed lookup path)" cmp_off cyc_off checks_off "-";
        row "cache on" cmp_on cyc_on checks_on (Printf.sprintf "%.1f%%" hit);
      ]
  in
  let failures =
    List.concat
      [
        (if reduction >= 2.0 then []
         else
           [ Printf.sprintf
               "splay comparison reduction %.2fx is below the required 2x"
               reduction ]);
        (if checks_on = checks_off then []
         else
           [ Printf.sprintf
               "cache changed the number of checks performed (%d vs %d)"
               checks_on checks_off ]);
        (if cyc_on <= cyc_off then []
         else
           [ Printf.sprintf
               "cached run costs more model cycles (%.0f vs %.0f)" cyc_on
               cyc_off ]);
      ]
  in
  match failures with
  | [] -> table ^ "  fastpath check: PASS\n"
  | fs ->
      let msg = String.concat "; " fs in
      if strict then failwith ("fastpath check FAILED: " ^ msg)
      else table ^ "  fastpath check: FAIL - " ^ msg ^ "\n"

(* ---------- simulated-SMP scaling ---------- *)

(* The embarrassingly parallel syscall-mix jobs scheduled over 1, 2 and
   4 modeled CPUs with the deterministic work-stealing scheduler
   (Boot.run_smp).  The aggregate check counts must be identical at
   every CPU count — the per-CPU cache shards and stats banks are
   semantically invisible — and the modeled makespan must scale. *)

type smp_point = {
  sp_cpus : int;
  sp_makespan : int;  (** modeled wall time: max per-CPU clock *)
  sp_total : int;  (** total modeled work: sum of per-CPU clocks *)
  sp_speedup : float;  (** makespan(1) / makespan(N) *)
  sp_steals : int;
  sp_ipis_sent : int;
  sp_ipis_delivered : int;
  sp_checks : int;  (** aggregate run-time checks over the whole run *)
}

type smp_data = {
  sd_seed : int;
  sd_jobs : int;
  sd_points : smp_point list;  (** cpus = 1, 2, 4 *)
  sd_seq_cycles : int;  (** the jobs called in sequence, no scheduler *)
  sd_seq_checks : int;
  sd_seq_identical : bool;
      (** run_smp at cpus=1 is bit-identical to the sequential calls *)
  sd_rerun_identical : bool;
      (** a second fresh boot at cpus=4, same seed, reproduced the
          schedule exactly (makespan, steals, IPIs, checks) *)
}

let smp_speedup_floor = 3.0
let smp_cpu_counts = [ 1; 2; 4 ]

(* Fresh boot per measurement: every point starts from the same
   deterministic kernel state, so differences are the scheduler's. *)
let smp_measure ~cpus ~seed ~njobs =
  let t =
    Boot.boot_built
      ~smp:{ Pipeline.smp_cpus = cpus; Pipeline.smp_seed = seed }
      (image Pipeline.Sva_safe) ~variant:Kbuild.as_tested
  in
  let ctx = Workloads.prepare t in
  List.iter (fun j -> j ()) (Workloads.smp_jobs ctx 1);
  Sva_rt.Stats.reset ();
  Boot.reset_cycles t;
  let st = Boot.run_smp t ~cpus ~seed (Workloads.smp_jobs ctx njobs) in
  (st, Sva_rt.Stats.total_checks (Sva_rt.Stats.read ()))

let smp_seq_measure ~njobs =
  let t = fresh_kernel Pipeline.Sva_safe in
  let ctx = Workloads.prepare t in
  List.iter (fun j -> j ()) (Workloads.smp_jobs ctx 1);
  Sva_rt.Stats.reset ();
  Boot.reset_cycles t;
  List.iter (fun j -> j ()) (Workloads.smp_jobs ctx njobs);
  (Boot.cycles t, Sva_rt.Stats.total_checks (Sva_rt.Stats.read ()))

let sd_cache : (bool, smp_data) Hashtbl.t = Hashtbl.create 2

let smp_data ?(quick = false) () =
  match Hashtbl.find_opt sd_cache quick with
  | Some d -> d
  | None ->
      let njobs = if quick then 16 else 32 in
      let seed = 1 in
      let seq_cycles, seq_checks = smp_seq_measure ~njobs in
      let runs =
        List.map
          (fun cpus -> smp_measure ~cpus ~seed ~njobs)
          smp_cpu_counts
      in
      let base =
        match runs with
        | (st, _) :: _ -> st.Boot.ss_makespan
        | [] -> 0
      in
      let points =
        List.map
          (fun ((st : Boot.smp_stats), checks) ->
            {
              sp_cpus = st.Boot.ss_cpus;
              sp_makespan = st.Boot.ss_makespan;
              sp_total = st.Boot.ss_total;
              sp_speedup =
                (if st.Boot.ss_makespan > 0 then
                   float_of_int base /. float_of_int st.Boot.ss_makespan
                 else infinity);
              sp_steals = st.Boot.ss_steals;
              sp_ipis_sent = st.Boot.ss_ipis_sent;
              sp_ipis_delivered = st.Boot.ss_ipis_delivered;
              sp_checks = checks;
            })
          runs
      in
      let seq_identical =
        match runs with
        | (st, checks) :: _ ->
            st.Boot.ss_makespan = seq_cycles && checks = seq_checks
            && st.Boot.ss_steals = 0 && st.Boot.ss_ipis_sent = 0
        | [] -> false
      in
      let rerun_identical =
        let st1, c1 = smp_measure ~cpus:4 ~seed ~njobs in
        match List.rev runs with
        | (st0, c0) :: _ ->
            st0.Boot.ss_makespan = st1.Boot.ss_makespan
            && st0.Boot.ss_total = st1.Boot.ss_total
            && st0.Boot.ss_steals = st1.Boot.ss_steals
            && st0.Boot.ss_ipis_sent = st1.Boot.ss_ipis_sent
            && st0.Boot.ss_ipis_delivered = st1.Boot.ss_ipis_delivered
            && st0.Boot.ss_cycles = st1.Boot.ss_cycles
            && c0 = c1
        | [] -> false
      in
      let d =
        {
          sd_seed = seed;
          sd_jobs = njobs;
          sd_points = points;
          sd_seq_cycles = seq_cycles;
          sd_seq_checks = seq_checks;
          sd_seq_identical = seq_identical;
          sd_rerun_identical = rerun_identical;
        }
      in
      Hashtbl.replace sd_cache quick d;
      d

let smp ?(quick = false) ?(strict = false) () =
  let d = smp_data ~quick () in
  let table =
    T.render
      ~title:
        "Simulated SMP: parallel syscall mix over modeled CPUs (SVA-Safe)"
      ~note:
        (Printf.sprintf
           "%d identical jobs (getpid + getrusage + gettimeofday + sbrk + \
            sigaction + write + pipe round-trip each), distributed \
            round-robin and balanced by the seeded work-stealing scheduler \
            (seed %d).  Makespan is the max per-CPU modeled clock; speedup \
            is makespan(1)/makespan(N) (>= %.1fx at 4 CPUs required).  \
            Aggregate checks are identical at every CPU count by \
            construction - per-CPU cache shards and stats banks are \
            semantically invisible."
           d.sd_jobs d.sd_seed smp_speedup_floor)
      [ T.R; T.R; T.R; T.R; T.R; T.R ]
      [ "CPUs"; "Makespan"; "Speedup"; "Steals"; "IPIs d/s"; "Checks" ]
      (List.map
         (fun p ->
           [
             string_of_int p.sp_cpus;
             Printf.sprintf "%dcy" p.sp_makespan;
             Printf.sprintf "%.2fx" p.sp_speedup;
             string_of_int p.sp_steals;
             Printf.sprintf "%d/%d" p.sp_ipis_delivered p.sp_ipis_sent;
             string_of_int p.sp_checks;
           ])
         d.sd_points)
  in
  let p4 =
    List.find_opt (fun p -> p.sp_cpus = 4) d.sd_points
  in
  let failures =
    List.concat
      [
        (match p4 with
        | Some p when p.sp_speedup < smp_speedup_floor ->
            [ Printf.sprintf
                "4-CPU speedup %.2fx is below the required %.1fx"
                p.sp_speedup smp_speedup_floor ]
        | _ -> []);
        List.concat_map
          (fun p ->
            if p.sp_checks = d.sd_seq_checks then []
            else
              [ Printf.sprintf
                  "check count diverged at %d CPUs (%d vs sequential %d)"
                  p.sp_cpus p.sp_checks d.sd_seq_checks ])
          d.sd_points;
        (if d.sd_seq_identical then []
         else
           [ "run_smp at 1 CPU is not bit-identical to the sequential run"
           ]);
        (if d.sd_rerun_identical then []
         else [ "same-seed rerun did not reproduce the 4-CPU schedule" ]);
      ]
  in
  match failures with
  | [] -> table ^ "  smp check: PASS\n"
  | fs ->
      let msg = String.concat "; " fs in
      if strict then failwith ("smp check FAILED: " ^ msg)
      else table ^ "  smp check: FAIL - " ^ msg ^ "\n"

(* ---------- AOT engine + persistent translation store ---------- *)

(* Whole-kernel closure compilation at instantiate time against a
   persistent signed store: boot the AOT kernel twice through the same
   --tcache-dir, first cold (every translation is fresh and persisted)
   then warm with the in-memory cache cleared, simulating a second
   process (every translation is a verified disk hit, zero
   re-translations).  The warm VM then runs the Table 7 mix; the modeled
   numbers must match the interpreter's bit-for-bit and the hot-path
   wall clock must clear the warm-cache speedup floor. *)

type aot_data = {
  ad_cycles_interp : float;  (** model cycles per rep *)
  ad_steps_interp : float;
  ad_checks_interp : int;  (** run-time checks per rep *)
  ad_ns_interp : float;  (** host wall-clock ns per rep (median batch) *)
  ad_cycles_aot : float;
  ad_steps_aot : float;
  ad_checks_aot : int;
  ad_ns_aot : float;
  ad_speedup : float;  (** host speedup over the interpreter *)
  ad_boot_cold_ns : float;  (** instantiate + compile_all, empty store *)
  ad_boot_warm_ns : float;  (** same, against the populated store *)
  ad_promotions : int;  (** functions AOT-compiled per boot *)
  ad_disk_writes_cold : int;
  ad_disk_hits_warm : int;
  ad_disk_stale_warm : int;
  ad_misses_warm : int;  (** re-translations in the warm boot (want 0) *)
}

(* The Table 7 mix on a booted SVA-Safe kernel: per-rep modeled cycles,
   steps and checks, then the host wall clock per rep (median batch). *)
let measure_mix ~reps t =
  let ctx = Workloads.prepare t in
  for _ = 1 to 3 do
    ablation_workload ctx
  done;
  Boot.reset_cycles t;
  Boot.reset_steps t;
  Sva_rt.Stats.reset ();
  for _ = 1 to reps do
    ablation_workload ctx
  done;
  let s = Sva_rt.Stats.read () in
  let cycles = float_of_int (Boot.cycles t) /. float_of_int reps in
  let steps = float_of_int (Boot.steps t) /. float_of_int reps in
  let checks = Sva_rt.Stats.total_checks s / reps in
  let wall =
    Timing.measure ~batches:5 ~reps:(max 5 reps) (fun () ->
        ablation_workload ctx)
  in
  (cycles, steps, checks, wall.Timing.s_per_op_ns)

let ad_cache : (bool, aot_data) Hashtbl.t = Hashtbl.create 2

let aot_data ?(quick = false) () =
  match Hashtbl.find_opt ad_cache quick with
  | Some d -> d
  | None ->
      let reps = if quick then 10 else 40 in
      (* Measure the interpreter baseline before the persistent store
         below becomes globally active. *)
      let icyc, istep, ichk, ins =
        measure_mix ~reps
          (Boot.boot_built (image Pipeline.Sva_safe) ~variant:Kbuild.as_tested)
      in
      let dir = Filename.temp_dir "sva-tcache" "" in
      let engine =
        Some
          { Pipeline.aot_engine with Pipeline.eng_tcache_dir = Some dir }
      in
      let boot_once () =
        (* a cleared in-memory cache is what a fresh process starts with *)
        Sva_interp.Closcomp.clear_cache ();
        Sva_rt.Stats.reset_tier ();
        let t0 = Timing.now () in
        let t =
          Boot.boot_built ?engine (image Pipeline.Sva_safe)
            ~variant:Kbuild.as_tested
        in
        let ns = (Timing.now () -. t0) *. 1e9 in
        (t, ns, Sva_rt.Stats.read_tier ())
      in
      let d =
        Fun.protect
          ~finally:(fun () ->
            Sva_interp.Tcache_disk.set_dir None;
            Sva_interp.Closcomp.clear_cache ();
            Sva_rt.Stats.reset_tier ())
          (fun () ->
            let _, cold_ns, cold = boot_once () in
            let t, warm_ns, warm = boot_once () in
            let cycles, steps, checks, ns = measure_mix ~reps t in
            {
              ad_cycles_interp = icyc;
              ad_steps_interp = istep;
              ad_checks_interp = ichk;
              ad_ns_interp = ins;
              ad_cycles_aot = cycles;
              ad_steps_aot = steps;
              ad_checks_aot = checks;
              ad_ns_aot = ns;
              ad_speedup = (if ns > 0.0 then ins /. ns else infinity);
              ad_boot_cold_ns = cold_ns;
              ad_boot_warm_ns = warm_ns;
              ad_promotions = warm.Sva_rt.Stats.promotions;
              ad_disk_writes_cold = cold.Sva_rt.Stats.tcache_disk_writes;
              ad_disk_hits_warm = warm.Sva_rt.Stats.tcache_disk_hits;
              ad_disk_stale_warm = warm.Sva_rt.Stats.tcache_disk_stale;
              ad_misses_warm = warm.Sva_rt.Stats.tcache_misses;
            })
      in
      Hashtbl.replace ad_cache quick d;
      d

(* Table 7 mix, warm persistent cache.  Must hold on loaded CI machines;
   enforced only under --strict so the json-producing runtest rule can't
   flake on wall clock. *)
let aot_speedup_floor = 2.0

let aot ?(quick = false) ?(strict = false) () =
  let d = aot_data ~quick () in
  let row name cyc steps checks ns =
    [
      name;
      Printf.sprintf "%.0fcy" cyc;
      Printf.sprintf "%.0f" steps;
      string_of_int checks;
      Printf.sprintf "%.0fns" ns;
    ]
  in
  let table =
    T.render
      ~title:
        "AOT engine: whole-kernel closure compilation with a persistent \
         signed translation store (SVA-Safe, Table 7 mix)"
      ~note:
        (Printf.sprintf
           "Cold boot compiles %d functions (%d signed entries persisted) \
            in %.1fms; the warm boot simulates a second \
            process against the populated store: %d verified disk hits, %d \
            re-translations, %.1fms.  Modeled cycles, steps and checks are \
            bit-identical to the interpreter's; warm hot-path speedup \
            %.1fx (>= %.1fx under --strict)."
           d.ad_promotions d.ad_disk_writes_cold
           (d.ad_boot_cold_ns /. 1e6)
           d.ad_disk_hits_warm d.ad_misses_warm
           (d.ad_boot_warm_ns /. 1e6)
           d.ad_speedup aot_speedup_floor)
      [ T.L; T.R; T.R; T.R; T.R ]
      [ "Engine"; "Cycles/op"; "Steps/op"; "Checks/op"; "Host/op" ]
      [
        row "interpreter" d.ad_cycles_interp d.ad_steps_interp
          d.ad_checks_interp d.ad_ns_interp;
        row "aot (warm disk)" d.ad_cycles_aot d.ad_steps_aot d.ad_checks_aot
          d.ad_ns_aot;
      ]
  in
  let failures =
    List.concat
      [
        (if d.ad_cycles_aot = d.ad_cycles_interp then []
         else
           [ Printf.sprintf "aot engine changed modeled cycles (%.0f vs %.0f)"
               d.ad_cycles_aot d.ad_cycles_interp ]);
        (if d.ad_steps_aot = d.ad_steps_interp then []
         else
           [ Printf.sprintf "aot engine changed step counts (%.0f vs %.0f)"
               d.ad_steps_aot d.ad_steps_interp ]);
        (if d.ad_checks_aot = d.ad_checks_interp then []
         else
           [ Printf.sprintf "aot engine changed the number of checks (%d vs %d)"
               d.ad_checks_aot d.ad_checks_interp ]);
        (if d.ad_promotions > 0 then []
         else [ "aot engine compiled no functions" ]);
        (if d.ad_disk_writes_cold > 0 then []
         else [ "cold boot persisted no translations" ]);
        (if d.ad_disk_hits_warm >= 1 then []
         else [ "warm boot reused no translations from the store" ]);
        (if d.ad_misses_warm = 0 then []
         else
           [ Printf.sprintf
               "warm boot re-translated %d functions against a populated store"
               d.ad_misses_warm ]);
        (if (not strict) || d.ad_speedup >= aot_speedup_floor then []
         else
           [ Printf.sprintf
               "warm-cache host speedup %.2fx is below the required %.1fx"
               d.ad_speedup aot_speedup_floor ]);
      ]
  in
  match failures with
  | [] -> table ^ "  aot check: PASS\n"
  | fs ->
      let msg = String.concat "; " fs in
      if strict then failwith ("aot check FAILED: " ^ msg)
      else table ^ "  aot check: FAIL - " ^ msg ^ "\n"

(* ---------- observability: event trace + profiler ---------- *)

type trace_data = {
  tr_reps : int;
  tr_cycles_off : int;  (** total modeled cycles, observability off *)
  tr_cycles_on : int;  (** same workload, trace + profiler on *)
  tr_checks_off : int;
  tr_checks_on : int;
  tr_emitted : int;
  tr_retained : int;
  tr_dropped : int;
  tr_counts : (string * int) list;  (** retained events per kind *)
  tr_attr_pct : float;  (** syscall-attributed share of modeled cycles *)
  tr_fn_rows : Sva_rt.Trace.prow list;
  tr_sys_rows : Sva_rt.Trace.prow list;
  tr_pools : Sva_rt.Metapool_rt.metrics list;
  tr_chrome : Jsonout.t;  (** Chrome trace-event document *)
}

(* One measured run of the Table 7 syscall mix on a fresh SVA-Safe
   kernel.  Identical reset discipline with observability on and off —
   the whole point is that the two runs must agree bit-for-bit on
   modeled cycles and check counts. *)
let trace_measure ~reps ~obs =
  if obs then begin
    Sva_rt.Trace.enable ();
    Sva_rt.Trace.enable_profile ()
  end;
  Fun.protect
    ~finally:(fun () ->
      if obs then begin
        Sva_rt.Trace.disable ();
        Sva_rt.Trace.disable_profile ()
      end)
    (fun () ->
      let t = Boot.boot_built (image Pipeline.Sva_safe) ~variant:Kbuild.as_tested in
      let ctx = Workloads.prepare t in
      ablation_workload ctx;
      Boot.reset_cycles t;
      (* Full reset at a measurement boundary: check, tier and range
         counter families together (reset_all, not the check-only
         reset). *)
      Sva_rt.Stats.reset_all ();
      if obs then begin
        Sva_rt.Trace.clear ();
        (* enable_profile doubles as the accumulator reset *)
        Sva_rt.Trace.enable_profile ()
      end;
      List.iter
        (fun (_, mp) -> Sva_rt.Metapool_rt.reset_metrics mp)
        (Sva_interp.Interp.metapools t.Boot.vm);
      for _ = 1 to reps do
        ablation_workload ctx
      done;
      let cycles = Boot.cycles t in
      let checks = Sva_rt.Stats.total_checks (Sva_rt.Stats.read ()) in
      let extras =
        if not obs then None
        else
          let take n l = List.filteri (fun i _ -> i < n) l in
          Some
            ( Sva_rt.Trace.emitted (),
              List.length (Sva_rt.Trace.events ()),
              Sva_rt.Trace.dropped (),
              List.filter_map
                (fun k ->
                  let n = Sva_rt.Trace.count k in
                  if n = 0 then None
                  else Some (Sva_rt.Trace.ekind_name k, n))
                Traceout.all_kinds,
              (if cycles = 0 then 0.0
               else
                 100.0
                 *. float_of_int (Sva_rt.Trace.sys_self_cycles ())
                 /. float_of_int cycles),
              take 10 (Sva_rt.Trace.fn_report ()),
              take 10 (Sva_rt.Trace.sys_report ()),
              List.filter
                (fun (m : Sva_rt.Metapool_rt.metrics) ->
                  m.Sva_rt.Metapool_rt.m_regs > 0
                  || m.Sva_rt.Metapool_rt.m_lookups > 0)
                (List.map
                   (fun (_, mp) -> Sva_rt.Metapool_rt.metrics mp)
                   (Sva_interp.Interp.metapools t.Boot.vm)),
              Traceout.chrome_json () )
      in
      (cycles, checks, extras))

let tr_cache : (bool, trace_data) Hashtbl.t = Hashtbl.create 2

let trace_data ?(quick = false) () =
  match Hashtbl.find_opt tr_cache quick with
  | Some d -> d
  | None ->
      let reps = if quick then 5 else 20 in
      let cycles_off, checks_off, _ = trace_measure ~reps ~obs:false in
      let cycles_on, checks_on, extras = trace_measure ~reps ~obs:true in
      let emitted, retained, dropped, counts, attr, fn_rows, sys_rows, pools,
          chrome =
        Option.get extras
      in
      let d =
        {
          tr_reps = reps;
          tr_cycles_off = cycles_off;
          tr_cycles_on = cycles_on;
          tr_checks_off = checks_off;
          tr_checks_on = checks_on;
          tr_emitted = emitted;
          tr_retained = retained;
          tr_dropped = dropped;
          tr_counts = counts;
          tr_attr_pct = attr;
          tr_fn_rows = fn_rows;
          tr_sys_rows = sys_rows;
          tr_pools = pools;
          tr_chrome = chrome;
        }
      in
      Hashtbl.replace tr_cache quick d;
      d

let trace_attribution_floor = 95.0

let trace ?(quick = false) ?(strict = false) () =
  let d = trace_data ~quick () in
  let invariance =
    T.render
      ~title:"Observability invariance: Table 7 syscall mix, trace+profiler"
      ~note:
        (Printf.sprintf
           "Same fresh kernel and reset discipline; recording %d events \
            (%d retained, %d dropped by ring wrap) must not move a single \
            modeled cycle or check."
           d.tr_emitted d.tr_retained d.tr_dropped)
      [ T.L; T.R; T.R ]
      [ "Metric"; "obs off"; "obs on" ]
      [
        [ "modeled cycles"; string_of_int d.tr_cycles_off;
          string_of_int d.tr_cycles_on ];
        [ "run-time checks"; string_of_int d.tr_checks_off;
          string_of_int d.tr_checks_on ];
      ]
  in
  let events =
    T.render ~title:"Event trace summary"
      ~note:
        (Printf.sprintf "%d reps of open/close + write + pipe + getpid"
           d.tr_reps)
      [ T.L; T.R ]
      [ "event kind"; "retained" ]
      (List.map (fun (k, n) -> [ k; string_of_int n ]) d.tr_counts)
  in
  let prof_rows rows =
    List.map
      (fun (r : Sva_rt.Trace.prow) ->
        [
          r.Sva_rt.Trace.p_name;
          string_of_int r.Sva_rt.Trace.p_calls;
          string_of_int r.Sva_rt.Trace.p_self_cycles;
          string_of_int r.Sva_rt.Trace.p_total_cycles;
          string_of_int r.Sva_rt.Trace.p_self_checks;
        ])
      rows
  in
  let prof_aligns = [ T.L; T.R; T.R; T.R; T.R ] in
  let prof_header = [ "scope"; "calls"; "self cyc"; "total cyc"; "checks" ] in
  let hot_sys =
    T.render ~title:"Hot syscalls (top 10 by self cycles)"
      ~note:
        (Printf.sprintf
           "syscall scopes attribute %s of all modeled cycles (>= %s \
            required); the remainder is boot/idle work outside any trap"
           (T.pct d.tr_attr_pct)
           (T.pct trace_attribution_floor))
      prof_aligns prof_header (prof_rows d.tr_sys_rows)
  in
  let hot_fn =
    T.render ~title:"Hot kernel functions (top 10 by self cycles)"
      ~note:"self = inclusive minus callees; totals double-count recursion"
      prof_aligns prof_header (prof_rows d.tr_fn_rows)
  in
  let pools = Traceout.pool_metrics_table d.tr_pools in
  let table = invariance ^ events ^ hot_sys ^ hot_fn ^ pools in
  let failures =
    List.concat
      [
        (if d.tr_cycles_on = d.tr_cycles_off then []
         else
           [ Printf.sprintf "tracing changed modeled cycles (%d vs %d)"
               d.tr_cycles_on d.tr_cycles_off ]);
        (if d.tr_checks_on = d.tr_checks_off then []
         else
           [ Printf.sprintf "tracing changed check counts (%d vs %d)"
               d.tr_checks_on d.tr_checks_off ]);
        (if d.tr_emitted > 0 then [] else [ "no events were recorded" ]);
        (if d.tr_attr_pct >= trace_attribution_floor then []
         else
           [ Printf.sprintf
               "profiler attributed only %.1f%% of cycles to syscalls \
                (>= %.0f%% required)"
               d.tr_attr_pct trace_attribution_floor ]);
      ]
  in
  match failures with
  | [] -> table ^ "  trace check: PASS\n"
  | fs ->
      let msg = String.concat "; " fs in
      if strict then failwith ("trace check FAILED: " ^ msg)
      else table ^ "  trace check: FAIL - " ^ msg ^ "\n"

(* ---------- static lint layer ---------- *)

type lint_data = {
  ld_counts : (string * int) list;  (** findings per checker, clean kernel *)
  ld_findings : int;
  ld_proofs : int;
  ld_funcs : int;
  ld_iterations : int;
  ld_ls_inserted_base : int;  (** load/store checks, lint off *)
  ld_ls_inserted_lint : int;  (** load/store checks, lint proofs consumed *)
  ld_ls_proved_static : int;  (** checks elided by the prover *)
}

let lint_data () =
  let lb = lint_image () in
  let r = Option.get lb.Pipeline.bl_lint in
  let off, on = entire_pair () in
  let s0 = Option.get off.Pipeline.bl_summary in
  let s = Option.get on.Pipeline.bl_summary in
  {
    ld_counts = r.Sva_lint.Lint.lr_counts;
    ld_findings = List.length r.Sva_lint.Lint.lr_findings;
    ld_proofs = r.Sva_lint.Lint.lr_proof_count;
    ld_funcs = r.Sva_lint.Lint.lr_funcs;
    ld_iterations = r.Sva_lint.Lint.lr_iterations;
    ld_ls_inserted_base = s0.Sva_safety.Checkinsert.ls_inserted;
    ld_ls_inserted_lint = s.Sva_safety.Checkinsert.ls_inserted;
    ld_ls_proved_static = s.Sva_safety.Checkinsert.ls_proved_static;
  }

let lint_table () =
  let d = lint_data () in
  let rows =
    List.map
      (fun (checker, n) -> [ "findings: " ^ checker; string_of_int n ])
      d.ld_counts
    @ [
        [ "accesses proved safe"; string_of_int d.ld_proofs ];
        [ "functions analyzed"; string_of_int d.ld_funcs ];
        [ "dataflow block visits"; string_of_int d.ld_iterations ];
        [ "ls checks inserted, entire kernel (lint off)";
          string_of_int d.ld_ls_inserted_base ];
        [ "ls checks inserted, entire kernel (lint on)";
          string_of_int d.ld_ls_inserted_lint ];
        [ "ls checks elided by proofs"; string_of_int d.ld_ls_proved_static ];
      ]
  in
  T.render
    ~title:"Static lint layer: kernel sanitizer passes + safe-access prover"
    ~note:
      "The shipped kernel must lint clean (every findings row 0); the \
       sva_lint --fixture run covers the seeded-bug positives.  The prover \
       feeds Checkinsert: on the entire-kernel build (every pool \
       complete) the lint-on build inserts fewer load/store checks than \
       lint-off by exactly the elided row."
    [ T.L; T.R ]
    [ "Metric"; "Count" ]
    rows

(* ---------- value-range elision (Section 5 certificates) ---------- *)

type ranges_data = {
  rd_ls_off : int;  (** ls checks, entire kernel, lint on, ranges off *)
  rd_ls_on : int;  (** same build with certified range elision *)
  rd_ls_range_geps : int;  (** lint proofs whose in-bounds step used ranges *)
  rd_bounds_off : int;
  rd_bounds_on : int;
  rd_bounds_cert : int;  (** geps elided via a verified bounds certificate *)
  rd_certs_bounds : int;  (** certificates re-verified by Rangecert *)
  rd_certs_ls : int;
  rd_facts : int;
  rd_iterations : int;
}

(* ranges-off is the lint-on entire-kernel build already cached by
   [entire_pair]; ranges-on rebuilds it with the interval analysis, its
   certified elisions, and the trusted-checker gate (the build fails if
   any certificate is rejected, so a successful pair implies the whole
   bundle re-verified). *)
let range_pair_cache : (Pipeline.built * Pipeline.built) option ref = ref None

let range_pair () =
  match !range_pair_cache with
  | Some p -> p
  | None ->
      let _, off = entire_pair () in
      let on =
        Kbuild.build ~conf:Pipeline.Sva_safe ~lint:true ~ranges:true
          Kbuild.entire_kernel
      in
      range_pair_cache := Some (off, on);
      (off, on)

let rd_cache : ranges_data option ref = ref None

let ranges_data () =
  match !rd_cache with
  | Some d -> d
  | None ->
      let off, on = range_pair () in
      let s0 = Option.get off.Pipeline.bl_summary in
      let s1 = Option.get on.Pipeline.bl_summary in
      let lr = Option.get on.Pipeline.bl_lint in
      let rr = Option.get on.Pipeline.bl_ranges in
      let cb, cl = Sva_analysis.Interval.cert_counts rr in
      let d =
        {
          rd_ls_off = s0.Sva_safety.Checkinsert.ls_inserted;
          rd_ls_on = s1.Sva_safety.Checkinsert.ls_inserted;
          rd_ls_range_geps = lr.Sva_lint.Lint.lr_range_geps;
          rd_bounds_off = s0.Sva_safety.Checkinsert.bounds_inserted;
          rd_bounds_on = s1.Sva_safety.Checkinsert.bounds_inserted;
          rd_bounds_cert = s1.Sva_safety.Checkinsert.bounds_static_range;
          rd_certs_bounds = cb;
          rd_certs_ls = cl;
          rd_facts = Sva_analysis.Interval.fact_count rr;
          rd_iterations = Sva_analysis.Interval.iterations rr;
        }
      in
      rd_cache := Some d;
      d

let ranges_table () =
  let d = ranges_data () in
  T.render
    ~title:
      "Value-range elision: interval analysis + verified certificates \
       (entire kernel, lint on)"
    ~note:
      "Every elision is backed by a per-gep range certificate that the \
       trusted checker (Sva_tyck.Rangecert) re-verified during the build \
       - the analysis itself stays outside the TCB (Section 5).  Shape \
       to check: both static check columns drop when ranges are on, and \
       the bounds drop equals the certified-gep count."
    [ T.L; T.R ]
    [ "Metric"; "Count" ]
    [
      [ "ls checks inserted (ranges off)"; string_of_int d.rd_ls_off ];
      [ "ls checks inserted (ranges on)"; string_of_int d.rd_ls_on ];
      [ "ls-check geps proved via range facts";
        string_of_int d.rd_ls_range_geps ];
      [ "bounds checks inserted (ranges off)"; string_of_int d.rd_bounds_off ];
      [ "bounds checks inserted (ranges on)"; string_of_int d.rd_bounds_on ];
      [ "bounds elided via certificates"; string_of_int d.rd_bounds_cert ];
      [ "certificates verified (bounds + lscheck)";
        Printf.sprintf "%d + %d" d.rd_certs_bounds d.rd_certs_ls ];
      [ "interval facts exported"; string_of_int d.rd_facts ];
      [ "dataflow block visits"; string_of_int d.rd_iterations ];
    ]

(* ---------- concurrency-safety pass (lockset + atomicity certs) ---------- *)

module Lockset = Sva_analysis.Lockset
module Atomcert = Sva_tyck.Atomcert

type race_data = {
  rc_counts : (string * int) list;
      (** findings per checker, shipped kernel (must all be 0) *)
  rc_shared : int;
  rc_accesses : int;
  rc_certs : int;
  rc_fact_claims : int;
  rc_cert_errors : int;  (** trusted-checker rejections, clean kernel *)
  rc_lock_edges : int;
  rc_funcs : int;
  rc_iterations : int;
  rc_fixture_findings : int;
  rc_fixture_match : bool;  (** fixture findings = seeded ground truth *)
  rc_injected : int;  (** certificate-bug injection experiment *)
  rc_caught : int;
  rc_conc : Sva_rt.Stats.conc_snapshot;  (** runtime ops, smoke workload *)
}

let race_checkers =
  [ "race"; "deadlock"; "cli-imbalance"; "lock-imbalance"; "atomic-sleep" ]

(* The shipped kernel built with the concurrency gate on: Pipeline.build
   runs the lockset analysis and fails the build outright if the trusted
   checker rejects any atomicity certificate, so a cached image implies
   the clean-kernel bundle re-verified. *)
let race_image_cache : Pipeline.built option ref = ref None

let race_image () =
  match !race_image_cache with
  | Some b -> b
  | None ->
      let b =
        Kbuild.build ~conf:Pipeline.Sva_safe ~races:true Kbuild.as_tested
      in
      race_image_cache := Some b;
      b

let rc_cache : race_data option ref = ref None

let race_data () =
  match !rc_cache with
  | Some d -> d
  | None ->
      let b = race_image () in
      let clean = Option.get b.Pipeline.bl_races in
      let clean_errs =
        Sva_tyck.Atomcert.check
          ~entries:(Lockset.entry_config clean)
          b.Pipeline.bl_mod (Lockset.bundle clean)
      in
      (* The race fixture is analyzed standalone (kernel + seeded bugs);
         it cannot go through the pipeline gate, which refuses to build
         modules with findings worth gating on. *)
      let v = Kbuild.as_tested in
      let fm =
        Pipeline.compile ~name:"bench-races-fixture"
          (Kbuild.race_fixture_sources v)
      in
      let fpa = Pointsto.run ~config:(Kbuild.aconfig v) fm in
      let dirty = Lockset.run fm fpa in
      let got =
        List.map
          (fun (f : Lockset.finding) ->
            (f.Lockset.lf_checker, f.Lockset.lf_func))
          (Lockset.findings dirty)
        |> List.sort_uniq compare
      in
      let want = List.sort_uniq compare Ukern.Ksrc_racebugs.expected in
      let entries = Lockset.entry_config dirty in
      let results =
        Atomcert.experiment ~entries fm (Lockset.bundle dirty) ~instances:3
      in
      let caught = List.length (List.filter (fun (_, _, c) -> c) results) in
      (* Runtime counters: boot the gated image and run the lock-heavy
         slice of the smoke workload (file create, socket, packet
         delivery through the masked netpoll section). *)
      let t = Boot.boot_built b ~variant:v in
      Sva_rt.Stats.reset_all ();
      Boot.write_user t 0 "conc.txt\000";
      ignore (Boot.syscall t 4 [ Boot.user_addr t 0; 1L ]);
      let sd = Boot.syscall t 14 [ 17L ] in
      ignore (Boot.syscall t 15 [ sd; 4242L ]);
      let hdr = Bytes.create 4 in
      Bytes.set_int32_le hdr 0 4242l;
      Boot.inject_frame t ~proto:17 (Bytes.to_string hdr ^ "ping");
      ignore (Boot.syscall t 22 []);
      let conc = Sva_rt.Stats.read_conc () in
      let d =
        {
          rc_counts =
            List.map (fun c -> (c, Lockset.count_findings clean c)) race_checkers;
          rc_shared = Lockset.shared_count clean;
          rc_accesses = Lockset.access_count clean;
          rc_certs = Lockset.cert_count clean;
          rc_fact_claims = Lockset.fact_count clean;
          rc_cert_errors = List.length clean_errs;
          rc_lock_edges = List.length (Lockset.lock_edges clean);
          rc_funcs = Lockset.funcs_analyzed clean;
          rc_iterations = Lockset.iterations clean;
          rc_fixture_findings = List.length (Lockset.findings dirty);
          rc_fixture_match = got = want;
          rc_injected = List.length results;
          rc_caught = caught;
          rc_conc = conc;
        }
      in
      rc_cache := Some d;
      d

let race_table ?(strict = false) () =
  let d = race_data () in
  let rows =
    List.map
      (fun (checker, n) -> [ "findings: " ^ checker; string_of_int n ])
      d.rc_counts
    @ [
        [ "shared memory classes (irq- and sys-reachable)";
          string_of_int d.rc_shared ];
        [ "classified accesses"; string_of_int d.rc_accesses ];
        [ "atomicity certificates (re-verified)"; string_of_int d.rc_certs ];
        [ "block-entry fact claims"; string_of_int d.rc_fact_claims ];
        [ "certificate errors"; string_of_int d.rc_cert_errors ];
        [ "lock-order edges"; string_of_int d.rc_lock_edges ];
        [ "functions analyzed"; string_of_int d.rc_funcs ];
        [ "dataflow block visits"; string_of_int d.rc_iterations ];
        [ "fixture findings (seeded bugs)";
          Printf.sprintf "%d (%s ground truth)" d.rc_fixture_findings
            (if d.rc_fixture_match then "matches" else "DIVERGES from") ];
        [ "injected certificate bugs caught";
          Printf.sprintf "%d/%d" d.rc_caught d.rc_injected ];
        [ "runtime conc ops (workload)";
          Sva_rt.Stats.conc_to_string d.rc_conc ];
      ]
  in
  let table =
    T.render
      ~title:
        "Concurrency-safety pass: interprocedural lockset + \
         interrupt-atomicity race detector"
      ~note:
        "The shipped kernel must audit clean (every findings row 0) and \
         every discharged atomicity obligation carries a certificate the \
         trusted checker (Sva_tyck.Atomcert) re-verified; the analysis \
         itself stays outside the TCB.  The fixture row covers the \
         seeded-bug positives and the injection row shows the checker \
         rejects every corrupted certificate bundle."
      [ T.L; T.R ]
      [ "Metric"; "Count" ]
      rows
  in
  let failures =
    List.concat
      [
        List.filter_map
          (fun (c, n) ->
            if n = 0 then None
            else Some (Printf.sprintf "clean kernel has %d %s findings" n c))
          d.rc_counts;
        (if d.rc_cert_errors = 0 then []
         else
           [ Printf.sprintf "trusted checker rejected %d certificates"
               d.rc_cert_errors ]);
        (if d.rc_certs > 0 then []
         else [ "no access was certified on the clean kernel" ]);
        (if d.rc_fixture_match then []
         else [ "fixture findings diverge from the seeded ground truth" ]);
        (if d.rc_caught = d.rc_injected && d.rc_injected > 0 then []
         else
           [ Printf.sprintf "injection experiment caught %d/%d bugs"
               d.rc_caught d.rc_injected ]);
        (if d.rc_conc.Sva_rt.Stats.lock_acquires > 0 then []
         else [ "workload executed no sva_lock_acquire" ]);
        (if
           d.rc_conc.Sva_rt.Stats.lock_acquires
           = d.rc_conc.Sva_rt.Stats.lock_releases
           && d.rc_conc.Sva_rt.Stats.cli_count
              = d.rc_conc.Sva_rt.Stats.sti_count
         then []
         else [ "workload conc ops are unbalanced" ]);
      ]
  in
  match failures with
  | [] -> table ^ "  race check: PASS\n"
  | fs ->
      let msg = String.concat "; " fs in
      if strict then failwith ("race check FAILED: " ^ msg)
      else table ^ "  race check: FAIL - " ^ msg ^ "\n"

(* ---------- pool-safety certification (poolcert) ---------- *)

module Poolev = Sva_safety.Poolev
module Poolcert = Sva_tyck.Poolcert

type poolcert_data = {
  pc_th : int;  (** TH certificates, shipped kernel *)
  pc_comp : int;  (** completeness certificates (one per pool) *)
  pc_complete : int;  (** pools certified complete *)
  pc_dv : int;  (** devirtualization certificates *)
  pc_el_th : int;  (** lscheck elisions on TH pools *)
  pc_el_reduced : int;  (** lscheck reductions on incomplete pools *)
  pc_el_func : int;  (** funccheck elisions *)
  pc_cert_errors : int;  (** trusted-checker rejections, clean kernel *)
  pc_summary_match : bool;  (** Checkinsert summary identical on vs off *)
  pc_boot_cycles_off : int;
  pc_boot_cycles_on : int;
  pc_cycles_off : int;  (** workload cycles, certification off *)
  pc_cycles_on : int;
  pc_checks_match : bool;  (** full check snapshot identical on vs off *)
  pc_checks : int;  (** workload checks (either build; they match) *)
  pc_injected : int;  (** certificate-bug injection experiment *)
  pc_caught : int;
}

let pc_cache : poolcert_data option ref = ref None

(* The pipeline gate already failed the build if the trusted checker
   rejected anything, so a cached certified image implies acceptance;
   the explicit re-check below records the error count for the report. *)
let poolcert_data () =
  match !pc_cache with
  | Some d -> d
  | None ->
      let v = Kbuild.as_tested in
      let off = Kbuild.build ~conf:Pipeline.Sva_safe v in
      let on = Kbuild.build ~conf:Pipeline.Sva_safe ~poolcert:true v in
      let b = Option.get on.Pipeline.bl_poolcert in
      let clean_errs =
        Poolcert.check ~config:(Kbuild.aconfig v) on.Pipeline.bl_mod b
      in
      let el_th, el_red, el_fn =
        List.fold_left
          (fun (t, r, f) -> function
            | Poolev.El_th _ -> (t + 1, r, f)
            | Poolev.El_reduced _ -> (t, r + 1, f)
            | Poolev.El_func _ -> (t, r, f + 1))
          (0, 0, 0) b.Poolev.pb_elisions
      in
      (* Bit-identity: boot each image and run the identical workload;
         certification must not move a single cycle or check. *)
      let measure built =
        let t = Boot.boot_built built ~variant:v in
        let boot_cycles = Boot.cycles t in
        let ctx = Workloads.prepare t in
        Boot.reset_cycles t;
        Sva_rt.Stats.reset ();
        ablation_workload ctx;
        (boot_cycles, Boot.cycles t, Sva_rt.Stats.read ())
      in
      let boot_off, cyc_off, s_off = measure off in
      let boot_on, cyc_on, s_on = measure on in
      let results =
        Sva_tyck.Inject.pool_experiment ~config:(Kbuild.aconfig v)
          on.Pipeline.bl_mod b ~instances:3
      in
      let caught = List.length (List.filter (fun (_, _, c) -> c) results) in
      let d =
        {
          pc_th = List.length b.Poolev.pb_th;
          pc_comp = List.length b.Poolev.pb_comp;
          pc_complete =
            List.length
              (List.filter (fun c -> c.Poolev.cc_complete) b.Poolev.pb_comp);
          pc_dv = List.length b.Poolev.pb_dv;
          pc_el_th = el_th;
          pc_el_reduced = el_red;
          pc_el_func = el_fn;
          pc_cert_errors = List.length clean_errs;
          pc_summary_match =
            Option.get off.Pipeline.bl_summary
            = Option.get on.Pipeline.bl_summary;
          pc_boot_cycles_off = boot_off;
          pc_boot_cycles_on = boot_on;
          pc_cycles_off = cyc_off;
          pc_cycles_on = cyc_on;
          pc_checks_match = s_off = s_on;
          pc_checks = Sva_rt.Stats.total_checks s_on;
          pc_injected = List.length results;
          pc_caught = caught;
        }
      in
      pc_cache := Some d;
      d

let poolcert_table ?(strict = false) () =
  let d = poolcert_data () in
  let rows =
    [
      [ "TH certificates (type-homogeneous pools)"; string_of_int d.pc_th ];
      [ "completeness certificates (one per pool)"; string_of_int d.pc_comp ];
      [ "pools certified complete"; string_of_int d.pc_complete ];
      [ "devirtualization certificates"; string_of_int d.pc_dv ];
      [ "lscheck elisions on TH pools"; string_of_int d.pc_el_th ];
      [ "lscheck reductions on incomplete pools";
        string_of_int d.pc_el_reduced ];
      [ "funccheck elisions"; string_of_int d.pc_el_func ];
      [ "certificate errors (clean kernel)"; string_of_int d.pc_cert_errors ];
      [ "instrumentation summary on vs off";
        (if d.pc_summary_match then "identical" else "DIVERGES") ];
      [ "boot cycles off / on";
        Printf.sprintf "%d / %d" d.pc_boot_cycles_off d.pc_boot_cycles_on ];
      [ "workload cycles off / on";
        Printf.sprintf "%d / %d" d.pc_cycles_off d.pc_cycles_on ];
      [ "workload check counters on vs off";
        (if d.pc_checks_match then
           Printf.sprintf "identical (%d checks)" d.pc_checks
         else "DIVERGE") ];
      [ "injected certificate bugs caught";
        Printf.sprintf "%d/%d" d.pc_caught d.pc_injected ];
    ]
  in
  let table =
    T.render
      ~title:
        "Pool-safety certification: points-to evidence re-verified by the \
         trusted checker"
      ~note:
        "Every check elision taken on the points-to analysis's word - \
         lschecks skipped on type-homogeneous pools, reduced checks on \
         incomplete pools, devirtualized funcchecks - is backed by a \
         certificate Sva_tyck.Poolcert re-verified against an independent \
         scan of the instrumented kernel, so Pointsto and Devirt stay \
         outside the TCB (Section 5).  Certification is pure observation: \
         boot/workload cycles and every check counter must be \
         bit-identical with it on or off."
      [ T.L; T.R ]
      [ "Metric"; "Count" ]
      rows
  in
  let failures =
    List.concat
      [
        (if d.pc_cert_errors = 0 then []
         else
           [ Printf.sprintf "trusted checker rejected %d-error bundle"
               d.pc_cert_errors ]);
        (if d.pc_th > 0 then [] else [ "no pool was certified TH" ]);
        (if d.pc_el_th + d.pc_el_reduced + d.pc_el_func > 0 then []
         else [ "no elision was recorded" ]);
        (if d.pc_summary_match then []
         else [ "instrumentation summary diverges with certification on" ]);
        (if d.pc_boot_cycles_off = d.pc_boot_cycles_on then []
         else [ "boot cycles diverge with certification on" ]);
        (if d.pc_cycles_off = d.pc_cycles_on then []
         else [ "workload cycles diverge with certification on" ]);
        (if d.pc_checks_match then []
         else [ "check counters diverge with certification on" ]);
        (if d.pc_caught = d.pc_injected && d.pc_injected > 0 then []
         else
           [ Printf.sprintf "injection experiment caught %d/%d bugs"
               d.pc_caught d.pc_injected ]);
      ]
  in
  match failures with
  | [] -> table ^ "  poolcert check: PASS\n"
  | fs ->
      let msg = String.concat "; " fs in
      if strict then failwith ("poolcert check FAILED: " ^ msg)
      else table ^ "  poolcert check: FAIL - " ^ msg ^ "\n"

(* ---------- machine-readable results (--json) ---------- *)

module J = Jsonout

let fastpath_json ?(quick = false) () =
  let d = fastpath_data ~quick () in
  J.Obj
    [
      ("splay-comparisons-per-op",
       J.Obj [ ("cache-off", J.Float d.fp_cmp_off);
               ("cache-on", J.Float d.fp_cmp_on) ]);
      ("cycles-per-op",
       J.Obj [ ("cache-off", J.Float d.fp_cycles_off);
               ("cache-on", J.Float d.fp_cycles_on) ]);
      ("checks-per-op",
       J.Obj [ ("cache-off", J.Int d.fp_checks_off);
               ("cache-on", J.Int d.fp_checks_on) ]);
      ("hit-rate-pct", J.Float d.fp_hit_rate);
      ("comparison-reduction", J.Float d.fp_reduction);
    ]

let smp_json ?(quick = false) () =
  let d = smp_data ~quick () in
  J.Obj
    [
      ("seed", J.Int d.sd_seed);
      ("jobs", J.Int d.sd_jobs);
      ("sequential",
       J.Obj [ ("cycles", J.Int d.sd_seq_cycles);
               ("checks", J.Int d.sd_seq_checks) ]);
      ("points",
       J.List
         (List.map
            (fun p ->
              J.Obj
                [
                  ("cpus", J.Int p.sp_cpus);
                  ("makespan-cycles", J.Int p.sp_makespan);
                  ("total-cycles", J.Int p.sp_total);
                  ("speedup", J.Float p.sp_speedup);
                  ("steals", J.Int p.sp_steals);
                  ("ipis-sent", J.Int p.sp_ipis_sent);
                  ("ipis-delivered", J.Int p.sp_ipis_delivered);
                  ("checks", J.Int p.sp_checks);
                ])
            d.sd_points));
      ("single-cpu-identical", J.Bool d.sd_seq_identical);
      ("rerun-identical", J.Bool d.sd_rerun_identical);
    ]

let table7_json ?(quick = false) () =
  J.List
    (List.map
       (fun r ->
         J.Obj
           [
             ("operation", J.Str r.t7_op);
             ("native-cycles", J.Float r.t7_native_cycles);
             ("overheads-pct",
              J.Obj
                (List.map
                   (fun (conf, measured, paper) ->
                     (conf,
                      J.Obj [ ("measured", J.Float measured);
                              ("paper", J.Float paper) ]))
                   r.t7_overheads));
           ])
       (table7_data ~quick ()))

let aot_json ?(quick = false) () =
  let d = aot_data ~quick () in
  J.Obj
    [
      ("cycles-per-op",
       J.Obj [ ("interp", J.Float d.ad_cycles_interp);
               ("aot", J.Float d.ad_cycles_aot) ]);
      ("steps-per-op",
       J.Obj [ ("interp", J.Float d.ad_steps_interp);
               ("aot", J.Float d.ad_steps_aot) ]);
      ("checks-per-op",
       J.Obj [ ("interp", J.Int d.ad_checks_interp);
               ("aot", J.Int d.ad_checks_aot) ]);
      ("host-ns-per-op",
       J.Obj [ ("interp", J.Float d.ad_ns_interp);
               ("aot", J.Float d.ad_ns_aot) ]);
      ("host-speedup", J.Float d.ad_speedup);
      ("boot-ns",
       J.Obj [ ("cold", J.Float d.ad_boot_cold_ns);
               ("warm", J.Float d.ad_boot_warm_ns) ]);
      ("functions-compiled", J.Int d.ad_promotions);
      ("disk-cache",
       J.Obj [ ("writes-cold", J.Int d.ad_disk_writes_cold);
               ("hits-warm", J.Int d.ad_disk_hits_warm);
               ("stale-warm", J.Int d.ad_disk_stale_warm);
               ("misses-warm", J.Int d.ad_misses_warm) ]);
    ]

let ranges_json () =
  let d = ranges_data () in
  J.Obj
    [
      ("ls-checks",
       J.Obj
         [
           ("ranges-off", J.Int d.rd_ls_off);
           ("ranges-on", J.Int d.rd_ls_on);
           ("range-geps", J.Int d.rd_ls_range_geps);
         ]);
      ("bounds-checks",
       J.Obj
         [
           ("ranges-off", J.Int d.rd_bounds_off);
           ("ranges-on", J.Int d.rd_bounds_on);
           ("cert-elided", J.Int d.rd_bounds_cert);
         ]);
      ("certificates",
       J.Obj
         [
           ("bounds", J.Int d.rd_certs_bounds);
           ("lscheck", J.Int d.rd_certs_ls);
           ("verified", J.Bool true);
         ]);
      ("facts", J.Int d.rd_facts);
      ("iterations", J.Int d.rd_iterations);
    ]

let trace_json ?(quick = false) () =
  let d = trace_data ~quick () in
  let prow_json (r : Sva_rt.Trace.prow) =
    J.Obj
      [
        ("name", J.Str r.Sva_rt.Trace.p_name);
        ("calls", J.Int r.Sva_rt.Trace.p_calls);
        ("self-cycles", J.Int r.Sva_rt.Trace.p_self_cycles);
        ("total-cycles", J.Int r.Sva_rt.Trace.p_total_cycles);
        ("self-checks", J.Int r.Sva_rt.Trace.p_self_checks);
      ]
  in
  let pool_json (m : Sva_rt.Metapool_rt.metrics) =
    J.Obj
      [
        ("name", J.Str m.Sva_rt.Metapool_rt.m_name);
        ("live", J.Int m.Sva_rt.Metapool_rt.m_live);
        ("peak", J.Int m.Sva_rt.Metapool_rt.m_peak);
        ("regs", J.Int m.Sva_rt.Metapool_rt.m_regs);
        ("drops", J.Int m.Sva_rt.Metapool_rt.m_drops);
        ("depth", J.Int m.Sva_rt.Metapool_rt.m_depth);
        ("lookups", J.Int m.Sva_rt.Metapool_rt.m_lookups);
        ("cache-hits", J.Int m.Sva_rt.Metapool_rt.m_cache_hits);
      ]
  in
  J.Obj
    [
      ("invariance",
       J.Obj
         [
           ("cycles",
            J.Obj [ ("obs-off", J.Int d.tr_cycles_off);
                    ("obs-on", J.Int d.tr_cycles_on) ]);
           ("checks",
            J.Obj [ ("obs-off", J.Int d.tr_checks_off);
                    ("obs-on", J.Int d.tr_checks_on) ]);
         ]);
      ("events",
       J.Obj
         [
           ("emitted", J.Int d.tr_emitted);
           ("retained", J.Int d.tr_retained);
           ("dropped", J.Int d.tr_dropped);
           ("by-kind", J.Obj (List.map (fun (k, n) -> (k, J.Int n)) d.tr_counts));
         ]);
      ("attribution-pct", J.Float d.tr_attr_pct);
      ("hot-syscalls", J.List (List.map prow_json d.tr_sys_rows));
      ("hot-functions", J.List (List.map prow_json d.tr_fn_rows));
      ("pools", J.List (List.map pool_json d.tr_pools));
      ("chrome", d.tr_chrome);
    ]

let lint_json () =
  let d = lint_data () in
  J.Obj
    [
      ("findings",
       J.Obj (List.map (fun (c, n) -> (c, J.Int n)) d.ld_counts));
      ("findings-total", J.Int d.ld_findings);
      ("accesses-proved-safe", J.Int d.ld_proofs);
      ("functions-analyzed", J.Int d.ld_funcs);
      ("dataflow-iterations", J.Int d.ld_iterations);
      ("ls-checks",
       J.Obj
         [
           ("lint-off", J.Int d.ld_ls_inserted_base);
           ("lint-on", J.Int d.ld_ls_inserted_lint);
           ("proved-static", J.Int d.ld_ls_proved_static);
         ]);
    ]

let race_json () =
  let d = race_data () in
  J.Obj
    [
      ("findings",
       J.Obj (List.map (fun (c, n) -> (c, J.Int n)) d.rc_counts));
      ("shared-classes", J.Int d.rc_shared);
      ("accesses", J.Int d.rc_accesses);
      ("certificates",
       J.Obj
         [
           ("access", J.Int d.rc_certs);
           ("fact-claims", J.Int d.rc_fact_claims);
           ("errors", J.Int d.rc_cert_errors);
           ("verified", J.Bool (d.rc_cert_errors = 0));
         ]);
      ("lock-order-edges", J.Int d.rc_lock_edges);
      ("functions-analyzed", J.Int d.rc_funcs);
      ("dataflow-iterations", J.Int d.rc_iterations);
      ("fixture",
       J.Obj
         [
           ("findings", J.Int d.rc_fixture_findings);
           ("exact-match", J.Bool d.rc_fixture_match);
         ]);
      ("injection",
       J.Obj
         [
           ("injected", J.Int d.rc_injected);
           ("caught", J.Int d.rc_caught);
         ]);
      ("conc",
       J.Obj
         [
           ("cli", J.Int d.rc_conc.Sva_rt.Stats.cli_count);
           ("sti", J.Int d.rc_conc.Sva_rt.Stats.sti_count);
           ("lock-acquires", J.Int d.rc_conc.Sva_rt.Stats.lock_acquires);
           ("lock-releases", J.Int d.rc_conc.Sva_rt.Stats.lock_releases);
         ]);
    ]

let poolcert_json () =
  let d = poolcert_data () in
  J.Obj
    [
      ("certificates",
       J.Obj
         [
           ("th", J.Int d.pc_th);
           ("completeness", J.Int d.pc_comp);
           ("complete-pools", J.Int d.pc_complete);
           ("devirt", J.Int d.pc_dv);
           ("errors", J.Int d.pc_cert_errors);
           ("verified", J.Bool (d.pc_cert_errors = 0));
         ]);
      ("elisions",
       J.Obj
         [
           ("th", J.Int d.pc_el_th);
           ("reduced", J.Int d.pc_el_reduced);
           ("funccheck", J.Int d.pc_el_func);
         ]);
      ("bit-identity",
       J.Obj
         [
           ("summary-match", J.Bool d.pc_summary_match);
           ("boot-cycles",
            J.Obj [ ("off", J.Int d.pc_boot_cycles_off);
                    ("on", J.Int d.pc_boot_cycles_on) ]);
           ("workload-cycles",
            J.Obj [ ("off", J.Int d.pc_cycles_off);
                    ("on", J.Int d.pc_cycles_on) ]);
           ("checks-match", J.Bool d.pc_checks_match);
           ("workload-checks", J.Int d.pc_checks);
         ]);
      ("injection",
       J.Obj
         [
           ("injected", J.Int d.pc_injected);
           ("caught", J.Int d.pc_caught);
         ]);
    ]
