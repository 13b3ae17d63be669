(* Tests for the SVM executor itself: memory semantics, atomics, traps,
   step limits, heap reuse, user-address translation, code addresses and
   global layout. *)

open Sva_ir
module Interp = Sva_interp.Interp
module Machine = Sva_hw.Machine
module Svaos = Sva_os.Svaos
module Closcomp = Sva_interp.Closcomp
module Pipeline = Sva_pipeline.Pipeline

let build_module f =
  let m = Irmod.create "t" in
  f m;
  Verify.check m;
  m

let simple_fn m ?(params = []) ?(ret = Ty.i64) name body =
  let f = Func.create name ret params in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  body f b

(* ---------- memory and layout ---------- *)

let test_global_layout_and_init () =
  let m =
    build_module (fun m ->
        Irmod.add_global m
          { Irmod.g_name = "tbl"; g_ty = Ty.Array (Ty.i32, 4);
            g_init = Irmod.Ints (Ty.i32, [ 10L; 20L; 30L; 40L ]); g_const = false };
        Irmod.add_global m
          { Irmod.g_name = "msg"; g_ty = Ty.Array (Ty.i8, 6);
            g_init = Irmod.Str "hello\000"; g_const = true };
        simple_fn m ~ret:Ty.i32 "third" (fun _ b ->
            let addr =
              Builder.b_gep b
                (Value.Global ("tbl", Ty.Array (Ty.i32, 4)))
                [ Value.imm 0; Value.imm 2 ]
            in
            let v = Builder.b_load b addr in
            Builder.b_ret b (Some v)))
  in
  let t = Interp.load m in
  Alcotest.(check (option int64)) "tbl[2]" (Some 30L) (Interp.call t "third" []);
  (* the string initializer landed in machine memory *)
  let addr = Interp.global_addr t "msg" in
  Alcotest.(check string) "string bytes" "hello"
    (Bytes.to_string (Machine.read (Interp.sys t).Svaos.machine ~addr ~len:5));
  Alcotest.(check int) "sizes" 16 (Interp.global_size t "tbl")

let test_gep_struct_addressing () =
  let m =
    build_module (fun m ->
        ignore
          (Ty.define_struct m.Irmod.m_ctx "task"
             [ ("pid", Ty.i32); ("state", Ty.i8); ("next", Ty.Ptr (Ty.Struct "task")) ]);
        Irmod.add_global m
          { Irmod.g_name = "t0"; g_ty = Ty.Struct "task"; g_init = Irmod.Zero;
            g_const = false };
        simple_fn m "field_addr_delta" (fun _ b ->
            let base = Value.Global ("t0", Ty.Struct "task") in
            let next = Builder.b_struct_gep b base "next" in
            let pid = Builder.b_struct_gep b base "pid" in
            let ni = Builder.b_cast b Instr.Ptrtoint next Ty.i64 in
            let pi = Builder.b_cast b Instr.Ptrtoint pid Ty.i64 in
            let d = Builder.b_binop b Instr.Sub ni pi in
            Builder.b_ret b (Some d)))
  in
  let t = Interp.load m in
  (* next is at offset 8 (i32 pid, i8 state, padding) *)
  Alcotest.(check (option int64)) "field offset" (Some 8L)
    (Interp.call t "field_addr_delta" [])

let test_wild_store_faults () =
  let m =
    build_module (fun m ->
        simple_fn m ~ret:Ty.Void "wild" (fun _ b ->
            let p =
              Builder.b_cast b Instr.Inttoptr (Value.imm64 0x150000L (* unmapped gap between SVM and globals regions *))
                (Ty.Ptr Ty.i64)
            in
            Builder.b_store b (Value.imm64 1L) p;
            Builder.b_ret b None))
  in
  let t = Interp.load m in
  match Interp.call t "wild" [] with
  | _ -> Alcotest.fail "wild store must fault"
  | exception Machine.Hw_fault _ -> ()

let test_null_deref_faults () =
  let m =
    build_module (fun m ->
        simple_fn m "nullread" (fun _ b ->
            let v = Builder.b_load b (Value.Null (Ty.Ptr Ty.i64)) in
            Builder.b_ret b (Some v)))
  in
  let t = Interp.load m in
  match Interp.call t "nullread" [] with
  | _ -> Alcotest.fail "null deref must fault"
  | exception Machine.Hw_fault _ -> ()

(* ---------- arithmetic traps and limits ---------- *)

let test_division_by_zero_traps () =
  let m =
    build_module (fun m ->
        simple_fn m ~params:[ ("a", Ty.i64); ("b", Ty.i64) ] "div" (fun f b ->
            let q =
              Builder.b_binop b Instr.Sdiv (Func.param_value f 0)
                (Func.param_value f 1)
            in
            Builder.b_ret b (Some q)))
  in
  let t = Interp.load m in
  Alcotest.(check (option int64)) "7/2" (Some 3L) (Interp.call t "div" [ 7L; 2L ]);
  match Interp.call t "div" [ 7L; 0L ] with
  | _ -> Alcotest.fail "division by zero must trap"
  | exception Interp.Vm_error _ -> ()

let test_step_limit () =
  let m =
    build_module (fun m ->
        simple_fn m ~ret:Ty.Void "spin" (fun _ b ->
            Builder.b_jmp b "loop";
            ignore (Builder.start_block b "loop");
            Builder.b_jmp b "loop"))
  in
  let t = Interp.load m in
  Interp.set_step_limit t (Some 10_000);
  match Interp.call t "spin" [] with
  | _ -> Alcotest.fail "must hit the step limit"
  | exception Interp.Vm_error msg ->
      Alcotest.(check bool) "limit message" true
        (String.length msg > 0 && msg.[0] = 's')

(* ---------- atomics ---------- *)

let test_atomics () =
  let m =
    build_module (fun m ->
        Irmod.add_global m
          { Irmod.g_name = "ctr"; g_ty = Ty.i64; g_init = Irmod.Ints (Ty.i64, [ 5L ]);
            g_const = false };
        simple_fn m "bump" (fun _ b ->
            let g = Value.Global ("ctr", Ty.i64) in
            let old = Builder.b_atomic_add b g (Value.imm64 3L) in
            Builder.b_ret b (Some old));
        simple_fn m ~params:[ ("expect", Ty.i64); ("repl", Ty.i64) ] "swap"
          (fun f b ->
            let g = Value.Global ("ctr", Ty.i64) in
            let old =
              Builder.b_cas b g (Func.param_value f 0) (Func.param_value f 1)
            in
            Builder.b_ret b (Some old)))
  in
  let t = Interp.load m in
  Alcotest.(check (option int64)) "add returns old" (Some 5L)
    (Interp.call t "bump" []);
  Alcotest.(check (option int64)) "cas mismatch returns current" (Some 8L)
    (Interp.call t "swap" [ 0L; 99L ]);
  Alcotest.(check (option int64)) "cas match swaps" (Some 8L)
    (Interp.call t "swap" [ 8L; 99L ]);
  Alcotest.(check (option int64)) "swapped" (Some 99L)
    (Interp.call t "swap" [ 0L; 0L ])

(* ---------- heap ---------- *)

let test_malloc_free_reuse () =
  let m =
    build_module (fun m ->
        simple_fn m "churn" (fun _ b ->
            let p1 = Builder.b_malloc b ~count:(Value.imm 4) Ty.i64 in
            Builder.b_free b p1;
            let p2 = Builder.b_malloc b ~count:(Value.imm 4) Ty.i64 in
            let i1 = Builder.b_cast b Instr.Ptrtoint p1 Ty.i64 in
            let i2 = Builder.b_cast b Instr.Ptrtoint p2 Ty.i64 in
            let same = Builder.b_icmp b Instr.Eq i1 i2 in
            let z = Builder.b_cast b Instr.Zext same Ty.i64 in
            Builder.b_free b p2;
            Builder.b_ret b (Some z)))
  in
  let t = Interp.load m in
  Alcotest.(check (option int64)) "freed block reused" (Some 1L)
    (Interp.call t "churn" []);
  Alcotest.(check int) "no live bytes" 0 (Interp.heap_live_bytes t)

let test_double_free_is_vm_error () =
  let m =
    build_module (fun m ->
        simple_fn m ~ret:Ty.Void "df" (fun _ b ->
            let p = Builder.b_malloc b Ty.i64 in
            Builder.b_free b p;
            Builder.b_free b p;
            Builder.b_ret b None))
  in
  let t = Interp.load m in
  match Interp.call t "df" [] with
  | _ -> Alcotest.fail "double free must error"
  | exception Interp.Vm_error _ -> ()

(* ---------- code addresses and indirect calls ---------- *)

let test_function_addresses () =
  let m =
    build_module (fun m ->
        simple_fn m ~ret:Ty.i32 "aa" (fun _ b -> Builder.b_ret b (Some (Value.imm 1)));
        simple_fn m ~ret:Ty.i32 "bb" (fun _ b -> Builder.b_ret b (Some (Value.imm 2))))
  in
  let t = Interp.load m in
  let a = Interp.func_addr t "aa" and b = Interp.func_addr t "bb" in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check (option string)) "reverse" (Some "aa") (Interp.func_name t a);
  Alcotest.(check (option int64)) "call_addr" (Some 2L) (Interp.call_addr t b []);
  match Interp.call_addr t (a + 1) [] with
  | _ -> Alcotest.fail "bad code address must error"
  | exception Interp.Vm_error _ -> ()

let test_indirect_call_through_memory () =
  let m =
    build_module (fun m ->
        Irmod.add_global m
          { Irmod.g_name = "fptr"; g_ty = Ty.Ptr (Ty.Func (Ty.i32, [], false));
            g_init = Irmod.Ptrs [ "target" ]; g_const = false };
        simple_fn m ~ret:Ty.i32 "target" (fun _ b ->
            Builder.b_ret b (Some (Value.imm 77)));
        simple_fn m ~ret:Ty.i32 "dispatch" (fun _ b ->
            let cell =
              Value.Global ("fptr", Ty.Ptr (Ty.Func (Ty.i32, [], false)))
            in
            let fp = Builder.b_load b cell in
            let r = Builder.b_call b fp [] in
            Builder.b_ret b r))
  in
  let t = Interp.load m in
  Alcotest.(check (option int64)) "via table" (Some 77L)
    (Interp.call t "dispatch" [])

(* ---------- user-address translation ---------- *)

let test_user_translation () =
  let m =
    build_module (fun m ->
        simple_fn m ~params:[ ("p", Ty.Ptr Ty.i64) ] "peek" (fun f b ->
            let v = Builder.b_load b (Func.param_value f 0) in
            Builder.b_ret b (Some v)))
  in
  let sys = Svaos.create () in
  let t = Interp.load ~sys m in
  (* no active space: user access faults *)
  (match Interp.call t "peek" [ Int64.of_int Machine.user_base ] with
  | _ -> Alcotest.fail "untranslatable access must fault"
  | exception Sva_hw.Mmu.Mmu_fault _ -> ());
  (* map user page 0 to a shifted frame and verify the translation *)
  let sid = Svaos.mmu_new_space sys in
  Svaos.mmu_activate sys ~sid;
  let vpn = Machine.user_base / Machine.page_size in
  Svaos.mmu_map_page sys ~sid ~vpn ~ppn:(vpn + 3) ~writable:true;
  Machine.write_int sys.Svaos.machine
    ~addr:(Machine.user_base + (3 * Machine.page_size))
    ~width:8 424242L;
  Alcotest.(check (option int64)) "translated read" (Some 424242L)
    (Interp.call t "peek" [ Int64.of_int Machine.user_base ])

(* Both engines on a loaded VM: the interpreter as loaded, and the whole
   module compiled ahead of time. *)
let engines =
  [
    ("interp", fun _ -> ());
    ("aot", fun t -> Closcomp.enable t; Closcomp.compile_all t);
  ]

(* A word access 4 bytes before the end of user page v, where v maps to
   frame F and v+1 to frame G, with G not F+1: each half must land in
   its own page's frame.  A straddle into an unmapped or read-only next
   page faults at that page's first byte and stores nothing. *)
let test_user_page_straddle () =
  let m =
    build_module (fun m ->
        simple_fn m ~params:[ ("p", Ty.Ptr Ty.i64) ] "peek" (fun f b ->
            let v = Builder.b_load b (Func.param_value f 0) in
            Builder.b_ret b (Some v));
        simple_fn m ~ret:Ty.Void
          ~params:[ ("p", Ty.Ptr Ty.i64); ("v", Ty.i64) ]
          "poke"
          (fun f b ->
            Builder.b_store b (Func.param_value f 1) (Func.param_value f 0);
            Builder.b_ret b None))
  in
  List.iter
    (fun (engine, setup) ->
      let sys = Svaos.create () in
      let t = Interp.load ~sys m in
      setup t;
      let mach = sys.Svaos.machine in
      let sid = Svaos.mmu_new_space sys in
      Svaos.mmu_activate sys ~sid;
      let v = Machine.user_base / Machine.page_size in
      let frame_f = v + 5 and frame_g = v + 9 in
      Svaos.mmu_map_page sys ~sid ~vpn:v ~ppn:frame_f ~writable:true;
      Svaos.mmu_map_page sys ~sid ~vpn:(v + 1) ~ppn:frame_g ~writable:true;
      let page n = n * Machine.page_size in
      let addr = page (v + 1) - 4 in
      let value = 0x1122334455667788L in
      ignore (Interp.call t "poke" [ Int64.of_int addr; value ]);
      let phys a w = Machine.read_int mach ~addr:a ~width:w in
      let name what = Printf.sprintf "%s: %s" engine what in
      Alcotest.(check int64) (name "low half in F") 0x55667788L
        (phys (page frame_f + Machine.page_size - 4) 4);
      Alcotest.(check int64) (name "high half in G") 0x11223344L
        (phys (page frame_g) 4);
      Alcotest.(check int64) (name "F+1 untouched") 0L
        (phys (page (frame_f + 1)) 4);
      Alcotest.(check (option int64)) (name "read back") (Some value)
        (Interp.call t "peek" [ Int64.of_int addr ]);
      let expect_fault what ~at f =
        match f () with
        | _ -> Alcotest.failf "%s: straddle into %s did not fault" engine what
        | exception Sva_hw.Mmu.Mmu_fault (a, _) ->
            Alcotest.(check int) (name (what ^ " fault address")) at a
      in
      (* v+2 is unmapped *)
      let addr2 = page (v + 2) - 4 in
      expect_fault "an unmapped page" ~at:(page (v + 2)) (fun () ->
          Interp.call t "peek" [ Int64.of_int addr2 ]);
      expect_fault "an unmapped page" ~at:(page (v + 2)) (fun () ->
          Interp.call t "poke" [ Int64.of_int addr2; value ]);
      (* a read-only next page refuses the store; the first page keeps
         its old bytes *)
      Svaos.mmu_map_page sys ~sid ~vpn:(v + 2) ~ppn:(v + 12) ~writable:false;
      expect_fault "a read-only page" ~at:(page (v + 2)) (fun () ->
          Interp.call t "poke" [ Int64.of_int addr2; value ]);
      Alcotest.(check int64) (name "no partial store") 0L
        (phys (page frame_g + Machine.page_size - 4) 4))
    engines

(* memmove with the destination inside the source, above it, and longer
   than a page: every byte must arrive, on every configuration and
   engine. *)
let memmove_src =
  "extern void *memmove(char *dst, char *src, long n);\n\
   char buf[12000];\n\
   long f(void) {\n\
  \  for (long i = 0; i < 12000; i = i + 1) buf[i] = (char)(i * 7 + 3);\n\
  \  memmove(buf + 100, buf, 9000);\n\
  \  long bad = 0;\n\
  \  for (long i = 0; i < 12000; i = i + 1) {\n\
  \    long j = i;\n\
  \    if (i >= 100 && i < 9100) j = i - 100;\n\
  \    if (((long)buf[i] & 255) != ((j * 7 + 3) & 255)) bad = bad + 1;\n\
  \  }\n\
  \  return bad;\n\
   }"

let test_overlapping_memmove () =
  List.iter
    (fun conf ->
      let built = Pipeline.build ~conf ~name:"memmove" [ memmove_src ] in
      List.iter
        (fun eng_kind ->
          let engine = { Pipeline.default_engine with Pipeline.eng_kind } in
          let t = Pipeline.instantiate ~engine built in
          Alcotest.(check (option int64))
            (Printf.sprintf "wrong bytes (%s, %s)" (Pipeline.conf_name conf)
               (Pipeline.engine_name eng_kind))
            (Some 0L) (Interp.call t "f" []))
        Pipeline.all_engines)
    [ Pipeline.Native; Pipeline.Sva_safe ]

let test_cycle_model_monotone () =
  let m =
    build_module (fun m ->
        simple_fn m ~params:[ ("n", Ty.i64) ] "loop" (fun f b ->
            Builder.b_jmp b "head";
            ignore (Builder.start_block b "head");
            let i =
              Builder.b_phi b Ty.i64
                [ ("entry", Value.imm64 0L); ("head", Value.Reg (99, Ty.i64, "")) ]
            in
            let i' = Builder.b_binop b Instr.Add i (Value.imm64 1L) in
            (* patch the placeholder *)
            (match i' with
            | Value.Reg (id, _, _) ->
                let blk = Func.find_block f "head" in
                blk.Func.insns <-
                  List.map
                    (fun (ins : Instr.t) ->
                      match ins.Instr.kind with
                      | Instr.Phi inc ->
                          { ins with
                            Instr.kind =
                              Instr.Phi
                                (List.map
                                   (fun (l, v) ->
                                     if l = "head" then (l, Value.Reg (id, Ty.i64, ""))
                                     else (l, v))
                                   inc) }
                      | _ -> ins)
                    blk.Func.insns
            | _ -> ());
            let c = Builder.b_icmp b Instr.Slt i' (Func.param_value f 0) in
            Builder.b_br b c "head" "out";
            ignore (Builder.start_block b "out");
            Builder.b_ret b (Some i')))
  in
  let t = Interp.load m in
  Interp.reset_cycles t;
  ignore (Interp.call t "loop" [ 10L ]);
  let c10 = Interp.cycles t in
  Interp.reset_cycles t;
  ignore (Interp.call t "loop" [ 100L ]);
  let c100 = Interp.cycles t in
  Alcotest.(check bool)
    (Printf.sprintf "cycles scale with work (%d < %d)" c10 c100)
    true
    (c10 * 5 < c100)

let () =
  Alcotest.run "sva_interp"
    [
      ( "memory",
        [
          Alcotest.test_case "globals" `Quick test_global_layout_and_init;
          Alcotest.test_case "struct gep" `Quick test_gep_struct_addressing;
          Alcotest.test_case "wild store faults" `Quick test_wild_store_faults;
          Alcotest.test_case "null deref faults" `Quick test_null_deref_faults;
        ] );
      ( "execution",
        [
          Alcotest.test_case "div by zero" `Quick test_division_by_zero_traps;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "atomics" `Quick test_atomics;
          Alcotest.test_case "cycle model" `Quick test_cycle_model_monotone;
        ] );
      ( "heap",
        [
          Alcotest.test_case "malloc/free reuse" `Quick test_malloc_free_reuse;
          Alcotest.test_case "double free" `Quick test_double_free_is_vm_error;
        ] );
      ( "code",
        [
          Alcotest.test_case "function addresses" `Quick test_function_addresses;
          Alcotest.test_case "indirect via memory" `Quick
            test_indirect_call_through_memory;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "user translation" `Quick test_user_translation;
          Alcotest.test_case "user page straddle" `Quick test_user_page_straddle;
          Alcotest.test_case "overlapping memmove" `Quick test_overlapping_memmove;
        ] );
    ]
