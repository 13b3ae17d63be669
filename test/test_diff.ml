(* Differential property tests: the optimizer pipelines must preserve the
   semantics the interpreter implements, and the constant folder must
   agree with the executor on every operation — checked over randomly
   generated programs. *)

open Sva_ir

(* ---------- constant folder vs executor, per operation ---------- *)

let int_binops =
  [
    Instr.Add; Instr.Sub; Instr.Mul; Instr.Sdiv; Instr.Udiv; Instr.Srem;
    Instr.Urem; Instr.And; Instr.Or; Instr.Xor; Instr.Shl; Instr.Lshr;
    Instr.Ashr;
  ]

let widths = [ 8; 16; 32; 64 ]

(* Build `wN f(wN a, wN b) { return a OP b; }`, run it on the SVM, and
   compare with Constfold.eval_binop. *)
let run_binop op w a b =
  let m = Irmod.create "diff" in
  let ty = Ty.Int w in
  let f = Func.create "f" ty [ ("a", ty); ("b", ty) ] in
  Irmod.add_func m f;
  let bld = Builder.create m f in
  ignore (Builder.start_block bld "entry");
  let r = Builder.b_binop bld op (Func.param_value f 0) (Func.param_value f 1) in
  Builder.b_ret bld (Some r);
  Verify.check m;
  let t = Sva_interp.Interp.load m in
  let canon v = Constfold.truncate_to_width w v in
  match Sva_interp.Interp.call t "f" [ canon a; canon b ] with
  | Some v -> Some v
  | None -> None
  | exception Sva_interp.Interp.Vm_error _ -> None (* division by zero *)

let prop_constfold_matches_interp =
  let gen =
    QCheck2.Gen.(
      tup4 (int_range 0 (List.length int_binops - 1)) (oneofl widths)
        (map Int64.of_int int) (map Int64.of_int int))
  in
  QCheck2.Test.make ~name:"constant folder agrees with the executor" ~count:250
    gen
    (fun (opi, w, a, b) ->
      let op = List.nth int_binops opi in
      let ca = Constfold.truncate_to_width w a
      and cb = Constfold.truncate_to_width w b in
      let folded = Constfold.eval_binop op w ca cb in
      let executed = run_binop op w a b in
      match (folded, executed) with
      | Some x, Some y -> Int64.equal x y
      | None, None -> true (* both report division by zero *)
      | Some _, None | None, Some _ -> false)

let prop_icmp_matches_interp =
  let preds =
    [ Instr.Eq; Instr.Ne; Instr.Slt; Instr.Sle; Instr.Sgt; Instr.Sge;
      Instr.Ult; Instr.Ule; Instr.Ugt; Instr.Uge ]
  in
  let gen =
    QCheck2.Gen.(
      tup4 (int_range 0 (List.length preds - 1)) (oneofl widths)
        (map Int64.of_int int) (map Int64.of_int int))
  in
  QCheck2.Test.make ~name:"icmp folding agrees with the executor" ~count:250 gen
    (fun (pi, w, a, b) ->
      let pred = List.nth preds pi in
      let ca = Constfold.truncate_to_width w a
      and cb = Constfold.truncate_to_width w b in
      let m = Irmod.create "diff" in
      let ty = Ty.Int w in
      let f = Func.create "f" Ty.i32 [ ("a", ty); ("b", ty) ] in
      Irmod.add_func m f;
      let bld = Builder.create m f in
      ignore (Builder.start_block bld "entry");
      let c = Builder.b_icmp bld pred (Func.param_value f 0) (Func.param_value f 1) in
      let z = Builder.b_cast bld Instr.Zext c Ty.i32 in
      Builder.b_ret bld (Some z);
      let t = Sva_interp.Interp.load m in
      let run = Sva_interp.Interp.call t "f" [ ca; cb ] in
      let folded = Constfold.eval_icmp pred w ca cb in
      run = Some (if folded then 1L else 0L))

(* ---------- random MiniC programs: pipelines agree ---------- *)

let gen_program seed =
  let rng = Random.State.make [| seed |] in
  let e1 = Randexpr.gen_expr rng 3 in
  let e2 = Randexpr.gen_expr rng 3 in
  let e3 = Randexpr.gen_expr rng 2 in
  Printf.sprintf
    "int f(int a, int b) {\n\
    \  int c = %s;\n\
    \  int acc = 0;\n\
    \  for (int i = 0; i < 8; i++) {\n\
    \    if ((%s) > acc) acc += c; else acc ^= (%s);\n\
    \    c = c + i;\n\
    \  }\n\
    \  return acc;\n\
     }"
    e1 e2 e3

let run_program pipeline src (a, b) =
  let m = Minic.Lower.compile_string ~name:"rand" src in
  (match pipeline with
  | Some p -> Passes.run p m
  | None -> Verify.check m);
  let t = Sva_interp.Interp.load m in
  Sva_interp.Interp.call t "f" [ Int64.of_int a; Int64.of_int b ]

let prop_pipelines_agree =
  let gen = QCheck2.Gen.(tup3 (int_range 0 5000) small_signed_int small_signed_int) in
  QCheck2.Test.make ~name:"optimizer pipelines preserve semantics" ~count:40 gen
    (fun (seed, a, b) ->
      let src = gen_program seed in
      let unopt = run_program None src (a, b) in
      let gcc = run_program (Some Passes.Gcc_like) src (a, b) in
      let llvm = run_program (Some Passes.Llvm_like) src (a, b) in
      unopt = gcc && gcc = llvm)

(* ---------- random programs survive the full safety pipeline ---------- *)

let prop_safety_pipeline_preserves =
  let gen = QCheck2.Gen.(tup3 (int_range 0 5000) small_signed_int small_signed_int) in
  QCheck2.Test.make
    ~name:"safety instrumentation preserves pure computations" ~count:40 gen
    (fun (seed, a, b) ->
      let src = gen_program seed in
      let plain = run_program (Some Passes.Llvm_like) src (a, b) in
      let built =
        Sva_pipeline.Pipeline.build ~conf:Sva_pipeline.Pipeline.Sva_safe
          ~name:"rand" [ src ]
      in
      let t = Sva_pipeline.Pipeline.instantiate built in
      let safe =
        Sva_interp.Interp.call t "f" [ Int64.of_int a; Int64.of_int b ]
      in
      plain = safe)

let () =
  Alcotest.run "sva_diff"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_constfold_matches_interp;
          QCheck_alcotest.to_alcotest prop_icmp_matches_interp;
          QCheck_alcotest.to_alcotest prop_pipelines_agree;
          QCheck_alcotest.to_alcotest prop_safety_pipeline_preserves;
        ] );
    ]
