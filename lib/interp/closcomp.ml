(* The SVM's compiled execution engine: a closure compiler.

   Section 3.4's SVM "can cache translations" of verified bytecode; this
   module is that translator for the OCaml substrate.  A function is
   compiled once into a tree of OCaml closures — one chain per basic
   block, with operand fetches specialized per value constructor, static
   gep offsets folded, branch targets resolved to block indices and
   integer binops specialized — so the hot path never pays the
   interpreter's per-instruction constructor dispatch again.

   Translations are keyed by the SHA-256 of the function's bytecode and
   recorded as signed cache entries ({!Sva_bytecode.Signing.fentry}).  A
   cache hit re-verifies the signature before reuse and may then skip the
   translation-time bytecode re-verification; a tampered entry is
   discarded and the function re-translated from re-verified bytecode,
   exactly the paper's cached-native-code story.

   The engine must be semantically invisible, so its bookkeeping is the
   interpreter's own code: [I.run_block] drives each compiled block and
   takes the per-step prologue (one step, one cycle, then the step-limit
   check) before every op and terminator, [I.tick_phis] charges a block's
   phis, [I.run_intr] charges intrinsics, and [I.call_direct] and
   [I.call_indirect] resolve callees not known at translation time.  The
   closures themselves charge nothing.  Phi simultaneity, stack-pointer
   save/restore and the error messages of the specialized instructions
   are reproduced here.  The speedup is host wall-clock only. *)

open Sva_ir
module I = Interp
module Machine = Sva_hw.Machine
module Stats = Sva_rt.Stats
module Codec = Sva_bytecode.Codec
module Signing = Sva_bytecode.Signing
module Sha256 = Sva_bytecode.Sha256

(* ---------- per-invocation frame ---------- *)

type frame = {
  regs : int64 array;
  scratch : int64 array;  (* phi staging, sized pf_max_phis *)
  mutable prev : int;  (* predecessor block index; -1 on entry *)
  mutable ret : int64 option;
}

type cvalf = frame -> int64
type cop = frame -> unit

(* ---------- operand fetch specialization ---------- *)

let cval (t : I.t) (v : Value.t) : cvalf =
  match v with
  | Value.Reg (id, _, _) -> fun fr -> fr.regs.(id)
  | Value.Imm (Ty.Int w, n) ->
      let k = Constfold.truncate_to_width w n in
      fun _ -> k
  | Value.Imm (_, n) -> fun _ -> n
  | Value.Fimm f ->
      let k = Int64.bits_of_float f in
      fun _ -> k
  | Value.Null _ | Value.Undef _ -> fun _ -> 0L
  | Value.Global (g, _) -> (
      (* Resolve now when possible; a symbol a later link_module may
         still provide falls back to the interpreter's lazy lookup
         (addresses, once assigned, are never rebound). *)
      match Hashtbl.find_opt t.I.g_addr g with
      | Some a ->
          let k = Int64.of_int a in
          fun _ -> k
      | None -> (
          fun _ ->
            match Hashtbl.find_opt t.I.g_addr g with
            | Some a -> Int64.of_int a
            | None -> I.vm_err "unknown global @%s" g))
  | Value.Fn (f, _) -> (
      match Hashtbl.find_opt t.I.fn_addr f with
      | Some a ->
          let k = Int64.of_int a in
          fun _ -> k
      | None -> (
          fun _ ->
            match Hashtbl.find_opt t.I.fn_addr f with
            | Some a -> Int64.of_int a
            | None -> I.vm_err "unknown function @%s" f))

(* Compile-time constant, when the operand needs no frame and no symbol
   table (exactly the cases [I.eval] computes without [t]). *)
let const_of (v : Value.t) : int64 option =
  match v with
  | Value.Imm (Ty.Int w, n) -> Some (Constfold.truncate_to_width w n)
  | Value.Imm (_, n) -> Some n
  | Value.Fimm f -> Some (Int64.bits_of_float f)
  | Value.Null _ | Value.Undef _ -> Some 0L
  | _ -> None

(* ---------- instruction compilation ---------- *)

(* Specialized integer binops.  Add/Sub/Mul and the bitwise ops are pure
   wrap-to-width and inlined; the trapping, shift and unsigned ops reuse
   Constfold.eval_binop (the interpreter's own evaluator) so the
   semantics cannot drift. *)
let cbinop t fname (i : Instr.t) op x y : cop =
  let id = i.Instr.id in
  match op with
  | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv ->
      let cx = cval t x and cy = cval t y in
      let fop =
        match op with
        | Instr.Fadd -> ( +. )
        | Instr.Fsub -> ( -. )
        | Instr.Fmul -> ( *. )
        | _ -> ( /. )
      in
      fun fr ->
        let fx = Int64.float_of_bits (cx fr) in
        let fy = Int64.float_of_bits (cy fr) in
        fr.regs.(id) <- Int64.bits_of_float (fop fx fy)
  | _ -> (
      let w = I.width_of_value x in
      let cx = cval t x and cy = cval t y in
      let wrap =
        if w >= 64 then fun v -> v
        else if w = 1 then fun v -> Int64.logand v 1L
        else
          let sh = 64 - w in
          fun v -> Int64.shift_right (Int64.shift_left v sh) sh
      in
      match op with
      | Instr.Add ->
          fun fr -> fr.regs.(id) <- wrap (Int64.add (cx fr) (cy fr))
      | Instr.Sub ->
          fun fr -> fr.regs.(id) <- wrap (Int64.sub (cx fr) (cy fr))
      | Instr.Mul ->
          fun fr -> fr.regs.(id) <- wrap (Int64.mul (cx fr) (cy fr))
      | Instr.And ->
          fun fr -> fr.regs.(id) <- wrap (Int64.logand (cx fr) (cy fr))
      | Instr.Or ->
          fun fr -> fr.regs.(id) <- wrap (Int64.logor (cx fr) (cy fr))
      | Instr.Xor ->
          fun fr -> fr.regs.(id) <- wrap (Int64.logxor (cx fr) (cy fr))
      | _ ->
          fun fr ->
            let a = cx fr in
            let b = cy fr in
            (match Constfold.eval_binop op w a b with
            | Some r -> fr.regs.(id) <- r
            | None -> I.vm_err "division by zero in @%s" fname))

(* Gep: fold the index walk at compile time into a static byte offset
   plus dynamic (scale * index) terms.  A dynamically-indexed struct (or
   any walk this decomposition cannot prove out) falls back to the
   interpreter's own gep_offset so errors and semantics match exactly. *)
let cgep t (i : Instr.t) (base : Value.t) idxs : cop =
  let id = i.Instr.id in
  let pointee = Ty.pointee (Value.ty base) in
  let cbase = cval t base in
  let generic () =
    (* offset first, base second — the interpreter's order *)
    fun fr ->
      let off = I.gep_offset t pointee fr.regs idxs in
      fr.regs.(id) <- Int64.add (cbase fr) off
  in
  match
    let konst = ref 0L in
    let terms = ref [] in
    let add_idx scale v =
      match const_of v with
      | Some n -> konst := Int64.add !konst (Int64.mul n scale)
      | None -> terms := (scale, cval t v) :: !terms
    in
    (match idxs with
    | first :: rest ->
        add_idx (Int64.of_int (I.sizeof t pointee)) first;
        let rec descend ty = function
          | [] -> ()
          | idx :: more -> (
              match ty with
              | Ty.Array (e, _) ->
                  add_idx (Int64.of_int (I.sizeof t e)) idx;
                  descend e more
              | Ty.Struct sname -> (
                  match const_of idx with
                  | Some n ->
                      let foff, fty =
                        Ty.field_at t.I.im_mod.Irmod.m_ctx sname
                          (Int64.to_int n)
                      in
                      konst := Int64.add !konst (Int64.of_int foff);
                      descend fty more
                  | None -> raise Exit)
              | _ -> raise Exit)
        in
        descend pointee rest
    | [] -> raise Exit);
    (!konst, List.rev !terms)
  with
  | exception _ -> generic ()
  | k, [] ->
      fun fr -> fr.regs.(id) <- Int64.add (cbase fr) k
  | k, ts ->
      fun fr ->
        let off =
          List.fold_left
            (fun acc (s, cv) -> Int64.add acc (Int64.mul (cv fr) s))
            k ts
        in
        fr.regs.(id) <- Int64.add (cbase fr) off

(* Calls.  A callee already known at translation time (memoized in the
   call site's cache, or defined in the loaded image) is bound into the
   closure; any other direct callee, and every indirect one, resolves at
   run time through the interpreter's own [I.call_direct] and
   [I.call_indirect].  Callees always re-enter through [I.enter], so
   compiled code can call interpreted functions and trigger their
   compilation. *)
let ccall t (i : Instr.t) (callee : Value.t) (cargs : Value.t array)
    (cache : I.prepared_func I.callee_cache) : cop =
  let id = i.Instr.id in
  let evs = Array.map (cval t) cargs in
  let argv fr = Array.to_list (Array.map (fun ev -> ev fr) evs) in
  let set fr res =
    match res with Some v -> fr.regs.(id) <- v | None -> ()
  in
  let direct cpf fr = set fr (I.enter t cpf (argv fr)) in
  match (cache.I.cc, callee) with
  | I.Cc_func cpf, _ -> direct cpf
  | I.Cc_builtin name, _ ->
      fun fr -> set fr (I.builtin t name (Array.of_list (argv fr)))
  | I.Cc_unresolved, Value.Fn (name, _) -> (
      match Hashtbl.find_opt t.I.funcs name with
      | Some cpf ->
          cache.I.cc <- I.Cc_func cpf;
          direct cpf
      | None -> fun fr -> set fr (I.call_direct t cache name (argv fr)))
  | I.Cc_unresolved, _ ->
      let ctarget = cval t callee in
      fun fr ->
        let args = argv fr in
        set fr (I.call_indirect t (I.to_addr (ctarget fr)) args)

(* Intrinsics: pre-compiled operand fetches feeding the interpreter's
   own charging sequence. *)
let cintr t (i : Instr.t) intr (vargs : Value.t array) cost_native
    cost_mediated : cop =
  let id = i.Instr.id in
  let has_result = i.Instr.ty <> Ty.Void in
  let evs = Array.map (cval t) vargs in
  fun fr ->
    let args = Array.map (fun ev -> ev fr) evs in
    match I.run_intr t intr vargs args cost_native cost_mediated with
    | Some v -> if has_result then fr.regs.(id) <- v
    | None -> ()

(* One instruction to one closure.  A compile-time error (bad width, gep
   into a scalar, ...) is deferred to execution time, where the
   interpreter would raise it — after the same bookkeeping. *)
let cinsn t fname (p : I.pinsn) : cop =
  let compile () =
    match p with
    | I.P_intr (i, intr, vargs, cn, cm) -> cintr t i intr vargs cn cm
    | I.P_call (i, callee, cargs, cache) -> ccall t i callee cargs cache
    | I.P_base i -> (
        let id = i.Instr.id in
        match i.Instr.kind with
        | Instr.Binop (op, x, y) -> cbinop t fname i op x y
        | Instr.Icmp (op, x, y) ->
            let w = I.width_of_value x in
            let cx = cval t x and cy = cval t y in
            fun fr ->
              let a = cx fr in
              let b = cy fr in
              fr.regs.(id) <-
                (if Constfold.eval_icmp op w a b then 1L else 0L)
        | Instr.Alloca (ty, count) ->
            let es = I.sizeof t ty in
            let ccount = cval t count in
            fun fr ->
              let n = Int64.to_int (ccount fr) in
              let size = max 1 (es * max 1 n) in
              t.I.sp <- (t.I.sp + 15) / 16 * 16;
              if t.I.sp + size > Machine.stack_base + Machine.stack_size
              then I.vm_err "kernel stack overflow";
              let addr = t.I.sp in
              t.I.sp <- t.I.sp + size;
              fr.regs.(id) <- Int64.of_int addr
        | Instr.Load p ->
            let w = I.ty_width i.Instr.ty in
            let cp = cval t p in
            fun fr ->
              fr.regs.(id) <-
                I.mem_read_int t ~addr:(I.to_addr (cp fr)) ~width:w
        | Instr.Store (v, p) ->
            let w = I.ty_width (Value.ty v) in
            let cv = cval t v and cp = cval t p in
            fun fr ->
              I.mem_write_int t ~addr:(I.to_addr (cp fr)) ~width:w (cv fr)
        | Instr.Gep (base, idxs) -> cgep t i base idxs
        | Instr.Cast (op, x, ty) -> (
            let cx = cval t x in
            match op with
            | Instr.Bitcast | Instr.Inttoptr | Instr.Ptrtoint | Instr.Sext ->
                fun fr -> fr.regs.(id) <- cx fr
            | Instr.Trunc -> (
                match ty with
                | Ty.Int w ->
                    fun fr ->
                      fr.regs.(id) <- Constfold.truncate_to_width w (cx fr)
                | _ -> I.vm_err "trunc to non-integer")
            | Instr.Zext ->
                let sw = I.width_of_value x in
                fun fr -> fr.regs.(id) <- Constfold.zext_of_width sw (cx fr)
            | Instr.Fptosi ->
                fun fr ->
                  fr.regs.(id) <-
                    Int64.of_float (Int64.float_of_bits (cx fr))
            | Instr.Sitofp ->
                fun fr ->
                  fr.regs.(id) <-
                    Int64.bits_of_float (Int64.to_float (cx fr)))
        | Instr.Select (c, x, y) ->
            let cc = cval t c and cx = cval t x and cy = cval t y in
            fun fr -> fr.regs.(id) <- (if cc fr <> 0L then cx fr else cy fr)
        | Instr.Malloc (ty, count) ->
            let es = I.sizeof t ty in
            let ccount = cval t count in
            fun fr ->
              let n = Int64.to_int (ccount fr) in
              fr.regs.(id) <- Int64.of_int (I.heap_alloc t (es * max 1 n))
        | Instr.Free p ->
            let cp = cval t p in
            fun fr -> I.heap_free t (I.to_addr (cp fr))
        | Instr.Atomic_cas (p, e, r) ->
            let w = I.ty_width (Value.ty e) in
            let cp = cval t p and ce = cval t e and cr = cval t r in
            fun fr ->
              let addr = I.to_addr (cp fr) in
              let old = I.mem_read_int t ~addr ~width:w in
              if old = ce fr then I.mem_write_int t ~addr ~width:w (cr fr);
              fr.regs.(id) <- old
        | Instr.Atomic_add (p, d) ->
            let w = I.ty_width (Value.ty d) in
            let cp = cval t p and cd = cval t d in
            fun fr ->
              let addr = I.to_addr (cp fr) in
              let old = I.mem_read_int t ~addr ~width:w in
              I.mem_write_int t ~addr ~width:w (Int64.add old (cd fr));
              fr.regs.(id) <- old
        | Instr.Membar -> fun _ -> ()
        | Instr.Intrinsic _ | Instr.Call _ | Instr.Phi _ -> assert false)
  in
  match compile () with
  | c -> c
  | exception e -> fun _ -> raise e

(* ---------- block compilation ---------- *)

type cblock = {
  cb_phis : cop option;
  cb_body : cop array;
  cb_term : frame -> int;  (* next block index; -1 = return *)
}

(* Compile a terminator.  [bi] is this block's index: the interpreter
   records [prev] after the terminator's bookkeeping, before evaluating
   its operand. *)
let cterm t fname bi (term : I.pterm) : frame -> int =
  match term with
  | I.P_ret None ->
      fun fr ->
        fr.prev <- bi;
        fr.ret <- None;
        -1
  | I.P_ret (Some v) ->
      let cv = cval t v in
      fun fr ->
        fr.prev <- bi;
        fr.ret <- Some (cv fr);
        -1
  | I.P_jmp ix ->
      fun fr ->
        fr.prev <- bi;
        ix
  | I.P_br (c, th, el) ->
      let cc = cval t c in
      fun fr ->
        fr.prev <- bi;
        if cc fr <> 0L then th else el
  | I.P_switch (v, cases, default) ->
      let cv = cval t v in
      let n = Array.length cases in
      fun fr ->
        fr.prev <- bi;
        let x = cv fr in
        let rec go k =
          if k >= n then default
          else
            let c, ix = cases.(k) in
            if Int64.equal c x then ix else go (k + 1)
        in
        go 0
  | I.P_unreachable ->
      fun fr ->
        fr.prev <- bi;
        I.vm_err "reached 'unreachable' in @%s" fname

let cphis t (labels : string array) (pb : I.pblock) : cop option =
  let phis = pb.I.pb_phis in
  let n = Array.length phis in
  if n = 0 then None
  else
    let dests = Array.map fst phis in
    let comp =
      Array.map
        (fun (_, incoming) -> Array.map (Option.map (cval t)) incoming)
        phis
    in
    let label = pb.I.pb_label in
    Some
      (fun fr ->
        for k = 0 to n - 1 do
          let inc = comp.(k) in
          match (if fr.prev >= 0 then inc.(fr.prev) else None) with
          | Some cv -> fr.scratch.(k) <- cv fr
          | None ->
              I.vm_err "phi in %%%s has no incoming for %%%s" label
                (if fr.prev >= 0 then labels.(fr.prev) else "")
        done;
        for k = 0 to n - 1 do
          fr.regs.(dests.(k)) <- fr.scratch.(k)
        done;
        I.tick_phis t n)

let cblock t fname (labels : string array) bi (pb : I.pblock) : cblock =
  {
    cb_phis = cphis t labels pb;
    cb_body = Array.map (cinsn t fname) pb.I.pb_body;
    cb_term = cterm t fname bi pb.I.pb_term;
  }

(* ---------- function compilation ---------- *)

let build (t : I.t) (pf : I.prepared_func) : int64 list -> int64 option =
  let f = pf.I.pf in
  let fname = f.Func.f_name in
  let nregs = max 1 f.Func.f_next_reg in
  let nscratch = max 1 pf.I.pf_max_phis in
  let labels = Array.map (fun b -> b.I.pb_label) pf.I.pf_blocks in
  let blocks = Array.mapi (cblock t fname labels) pf.I.pf_blocks in
  let run_block (cb : cblock) fr =
    (match cb.cb_phis with Some p -> p fr | None -> ());
    I.run_block t cb.cb_body cb.cb_term fr
  in
  fun args ->
    let fr =
      {
        regs = Array.make nregs 0L;
        scratch = Array.make nscratch 0L;
        prev = -1;
        ret = None;
      }
    in
    List.iteri (fun i v -> if i < nregs then fr.regs.(i) <- v) args;
    let sp_save = t.I.sp in
    (* [run_block] returns the next block index, or -1 on return. *)
    let cur = ref 0 in
    while !cur >= 0 do
      cur := run_block blocks.(!cur) fr
    done;
    (* Restored only on normal return, like the interpreter: a trap
       unwinds through [I.call], which resets the stack allocator. *)
    t.I.sp <- sp_save;
    fr.ret

(* ---------- the signed translation cache ---------- *)

let cache : (string, Signing.fentry) Hashtbl.t = Hashtbl.create 64

let native_artifact ~bytecode = Sha256.hex ("svm-closcomp-v1:" ^ bytecode)
let key_of_func f = Sha256.hex (Codec.encode_func f)

(* Translation-time bytecode re-verification: the function must decode
   from its bytecode and round-trip bit-exactly.  This is the work a
   valid signed cache entry lets the SVM skip. *)
let reverify fname bytecode =
  let ok =
    match Codec.decode_func bytecode with
    | f2 -> String.equal (Codec.encode_func f2) bytecode
    | exception Codec.Decode_error _ -> false
  in
  if not ok then
    I.vm_err "translation: bytecode re-verification failed for @%s" fname

let clear_cache () = Hashtbl.reset cache
let cache_size () = Hashtbl.length cache
let cached_entry key = Hashtbl.find_opt cache key

let tamper_cached key f =
  match Hashtbl.find_opt cache key with
  | None -> false
  | Some e ->
      Hashtbl.replace cache key (f e);
      true

let translate (t : I.t) (pf : I.prepared_func) : int64 list -> int64 option =
  Stats.bump_promotion ();
  let fname = pf.I.pf.Func.f_name in
  (* Tier events are the one deliberate divergence between the two
     engines' traces: the interpreter never promotes.  The event-identity
     tests filter them out before comparing streams. *)
  if !Sva_rt.Trace.active then Sva_rt.Trace.emit_tier_promote fname;
  let bytecode = Codec.encode_func pf.I.pf in
  let key = Sha256.hex bytecode in
  let native = native_artifact ~bytecode in
  (* Section 3.4: a miss (or a cached translation whose signature does
     not verify) re-translates from re-verified bytecode, re-signs the
     result, and persists it for the next process. *)
  let fresh ~disk_stale =
    Stats.bump_tcache_miss ();
    if !Sva_rt.Trace.active then Sva_rt.Trace.emit_tcache_miss fname;
    if disk_stale then begin
      Stats.bump_tcache_disk_stale ();
      if !Sva_rt.Trace.active then Sva_rt.Trace.emit_tcache_disk_stale fname
    end;
    reverify fname bytecode;
    let e = Signing.sign_function ~name:fname ~bytecode ~native in
    Hashtbl.replace cache key e;
    if Tcache_disk.store e then begin
      Stats.bump_tcache_disk_write ();
      if !Sva_rt.Trace.active then Sva_rt.Trace.emit_tcache_disk_write fname
    end
  in
  (* In-memory miss: probe the persistent store.  A decodable on-disk
     entry gets the same signature verification an in-memory one does;
     anything structurally broken, tampered or stale falls back to a
     fresh translation (which overwrites the bad file). *)
  let from_disk () =
    match Tcache_disk.probe ~key with
    | Tcache_disk.Absent -> fresh ~disk_stale:false
    | Tcache_disk.Corrupt _ -> fresh ~disk_stale:true
    | Tcache_disk.Entry e -> (
        Stats.bump_sig_verification ();
        match Signing.verify_function e ~bytecode ~native with
        | () ->
            Stats.bump_tcache_hit ();
            Stats.bump_tcache_disk_hit ();
            if !Sva_rt.Trace.active then
              Sva_rt.Trace.emit_tcache_disk_hit fname;
            Hashtbl.replace cache key e
        | exception Signing.Tampered _ -> fresh ~disk_stale:true)
  in
  (match Hashtbl.find_opt cache key with
  | Some e -> (
      Stats.bump_sig_verification ();
      match Signing.verify_function e ~bytecode ~native with
      | () ->
          Stats.bump_tcache_hit ();
          if !Sva_rt.Trace.active then Sva_rt.Trace.emit_tcache_hit fname
      | exception Signing.Tampered _ -> from_disk ())
  | None -> from_disk ());
  build t pf

let enable ?(threshold = 1) (t : I.t) =
  I.set_jit t
    (Some { I.jit_threshold = max 1 threshold; I.jit_translate = translate })

(* Whole-kernel ahead-of-time mode: translate every loaded function at
   instantiate time (deterministic name order), so the first call of
   every function already runs compiled and a populated persistent store
   makes a second process boot hot.  Translation is host work — modeled
   cycles, steps and check counters are untouched, so AOT output is
   bit-identical to the other engines'. *)
let compile_all (t : I.t) =
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) t.I.funcs [] in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.I.funcs name with
      | Some pf -> (
          match pf.I.pf_entry with
          | Some _ -> ()
          | None -> pf.I.pf_entry <- Some (translate t pf))
      | None -> ())
    (List.sort String.compare names)
