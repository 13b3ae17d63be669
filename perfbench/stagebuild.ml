(* The kernel build driven stage by stage through each stage's public
   function, in the order Sva_pipeline.Pipeline.build runs them for
   Sva_safe (cloning, devirtualization and check optimization are off in
   Ukern.Kbuild, so they are absent here too).  Every stage runs under a
   span and has its wall time and minor-heap allocation recorded.

   This is a replica of Pipeline.build, so the traced run checks it
   against the real thing: the encoded bytecode must be byte-identical
   to Kbuild.build's with the same flags and the check-insertion summary
   identical (see [fidelity]). *)

open Sva_analysis
open Sva_safety
module P = Sva_pipeline.Pipeline
module Kbuild = Ukern.Kbuild

type flags = { lint : bool; ranges : bool; races : bool; poolcert : bool }

let default_flags = { lint = false; ranges = false; races = false; poolcert = false }
let full_flags = { lint = true; ranges = true; races = true; poolcert = true }

let kbuild flags v =
  Kbuild.build ~lint:flags.lint ~ranges:flags.ranges ~races:flags.races
    ~poolcert:flags.poolcert v

(* Stage names in pipeline order. *)
let stage_names =
  [
    "minic.parse"; "minic.lower"; "ir.passes"; "analysis.pointsto";
    "safety.metapool"; "tyck.check"; "safety.poolev"; "analysis.interval";
    "lint.run"; "safety.checkinsert"; "tyck.rangecert"; "tyck.poolcert";
    "analysis.lockset"; "tyck.atomcert"; "bytecode.encode"; "bytecode.sign";
  ]

type record = {
  mutable r_stages : (string * int * float) list;
      (** (stage, ns, minor words), newest first *)
  mutable r_ir_instrs : int;  (** after the optimization passes *)
  mutable r_safety_instrs : int;  (** after check insertion *)
  mutable r_bytes : int;  (** encoded bytecode size *)
}

let new_record () =
  { r_stages = []; r_ir_instrs = 0; r_safety_instrs = 0; r_bytes = 0 }

let stage rc name f =
  let w0 = Gc.minor_words () in
  let t0 = Span.now_ns () in
  let r = Span.within name f in
  let dt = Span.now_ns () - t0 in
  rc.r_stages <- (name, dt, Gc.minor_words () -. w0) :: rc.r_stages;
  r

let reject what errs to_s =
  if errs <> [] then
    failwith (what ^ " failed:\n" ^ String.concat "\n" (List.map to_s errs))

(* Build variant [v] under Sva_safe with [flags]; returns the built image
   and its encoded bytecode. *)
let build ?(rc = new_record ()) flags v =
  let aconfig = Kbuild.aconfig v in
  let name = "ukern-" ^ v.Kbuild.v_name in
  let progs =
    stage rc "minic.parse" (fun () -> List.map Minic.Parser.parse (Kbuild.sources v))
  in
  let m = stage rc "minic.lower" (fun () -> Minic.Lower.compile_program ~name progs) in
  stage rc "ir.passes" (fun () -> Sva_ir.Passes.run Sva_ir.Passes.Llvm_like m);
  rc.r_ir_instrs <- Sva_ir.Irmod.instr_count m;
  let pa = stage rc "analysis.pointsto" (fun () -> Pointsto.run ~config:aconfig m) in
  let mps =
    stage rc "safety.metapool" (fun () ->
        Metapool.infer m pa aconfig.Pointsto.allocators)
  in
  let annot =
    stage rc "tyck.check" (fun () ->
        let an = Sva_tyck.Tyck.extract m pa mps in
        reject "metapool type checking"
          (Sva_tyck.Tyck.check ~trusted:(Sva_tyck.Tyck.trusted_of_config aconfig) m an)
          Sva_tyck.Tyck.string_of_error;
        an)
  in
  let pbundle =
    if flags.poolcert then
      Some (stage rc "safety.poolev" (fun () -> Poolev.create m pa mps))
    else None
  in
  let rres =
    if flags.ranges then Some (stage rc "analysis.interval" (fun () -> Interval.run m pa))
    else None
  in
  let range_oracle kind =
    match rres with
    | Some rr -> fun ~fname i -> Interval.elide rr ~fname i kind
    | None -> fun ~fname:_ _ -> false
  in
  let lint_res =
    if flags.lint then
      Some
        (stage rc "lint.run" (fun () ->
             Sva_lint.Lint.run ~config:(Kbuild.lint_config v)
               ~ranges:(range_oracle Interval.Cls) m pa))
    else None
  in
  let proofs =
    match lint_res with
    | Some r -> fun ~fname id -> Sva_lint.Lint.proved_safe r ~fname id
    | None -> fun ~fname:_ _ -> false
  in
  let summary =
    stage rc "safety.checkinsert" (fun () ->
        Checkinsert.run ~options:Checkinsert.default_options ~proofs
          ~ranges:(range_oracle Interval.Cbounds) ?poolcert:pbundle m pa mps
          aconfig.Pointsto.allocators)
  in
  rc.r_safety_instrs <- Sva_ir.Irmod.instr_count m;
  Option.iter
    (fun rr ->
      stage rc "tyck.rangecert" (fun () ->
          reject "range certificate checking"
            (Sva_tyck.Rangecert.check ~entries:(Interval.entry_config rr) m
               (Interval.bundle rr))
            Sva_tyck.Rangecert.string_of_error))
    rres;
  Option.iter
    (fun b ->
      stage rc "tyck.poolcert" (fun () ->
          reject "pool-safety certificate checking"
            (Sva_tyck.Poolcert.check ~config:aconfig m b)
            Sva_tyck.Poolcert.string_of_error))
    pbundle;
  let races_res =
    if flags.races then begin
      let rr = stage rc "analysis.lockset" (fun () -> Lockset.run m pa) in
      stage rc "tyck.atomcert" (fun () ->
          reject "atomicity certificate checking"
            (Sva_tyck.Atomcert.check ~entries:(Lockset.entry_config rr) m
               (Lockset.bundle rr))
            Sva_tyck.Atomcert.string_of_error);
      Some rr
    end
    else None
  in
  let bytes = stage rc "bytecode.encode" (fun () -> Sva_bytecode.Codec.encode m) in
  rc.r_bytes <- String.length bytes;
  ignore (stage rc "bytecode.sign" (fun () -> Sva_bytecode.Signing.sign m));
  let built =
    {
      P.bl_name = name;
      bl_conf = P.Sva_safe;
      bl_mod = m;
      bl_pa = Some pa;
      bl_mps = Some mps;
      bl_summary = Some summary;
      bl_aconfig = aconfig;
      bl_annot = Some annot;
      bl_cloned = 0;
      bl_devirt = 0;
      bl_checkopt = None;
      bl_lint = lint_res;
      bl_ranges = rres;
      bl_races = races_res;
      bl_poolcert = pbundle;
    }
  in
  (built, bytes)

(* The replica must agree with Kbuild.build: byte-identical bytecode and
   an identical check-insertion summary.  [reference] is Kbuild.build's
   output for the same flags and its encoding. *)
let fidelity ~reference:(ref_built, ref_bytes) (built, bytes) =
  if bytes <> ref_bytes then Error "stage replica: bytecode differs from Kbuild.build"
  else if built.P.bl_summary <> ref_built.P.bl_summary then
    Error "stage replica: check-insertion summary differs from Kbuild.build"
  else Ok ()
