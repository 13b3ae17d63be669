(** The SVM's compiled execution engine: a closure compiler with a
    signed translation cache (Section 3.4).

    Functions — all of them at once under {!compile_all}, otherwise once
    {!Interp.enter} has counted the installed threshold of calls — are
    compiled into trees of OCaml closures: one chain per block, with
    specialized operand fetches, static gep offsets folded, resolved
    branch targets and specialized integer binops.  Each translation is
    recorded as a signed cache entry keyed by the SHA-256 of the
    function's bytecode; reuse re-verifies the signature and a tampered
    entry falls back to re-translation from re-verified bytecode.

    A function's bytecode, cache key and native artifact are computed
    once and memoized by function name.  A memo entry is used only for
    the physically same ([==]) [Func.t] it was computed from, so VMs
    instantiated from one [Pipeline.built] share it, and a different
    function linked later under the same name is encoded afresh and
    replaces it.  A [Func.t] must therefore not be mutated after it is
    first translated.  With the memo, a warm cache hit is one HMAC pass
    ({!Sva_bytecode.Signing.verify_function}) and no encoding.

    The engine is semantically invisible: results, traps, check statistics
    and the modeled cycle counts are bit-identical to the interpreter's,
    because the compiled code charges steps, cycles and intrinsics and
    resolves callees through the interpreter's own code
    ({!Interp.run_block}, {!Interp.run_intr}, {!Interp.call_direct}).
    Only host wall-clock time improves. *)

open Sva_ir

val enable : ?threshold:int -> Interp.t -> unit
(** Install the tier on a VM: functions entered at least [threshold]
    times (default 1, clamped to at least 1) are translated and run
    compiled from then on. *)

val compile_all : Interp.t -> unit
(** Whole-kernel AOT: translate every loaded function now (in
    deterministic name order), through the same signed cache — against a
    populated {!Tcache_disk} store this is all verified disk hits and
    zero re-translations.  Host work only; execution stays bit-identical
    to the other engines. *)

val build : Interp.t -> Interp.prepared_func -> int64 list -> int64 option
(** Compile a prepared function to its closure-tree entry point,
    bypassing the translation cache (exposed for tests).  Compiled
    blocks are dispatched one at a time by index. *)

val translate :
  Interp.t -> Interp.prepared_func -> int64 list -> int64 option
(** The installed [jit_translate]: consult the signed in-memory
    translation cache, then the persistent {!Tcache_disk} store
    (verifying the entry's signature in either case); re-verify,
    re-sign and persist on a miss or a tampered/stale entry, then
    compile.  Bumps the {!Sva_rt.Stats} tier counters. *)

(** {1 Translation cache introspection (tests and demos)} *)

val key_of_func : Func.t -> string
(** The cache key: SHA-256 hex of the function's bytecode (read from,
    and recorded in, the per-function memo). *)

val cache_size : unit -> int

val clear_cache : unit -> unit
(** Empty the signed translation cache and the per-function memo, so
    the next translation starts cold: it encodes and hashes again. *)

val cached_entry : string -> Sva_bytecode.Signing.fentry option
(** Look up the signed entry recorded under a cache key. *)

val tamper_cached :
  string -> (Sva_bytecode.Signing.fentry -> Sva_bytecode.Signing.fentry) -> bool
(** Corrupt the cached entry under a key in place (e.g. with
    {!Sva_bytecode.Signing.tamper_fentry_signature}); returns [false]
    when the key is absent. *)
