(** Signed translation cache (Sections 2 and 3.4).

    "When translation is done offline, the translated native code is
    cached on disk together with the bytecode, and the pair is digitally
    signed together to ensure integrity and safety of the native code."
    A cache entry here pairs the bytecode with the "native translation"
    (in this implementation, the translator's deterministic image digest),
    signed with the SVM's key.  Loading verifies the signature and the
    bytecode hash before the module may execute. *)

open Sva_ir

type entry = {
  ce_module_name : string;
  ce_bytecode : string;  (** serialized module *)
  ce_native : string;  (** cached translation artifact *)
  ce_signature : string;  (** HMAC-SHA256 over name, bytecode and native *)
}

exception Tampered of string

val svm_key : string ref
(** The SVM signing key (a deployment would keep this sealed). *)

val translate : Irmod.t -> string
(** The deterministic "native code" artifact for a module.  The
    interpreter executes bytecode directly, so the artifact is the
    translation fingerprint the SVM caches and re-checks. *)

val sign : Irmod.t -> entry
(** Encode, translate and sign a module. *)

val verify : entry -> Irmod.t
(** Check the signature and decode the bytecode.
    @raise Tampered if the signature, bytecode or native artifact was
    modified. *)

val tamper_bytecode : entry -> entry
(** Flip a byte in the bytecode (for tests and demos). *)

val tamper_native : entry -> entry

(** {1 Per-function translation-cache entries}

    The compiled execution engine ({!Sva_interp.Closcomp}) caches the
    translation of each function, keyed by the SHA-256 of the
    function's bytecode and signed with the SVM key.  Reuse re-verifies
    the signature (Section 3.4); a tampered entry is discarded and the
    function re-translated from (re-verified) bytecode. *)

type fentry = {
  fe_name : string;  (** function name (diagnostic) *)
  fe_hash : string;  (** SHA-256 hex of [fe_bytecode] — the cache key *)
  fe_bytecode : string;  (** the function's serialized bytecode *)
  fe_native : string;  (** deterministic translation artifact *)
  fe_signature : string;  (** HMAC-SHA256 over name, bytecode and native *)
}

val sign_function : name:string -> bytecode:string -> native:string -> fentry

val verify_function : fentry -> bytecode:string -> native:string -> unit
(** Check an entry against the function about to be executed: the
    signature must verify under the SVM key and the cached bytecode,
    key and native artifact must match the presented ones.
    @raise Tampered otherwise. *)

val tamper_fentry_signature : fentry -> fentry
val tamper_fentry_native : fentry -> fentry
val tamper_fentry_bytecode : fentry -> fentry
(** Byte-flipping helpers for tests and demos. *)

(** {1 On-disk serialization}

    Wire format for the persistent translation cache
    ({!Sva_interp.Tcache_disk}): a magic string followed by the five
    fields, each length-prefixed.  Decoding performs only structural
    checks — a decoded entry is untrusted until it passes
    {!verify_function}, so the store sits outside the TCB. *)

val encode_fentry : fentry -> string

val decode_fentry : string -> fentry
(** @raise Codec.Decode_error on bad magic, truncation, malformed
    length fields or trailing bytes. *)
