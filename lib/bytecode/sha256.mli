(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used to sign cached native-code translations together with their
    bytecode "to ensure integrity and safety of the native code"
    (Section 2/3.4).  No external crypto dependency is available in the
    sealed build environment, so the hash is implemented here and
    validated against the FIPS vectors, known-answer digests for every
    length from 0 to 130 bytes and the RFC 4231 HMAC cases in the test
    suite.

    The message is streamed through a 64-byte block compressor, so a
    multi-part message ({!digestv}, {!hmacv}) is hashed without first
    being joined into one string. *)

val digest : string -> string
(** Raw 32-byte digest. *)

val digestv : string list -> string
(** [digestv parts] is [digest (String.concat "" parts)], computed
    without building the concatenation. *)

val hex : string -> string
(** Lowercase hex digest (64 characters). *)

val to_hex : string -> string
(** Lowercase hex encoding of raw bytes (e.g. of a {!digestv} result). *)

val hmac : key:string -> string -> string
(** HMAC-SHA256 (RFC 2104), used as the SVM's signing primitive. *)

val hmacv : key:string -> string list -> string
(** [hmacv ~key parts] is [hmac ~key (String.concat "" parts)], in one
    streamed pass over the parts. *)

val hmac_hex : key:string -> string -> string
