(* SHA-256 over 32-bit words represented in OCaml ints (63-bit native),
   masked to 32 bits after each operation.  The message is streamed
   through a 64-byte block compressor: whole blocks are read in place,
   and only the tail (at most 63 bytes plus the padding) is copied. *)

let mask = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* Hashing state: chaining value, message schedule, the pending tail
   block and the total length fed so far. *)
type ctx = {
  h : int array;
  w : int array;
  tail : Bytes.t;
  mutable tlen : int;
  mutable len : int;
}

let init () =
  {
    h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
           0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    w = Array.make 64 0;
    tail = Bytes.create 64;
    tlen = 0;
    len = 0;
  }

(* Compress the 64-byte block of [src] at [off] into the chaining value. *)
let compress st src off =
  let w = st.w and h = st.h in
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (Bytes.get_int32_be src (off + (t * 4))) land mask
  done;
  (* Indices below stay within the 64-entry [w] and [k]. *)
  for t = 16 to 63 do
    let w15 = Array.unsafe_get w (t - 15) and w2 = Array.unsafe_get w (t - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
       land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  (* One round updates only [d] and [hh]; the other six move down one
     name.  Unrolling by eight rotates the names instead of the values. *)
  let round a b c d e f g hh t =
    let t1 =
      !hh
      + (rotr !e 6 lxor rotr !e 11 lxor rotr !e 25)
      + ((!e land !f) lxor (lnot !e land !g))
      + Array.unsafe_get k t + Array.unsafe_get w t
    in
    let t2 =
      (rotr !a 2 lxor rotr !a 13 lxor rotr !a 22)
      + ((!a land !b) lxor (!a land !c) lxor (!b land !c))
    in
    d := (!d + t1) land mask;
    hh := (t1 + t2) land mask
  [@@inline]
  in
  for i = 0 to 7 do
    let t = i * 8 in
    round a b c d e f g hh t;
    round hh a b c d e f g (t + 1);
    round g hh a b c d e f (t + 2);
    round f g hh a b c d e (t + 3);
    round e f g hh a b c d (t + 4);
    round d e f g hh a b c (t + 5);
    round c d e f g hh a b (t + 6);
    round b c d e f g hh a (t + 7)
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed c s =
  let n = String.length s in
  c.len <- c.len + n;
  let pos = ref 0 in
  if c.tlen > 0 then begin
    let m = min (64 - c.tlen) n in
    Bytes.blit_string s 0 c.tail c.tlen m;
    c.tlen <- c.tlen + m;
    pos := m;
    if c.tlen = 64 then begin
      compress c c.tail 0;
      c.tlen <- 0
    end
  end;
  let b = Bytes.unsafe_of_string s in
  while n - !pos >= 64 do
    compress c b !pos;
    pos := !pos + 64
  done;
  (* Anything left over means the tail was empty or just flushed. *)
  if !pos < n then begin
    Bytes.blit_string s !pos c.tail 0 (n - !pos);
    c.tlen <- n - !pos
  end

(* Padding: 0x80, zeros, 64-bit big-endian bit length — in the tail
   block, or in one more block when the length does not fit. *)
let finish c =
  let t = c.tail in
  Bytes.set t c.tlen '\x80';
  Bytes.fill t (c.tlen + 1) (63 - c.tlen) '\000';
  if c.tlen >= 56 then begin
    compress c t 0;
    Bytes.fill t 0 56 '\000'
  end;
  Bytes.set_int64_be t 56 (Int64.of_int (c.len * 8));
  compress c t 0;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (i * 4) (Int32.of_int v)) c.h;
  Bytes.unsafe_to_string out

let digestv parts =
  let c = init () in
  List.iter (feed c) parts;
  finish c

let digest msg = digestv [ msg ]

let to_hex d =
  let digits = "0123456789abcdef" in
  String.init
    (2 * String.length d)
    (fun i ->
      let b = Char.code d.[i / 2] in
      digits.[if i land 1 = 0 then b lsr 4 else b land 0xf])

let hex msg = to_hex (digest msg)

let hmacv ~key parts =
  let block = 64 in
  let key = if String.length key > block then digest key else key in
  let key = key ^ String.make (block - String.length key) '\000' in
  let xor_with c = String.map (fun k -> Char.chr (Char.code k lxor c)) key in
  digestv [ xor_with 0x5c; digestv (xor_with 0x36 :: parts) ]

let hmac ~key msg = hmacv ~key [ msg ]
let hmac_hex ~key msg = to_hex (hmac ~key msg)
