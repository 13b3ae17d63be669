exception Hw_fault of int * string

let page_size = 4096

let bios_base = 0x000E0000
let bios_size = 0x00020000 (* 128 KB *)
let svm_base = 0x00010000
let svm_size = 0x00005000 (* 20 KB, Section 3.4 *)
let globals_base = 0x00200000
let globals_size = 8 * 1024 * 1024
let heap_base = 0x01000000
let heap_size = 64 * 1024 * 1024
let stack_base = 0x08000000
let stack_size = 16 * 1024 * 1024
let user_base = 0x40000000
let user_size = 32 * 1024 * 1024

(* Simulated-SMP limits.  Each modeled CPU gets a private 8KB trap
   scratch area carved from the top of the kernel-stack region for its
   interrupt contexts; CPU 0's area starts exactly where the single-CPU
   scratch always lived, so 1-CPU layouts are unchanged. *)
let max_cpus = 8
let percpu_trap_size = 8192

let percpu_trap_base ~cpu =
  if cpu < 0 || cpu >= max_cpus then
    invalid_arg
      (Printf.sprintf "Machine.percpu_trap_base: cpu %d out of range [0,%d)"
         cpu max_cpus);
  stack_base + stack_size - 4096 - (cpu * percpu_trap_size)

(* Each region is an array of 4 KB frames.  Every slot starts out as the
   one shared [zero_frame]; the first store to a slot gives it its own
   buffer ([frame_w]), so creating a machine allocates only the frame
   tables.  Stores reach a frame only through [frame_w], so [zero_frame]
   stays all zeros. *)

let page_mask = page_size - 1
let page_bits = 12
let zero_frame = Bytes.make page_size '\000'

type region = {
  r_base : int;
  r_size : int;
  r_svm : bool;  (** kernel stores refused unless in SVM mode *)
  r_frames : Bytes.t array;
}

(* Regions are disjoint and sorted by descending base, so the only
   candidate for an address is the first region that starts at or below
   it. *)
type t = { regions : region array; mutable svm : bool }

let mk_region ?(svm = false) base size =
  { r_base = base; r_size = size; r_svm = svm;
    r_frames = Array.make (size / page_size) zero_frame }

let create () =
  {
    regions =
      [|
        mk_region user_base user_size;
        mk_region stack_base stack_size;
        mk_region heap_base heap_size;
        mk_region globals_base globals_size;
        mk_region bios_base bios_size;
        mk_region ~svm:true svm_base svm_size;
      |];
    svm = false;
  }

let unmapped addr =
  Hw_fault (addr, Printf.sprintf "access to unmapped address 0x%x" addr)

let rec find_from rs i addr len =
  if i = Array.length rs then raise (unmapped addr)
  else
    let r = Array.unsafe_get rs i in
    if addr < r.r_base then find_from rs (i + 1) addr len
    else if addr + len <= r.r_base + r.r_size then r
    else raise (unmapped addr)

let find_region t addr len =
  if len < 0 then raise (Hw_fault (addr, "negative access length"));
  find_from t.regions 0 addr len

let check_store t r addr =
  if r.r_svm && not t.svm then
    raise (Hw_fault (addr, "kernel store into SVM-reserved memory"))

(* The frame holding region offset [off], given its own buffer first.
   Callers pass only offsets inside an access [find_region] accepted, so
   [off < r_size] and the unchecked index is in bounds. *)
let frame_w r off =
  let i = off lsr page_bits in
  let f = Array.unsafe_get r.r_frames i in
  if f != zero_frame then f
  else begin
    let f = Bytes.make page_size '\000' in
    Array.unsafe_set r.r_frames i f;
    f
  end

let frame_r r off = Array.unsafe_get r.r_frames (off lsr page_bits)

(* Frame-by-frame copies between region offset [off] and [b] at [boff]. *)
let copy_out r off b boff len =
  let off = ref off and boff = ref boff and len = ref len in
  while !len > 0 do
    let po = !off land page_mask in
    let n = min !len (page_size - po) in
    Bytes.blit (frame_r r !off) po b !boff n;
    off := !off + n;
    boff := !boff + n;
    len := !len - n
  done

let copy_in r off b boff len =
  let off = ref off and boff = ref boff and len = ref len in
  while !len > 0 do
    let po = !off land page_mask in
    let n = min !len (page_size - po) in
    Bytes.blit b !boff (frame_w r !off) po n;
    off := !off + n;
    boff := !boff + n;
    len := !len - n
  done

let read t ~addr ~len =
  let r = find_region t addr len in
  let b = Bytes.create len in
  copy_out r (addr - r.r_base) b 0 len;
  b

let write t ~addr b =
  let len = Bytes.length b in
  let r = find_region t addr len in
  check_store t r addr;
  copy_in r (addr - r.r_base) b 0 len

(* Frame-straddling scalar accesses go through a little-endian byte
   buffer. *)
let read_straddle r off width =
  let b = Bytes.create 8 in
  copy_out r off b 0 width;
  match width with
  | 2 -> Int64.of_int (Bytes.get_int16_le b 0)
  | 4 -> Int64.of_int32 (Bytes.get_int32_le b 0)
  | _ -> Bytes.get_int64_le b 0

let write_straddle r off width v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  copy_in r off b 0 width

(* Loads are sign-extended to the canonical 64-bit representation. *)
let read_int t ~addr ~width =
  let r = find_region t addr width in
  let off = addr - r.r_base in
  let po = off land page_mask in
  match width with
  | 1 -> Int64.of_int (Bytes.get_int8 (frame_r r off) po)
  | 2 when po <= page_size - 2 -> Int64.of_int (Bytes.get_int16_le (frame_r r off) po)
  | 4 when po <= page_size - 4 -> Int64.of_int32 (Bytes.get_int32_le (frame_r r off) po)
  | 8 when po <= page_size - 8 -> Bytes.get_int64_le (frame_r r off) po
  | 2 | 4 | 8 -> read_straddle r off width
  | _ -> raise (Hw_fault (addr, "bad access width"))

let write_int t ~addr ~width v =
  let r = find_region t addr width in
  check_store t r addr;
  let off = addr - r.r_base in
  let po = off land page_mask in
  match width with
  | 1 -> Bytes.set_int8 (frame_w r off) po (Int64.to_int v)
  | 2 when po <= page_size - 2 -> Bytes.set_int16_le (frame_w r off) po (Int64.to_int v)
  | 4 when po <= page_size - 4 -> Bytes.set_int32_le (frame_w r off) po (Int64.to_int32 v)
  | 8 when po <= page_size - 8 -> Bytes.set_int64_le (frame_w r off) po v
  | 2 | 4 | 8 -> write_straddle r off width v
  | _ -> raise (Hw_fault (addr, "bad access width"))

(* memmove.  Copying forward, frame to frame, is correct unless the
   destination starts inside the source, above it; then the source is
   copied out first. *)
let blit t ~src ~dst ~len =
  if len > 0 then begin
    let rs = find_region t src len in
    let rd = find_region t dst len in
    check_store t rd dst;
    let so = src - rs.r_base and d0 = dst - rd.r_base in
    if src < dst && dst < src + len then begin
      let b = Bytes.create len in
      copy_out rs so b 0 len;
      copy_in rd d0 b 0 len
    end
    else begin
      let so = ref so and d = ref d0 and len = ref len in
      while !len > 0 do
        let spo = !so land page_mask and dpo = !d land page_mask in
        let n = min !len (page_size - max spo dpo) in
        let fd = frame_w rd !d in
        Bytes.blit (frame_r rs !so) spo fd dpo n;
        so := !so + n;
        d := !d + n;
        len := !len - n
      done
    end
  end

let fill t ~addr ~len c =
  if len > 0 then begin
    let r = find_region t addr len in
    check_store t r addr;
    let off = ref (addr - r.r_base) and len = ref len in
    while !len > 0 do
      let po = !off land page_mask in
      let n = min !len (page_size - po) in
      Bytes.fill (frame_w r !off) po n c;
      off := !off + n;
      len := !len - n
    done
  end

let resident_frames t =
  Array.fold_left
    (fun n r ->
      Array.fold_left (fun n f -> if f == zero_frame then n else n + 1) n r.r_frames)
    0 t.regions

let in_user_range ~addr ~len =
  addr >= user_base && addr + len <= user_base + user_size && len >= 0

let in_kernel_range ~addr = addr < user_base

let with_svm_mode t f =
  let prev = t.svm in
  t.svm <- true;
  Fun.protect ~finally:(fun () -> t.svm <- prev) f

let svm_mode t = t.svm
