(* Tests for the simulated hardware: machine memory regions, CPU state
   save/restore (Table 1 semantics), the MMU, devices, and the SVA-OS
   layer including interrupt contexts (Table 2). *)

open Sva_hw
module Svaos = Sva_os.Svaos

(* ---------- machine ---------- *)

let test_machine_rw () =
  let m = Machine.create () in
  Machine.write_int m ~addr:Machine.heap_base ~width:8 0x1122334455667788L;
  Alcotest.(check int64) "read back" 0x1122334455667788L
    (Machine.read_int m ~addr:Machine.heap_base ~width:8);
  (* little-endian byte order; narrow reads are canonically sign-extended *)
  Alcotest.(check int64) "low byte (sext 0x88)" (-0x78L)
    (Machine.read_int m ~addr:Machine.heap_base ~width:1);
  (* sign extension of narrow reads *)
  Machine.write_int m ~addr:Machine.heap_base ~width:1 0xffL;
  Alcotest.(check int64) "sext i8" (-1L)
    (Machine.read_int m ~addr:Machine.heap_base ~width:1)

let test_machine_fault_unmapped () =
  let m = Machine.create () in
  List.iter
    (fun addr ->
      match Machine.read m ~addr ~len:4 with
      | _ -> Alcotest.failf "read at 0x%x should fault" addr
      | exception Machine.Hw_fault _ -> ())
    [ 0; 4096; 0xDEADBEEF; Machine.heap_base + Machine.heap_size ]

let test_machine_region_straddle () =
  let m = Machine.create () in
  (* A range crossing out of a region faults even if it starts mapped. *)
  match Machine.read m ~addr:(Machine.bios_base + Machine.bios_size - 2) ~len:8 with
  | _ -> Alcotest.fail "straddling read should fault"
  | exception Machine.Hw_fault _ -> ()

let test_svm_region_protected () =
  let m = Machine.create () in
  (match Machine.write_int m ~addr:Machine.svm_base ~width:8 1L with
  | _ -> Alcotest.fail "kernel store into SVM memory should fault"
  | exception Machine.Hw_fault _ -> ());
  (* ...but the SVM itself may write it. *)
  Machine.with_svm_mode m (fun () ->
      Machine.write_int m ~addr:Machine.svm_base ~width:8 42L);
  Alcotest.(check int64) "svm wrote" 42L
    (Machine.read_int m ~addr:Machine.svm_base ~width:8)

let test_blit_and_fill () =
  let m = Machine.create () in
  Machine.write m ~addr:Machine.heap_base (Bytes.of_string "hello world");
  Machine.blit m ~src:Machine.heap_base ~dst:(Machine.heap_base + 100) ~len:11;
  Alcotest.(check string) "blit" "hello world"
    (Bytes.to_string (Machine.read m ~addr:(Machine.heap_base + 100) ~len:11));
  Machine.fill m ~addr:(Machine.heap_base + 100) ~len:5 'x';
  Alcotest.(check string) "fill" "xxxxx world"
    (Bytes.to_string (Machine.read m ~addr:(Machine.heap_base + 100) ~len:11))

(* ---------- machine: 4 KB frames ---------- *)

let page = Machine.page_size

let fault_of f =
  match f () with
  | _ -> None
  | exception Machine.Hw_fault (a, msg) -> Some (a, msg)

let check_fault what (addr, msg) f =
  Alcotest.(check (option (pair int string))) what (Some (addr, msg)) (fault_of f)

let unmapped addr = (addr, Printf.sprintf "access to unmapped address 0x%x" addr)

(* Little-endian bytes of the low [width] bytes of [v]. *)
let le_bytes width v =
  Bytes.sub_string
    (let b = Bytes.create 8 in
     Bytes.set_int64_le b 0 v;
     b)
    0 width

let sext width v =
  let sh = 64 - (8 * width) in
  Int64.shift_right (Int64.shift_left v sh) sh

(* Every width, at every offset whose access crosses a frame boundary,
   in the heap, stack and user regions.  The bytes land little-endian
   on both sides of the boundary and nothing around them moves. *)
let test_frame_straddle_int () =
  List.iter
    (fun (rname, base) ->
      let boundary = base + (5 * page) in
      List.iter
        (fun width ->
          for k = 1 to 7 do
            let addr = boundary - k in
            let m = Machine.create () in
            let v = Int64.of_string "0x8192a3b4c5d6e7f1" in
            let v = Int64.logxor v (Int64.of_int ((width * 8) + k)) in
            Machine.write_int m ~addr ~width v;
            let what = Printf.sprintf "%s width %d at page-%d" rname width k in
            Alcotest.(check int64) (what ^ ": read_int") (sext width v)
              (Machine.read_int m ~addr ~width);
            Alcotest.(check string) (what ^ ": bytes")
              ("\000" ^ le_bytes width v ^ "\000")
              (Bytes.to_string (Machine.read m ~addr:(addr - 1) ~len:(width + 2)))
          done)
        [ 1; 2; 4; 8 ])
    [ ("heap", Machine.heap_base); ("stack", Machine.stack_base);
      ("user", Machine.user_base) ]

let pattern n seed = Bytes.init n (fun i -> Char.chr (((i * 31) + seed) land 0xff))

(* read, write and fill over spans of three and more frames. *)
let test_frame_multi_span () =
  let m = Machine.create () in
  let addr = Machine.heap_base + (2 * page) - 50 in
  let data = pattern ((3 * page) + 100) 7 in
  Machine.write m ~addr data;
  Alcotest.(check bytes) "write/read over 5 frames" data
    (Machine.read m ~addr ~len:(Bytes.length data));
  Machine.fill m ~addr:(addr + 10) ~len:((2 * page) + 200) 'q';
  Bytes.fill data 10 ((2 * page) + 200) 'q';
  Alcotest.(check bytes) "fill over 3 frames" data
    (Machine.read m ~addr ~len:(Bytes.length data));
  Alcotest.(check string) "bytes around the span untouched" "\000\000"
    (Bytes.to_string (Machine.read m ~addr:(addr - 1) ~len:1)
    ^ Bytes.to_string (Machine.read m ~addr:(addr + Bytes.length data) ~len:1));
  Alcotest.(check int) "five frames own a buffer" 5 (Machine.resident_frames m)

(* Overlapping blits move like memmove in both directions, across
   frames. *)
let test_frame_blit_overlap () =
  List.iter
    (fun (what, src_off, dst_off) ->
      let m = Machine.create () in
      let base = Machine.stack_base + page - 300 in
      let span = 4 * page in
      let model = pattern span 3 in
      Machine.write m ~addr:base model;
      let len = (2 * page) + 123 in
      Machine.blit m ~src:(base + src_off) ~dst:(base + dst_off) ~len;
      Bytes.blit model src_off model dst_off len;
      Alcotest.(check bytes) what model (Machine.read m ~addr:base ~len:span))
    [ ("blit up", 5, 1000); ("blit down", 1000, 5); ("blit in place", 77, 77);
      ("blit up by one", 0, 1); ("blit down by one", 1, 0) ]

(* Kernel stores into the SVM region are refused on every store path,
   before any frame gets a buffer. *)
let test_frame_svm_refusal () =
  let m = Machine.create () in
  let addr = Machine.svm_base + page - 3 in
  let refused = (addr, "kernel store into SVM-reserved memory") in
  check_fault "write" refused (fun () -> Machine.write m ~addr (Bytes.make 9 'x'));
  check_fault "write_int" refused (fun () -> Machine.write_int m ~addr ~width:8 1L);
  check_fault "fill" refused (fun () -> Machine.fill m ~addr ~len:9 'x');
  check_fault "blit destination" refused (fun () ->
      Machine.blit m ~src:Machine.heap_base ~dst:addr ~len:9);
  Alcotest.(check int) "no frame materialized" 0 (Machine.resident_frames m);
  Alcotest.(check string) "still zero" (String.make 9 '\000')
    (Bytes.to_string (Machine.read m ~addr ~len:9))

let test_frame_fault_messages () =
  let m = Machine.create () in
  List.iter
    (fun addr ->
      check_fault (Printf.sprintf "unmapped 0x%x" addr) (unmapped addr) (fun () ->
          Machine.read_int m ~addr ~width:4))
    [ 0; Machine.svm_base - 1; Machine.svm_base + Machine.svm_size;
      Machine.heap_base - 1; Machine.user_base + Machine.user_size ];
  let top = Machine.heap_base + Machine.heap_size in
  check_fault "read straddles region end" (unmapped (top - 4)) (fun () ->
      Machine.read m ~addr:(top - 4) ~len:8);
  check_fault "write_int straddles region end" (unmapped (top - 4)) (fun () ->
      Machine.write_int m ~addr:(top - 4) ~width:8 0L);
  check_fault "blit source straddles" (unmapped (top - 4)) (fun () ->
      Machine.blit m ~src:(top - 4) ~dst:Machine.heap_base ~len:8);
  check_fault "negative length" (Machine.heap_base, "negative access length")
    (fun () -> Machine.read m ~addr:Machine.heap_base ~len:(-1));
  (* An empty or negative fill or blit does nothing, even unmapped. *)
  Machine.fill m ~addr:0 ~len:(-1) 'x';
  Machine.blit m ~src:0 ~dst:0 ~len:0;
  check_fault "bad width" (Machine.heap_base, "bad access width") (fun () ->
      Machine.read_int m ~addr:Machine.heap_base ~width:3);
  check_fault "bad width at region end" (top, "bad access width") (fun () ->
      Machine.write_int m ~addr:top ~width:0 0L);
  Alcotest.(check int) "empty read at region end" 0
    (Bytes.length (Machine.read m ~addr:top ~len:0));
  Alcotest.(check int) "no frame materialized" 0 (Machine.resident_frames m)

let test_frame_zero_reads () =
  let m = Machine.create () in
  List.iter
    (fun (base, size) ->
      List.iter
        (fun addr ->
          Alcotest.(check int64) (Printf.sprintf "0x%x" addr) 0L
            (Machine.read_int m ~addr ~width:8))
        [ base; base + page - 4; base + (size / 2); base + size - 8 ];
      Alcotest.(check bool) "three frames of zeros" true
        (Bytes.for_all (( = ) '\000')
           (Machine.read m ~addr:(base + 100) ~len:(min (size - 100) (3 * page)))))
    [ (Machine.bios_base, Machine.bios_size); (Machine.svm_base, Machine.svm_size);
      (Machine.globals_base, Machine.globals_size);
      (Machine.heap_base, Machine.heap_size); (Machine.stack_base, Machine.stack_size);
      (Machine.user_base, Machine.user_size) ];
  Alcotest.(check int) "reads share the zero frame" 0 (Machine.resident_frames m)

(* A store to one machine is never visible in a fresh one: no store path
   may write through the shared zero frame. *)
let test_frame_isolation () =
  let m = Machine.create () in
  let a = Machine.heap_base + page - 2 in
  Machine.write_int m ~addr:a ~width:4 (-1L);
  Machine.write m ~addr:(a + (2 * page)) (Bytes.make 10 'w');
  Machine.fill m ~addr:(a + (4 * page)) ~len:10 'f';
  Machine.blit m ~src:a ~dst:(a + (6 * page)) ~len:4;
  Machine.with_svm_mode m (fun () ->
      Machine.write_int m ~addr:Machine.svm_base ~width:8 (-1L));
  let fresh = Machine.create () in
  Alcotest.(check int) "fresh machine owns no frame" 0
    (Machine.resident_frames fresh);
  List.iter
    (fun addr ->
      Alcotest.(check string) (Printf.sprintf "0x%x zero in a fresh machine" addr)
        (String.make 10 '\000')
        (Bytes.to_string (Machine.read fresh ~addr ~len:10)))
    [ a; a + (2 * page); a + (4 * page); a + (6 * page); Machine.svm_base ]

(* Creating a machine costs its frame tables, not a fill of 122 MB. *)
let test_create_allocation () =
  ignore (Sys.opaque_identity (Machine.create ()));
  let a0 = Gc.allocated_bytes () in
  let m = Machine.create () in
  let a1 = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity m);
  Alcotest.(check bool)
    (Printf.sprintf "Machine.create allocates %.0f bytes (< 1 MB)" (a1 -. a0))
    true
    (a1 -. a0 < 1048576.)

(* Differential: random access sequences over windows that straddle
   frame boundaries, region edges and the SVM region agree with a dense
   byte model of the same windows, faults included. *)

type op =
  | Read of int * int
  | Write of int * string
  | Read_int of int * int
  | Write_int of int * int * int64
  | Fill of int * int * char
  | Blit of int * int * int

let show_op = function
  | Read (a, n) -> Printf.sprintf "read 0x%x %d" a n
  | Write (a, s) -> Printf.sprintf "write 0x%x [%d]" a (String.length s)
  | Read_int (a, w) -> Printf.sprintf "read_int 0x%x w%d" a w
  | Write_int (a, w, v) -> Printf.sprintf "write_int 0x%x w%d %Ld" a w v
  | Fill (a, n, c) -> Printf.sprintf "fill 0x%x %d %C" a n c
  | Blit (s, d, n) -> Printf.sprintf "blit 0x%x -> 0x%x %d" s d n

(* (window start, window end, mapped part, SVM-reserved).  The heap
   window's mapped part is the heap's first four frames; ops never reach
   past a window's end. *)
let windows =
  [| (Machine.heap_base - page, Machine.heap_base + (4 * page),
      (Machine.heap_base, Machine.heap_base + (4 * page)), false);
     (Machine.svm_base - page, Machine.svm_base + Machine.svm_size + page,
      (Machine.svm_base, Machine.svm_base + Machine.svm_size), true) |]

module Model = struct
  (* One dense buffer per window, indexed from the window start. *)
  type t = { mem : Bytes.t array; mutable svm : bool }

  let create () =
    { mem = Array.map (fun (lo, hi, _, _) -> Bytes.make (hi - lo) '\000') windows;
      svm = false }

  let find addr len =
    if len < 0 then raise (Machine.Hw_fault (addr, "negative access length"));
    let hit = ref None in
    Array.iteri
      (fun i (lo, _, (mlo, mhi), svm) ->
        if addr >= mlo && addr + len <= mhi then hit := Some (i, addr - lo, svm))
      windows;
    match !hit with
    | Some h -> h
    | None ->
        let a, m = unmapped addr in
        raise (Machine.Hw_fault (a, m))

  let store t addr len =
    let i, off, svm = find addr len in
    if svm && not t.svm then
      raise (Machine.Hw_fault (addr, "kernel store into SVM-reserved memory"));
    (t.mem.(i), off)

  let run t = function
    | Read (addr, len) ->
        let i, off, _ = find addr len in
        Bytes.sub_string t.mem.(i) off len
    | Write (addr, s) ->
        let b, off = store t addr (String.length s) in
        Bytes.blit_string s 0 b off (String.length s);
        ""
    | Read_int (addr, width) ->
        let i, off, _ = find addr width in
        if not (List.mem width [ 1; 2; 4; 8 ]) then
          raise (Machine.Hw_fault (addr, "bad access width"));
        let v = ref 0L in
        for k = width - 1 downto 0 do
          v := Int64.logor (Int64.shift_left !v 8)
                 (Int64.of_int (Char.code (Bytes.get t.mem.(i) (off + k))))
        done;
        Int64.to_string (sext width !v)
    | Write_int (addr, width, v) ->
        let b, off = store t addr width in
        if not (List.mem width [ 1; 2; 4; 8 ]) then
          raise (Machine.Hw_fault (addr, "bad access width"));
        Bytes.blit_string (le_bytes width v) 0 b off width;
        ""
    | Fill (addr, len, c) ->
        if len > 0 then begin
          let b, off = store t addr len in
          Bytes.fill b off len c
        end;
        ""
    | Blit (src, dst, len) ->
        if len > 0 then begin
          let i, soff, _ = find src len in
          let data = Bytes.sub t.mem.(i) soff len in
          let b, doff = store t dst len in
          Bytes.blit data 0 b doff len
        end;
        ""
end

let run_machine m = function
  | Read (addr, len) -> Bytes.to_string (Machine.read m ~addr ~len)
  | Write (addr, s) -> Machine.write m ~addr (Bytes.of_string s); ""
  | Read_int (addr, width) -> Int64.to_string (Machine.read_int m ~addr ~width)
  | Write_int (addr, width, v) -> Machine.write_int m ~addr ~width v; ""
  | Fill (addr, len, c) -> Machine.fill m ~addr ~len c; ""
  | Blit (src, dst, len) -> Machine.blit m ~src ~dst ~len; ""

let outcome f =
  match f () with
  | r -> Ok r
  | exception Machine.Hw_fault (a, msg) -> Error (a, msg)

let gen_op =
  let open QCheck2.Gen in
  (* Addresses cluster around frame and region edges. *)
  let gen_addr =
    let* lo, hi, _, _ = oneofa windows in
    let* a =
      oneof
        [ int_range lo (hi - 1);
          map2 (fun p d -> lo + (p * page) + d)
            (int_range 0 ((hi - lo) / page)) (int_range (-9) 9) ]
    in
    return (max lo (min (hi - 1) a), hi)
  in
  let gen_len = oneof [ int_range 0 16; int_range 0 (3 * page); int_range (-3) (-1) ] in
  (* Lengths are clipped to the window; negative ones are kept. *)
  let clip a hi n = if n > hi - a then hi - a else n in
  let gen_svm = frequency [ (3, return false); (1, return true) ] in
  let gen_width = oneofl [ 1; 2; 4; 8; 1; 2; 4; 8; 0; 3 ] in
  let op =
    oneof
      [ map2 (fun (a, hi) n -> Read (a, clip a hi n)) gen_addr gen_len;
        map3
          (fun (a, hi) n c -> Write (a, String.make (max 0 (clip a hi n)) c))
          gen_addr gen_len printable;
        map2 (fun (a, hi) w -> Read_int (a, clip a hi w)) gen_addr gen_width;
        map3 (fun (a, hi) w v -> Write_int (a, clip a hi w, v)) gen_addr gen_width int64;
        map3 (fun (a, hi) n c -> Fill (a, clip a hi n, c)) gen_addr gen_len printable;
        map3
          (fun (s, shi) (d, dhi) n -> Blit (s, d, clip s shi (clip d dhi n)))
          gen_addr gen_addr gen_len ]
  in
  pair gen_svm op

let prop_frames_match_dense_model =
  QCheck2.Test.make ~name:"frame memory agrees with a dense byte model" ~count:300
    ~print:(fun ops ->
      String.concat "; "
        (List.map (fun (svm, op) -> (if svm then "svm " else "") ^ show_op op) ops))
    QCheck2.Gen.(list_size (int_range 1 40) gen_op)
    (fun ops ->
      let m = Machine.create () and model = Model.create () in
      List.for_all
        (fun (svm, op) ->
          let got =
            outcome (fun () ->
                if svm then Machine.with_svm_mode m (fun () -> run_machine m op)
                else run_machine m op)
          in
          model.Model.svm <- svm;
          got = outcome (fun () -> Model.run model op))
        ops
      && Array.for_all2
           (fun (lo, _, (mlo, mhi), _) b ->
             Bytes.to_string (Machine.read m ~addr:mlo ~len:(mhi - mlo))
             = Bytes.sub_string b (mlo - lo) (mhi - mlo))
           windows model.Model.mem)

(* ---------- CPU state (Table 1) ---------- *)

let test_cpu_save_restore () =
  let m = Machine.create () in
  let cpu = Cpu.create () in
  Cpu.scramble cpu ~seed:7;
  let saved = Cpu.create () in
  saved.Cpu.gpr <- Array.copy cpu.Cpu.gpr;
  saved.Cpu.pc <- cpu.Cpu.pc;
  saved.Cpu.flags <- cpu.Cpu.flags;
  Cpu.save_integer cpu m ~addr:Machine.heap_base;
  Cpu.scramble cpu ~seed:99;
  Alcotest.(check bool) "scrambled differs" false (Cpu.equal_integer cpu saved);
  Cpu.load_integer cpu m ~addr:Machine.heap_base;
  Alcotest.(check bool) "restored" true (Cpu.equal_integer cpu saved)

let test_fp_lazy_save () =
  let m = Machine.create () in
  let cpu = Cpu.create () in
  cpu.Cpu.fp_dirty <- false;
  Alcotest.(check bool) "clean fp not saved" false
    (Cpu.save_fp cpu m ~addr:Machine.heap_base ~always:false);
  Alcotest.(check bool) "always saves" true
    (Cpu.save_fp cpu m ~addr:Machine.heap_base ~always:true);
  cpu.Cpu.fpr.(3) <- 2.5;
  cpu.Cpu.fp_dirty <- true;
  Alcotest.(check bool) "dirty fp saved" true
    (Cpu.save_fp cpu m ~addr:Machine.heap_base ~always:false);
  cpu.Cpu.fpr.(3) <- 0.0;
  Cpu.load_fp cpu m ~addr:Machine.heap_base;
  Alcotest.(check (float 0.0)) "fp restored" 2.5 cpu.Cpu.fpr.(3)

(* ---------- MMU ---------- *)

let test_mmu_translate () =
  let mmu = Mmu.create () in
  let sp = Mmu.new_space mmu in
  Mmu.activate mmu sp;
  let vpn = Machine.user_base / Machine.page_size in
  let ppn = vpn + 4 in
  Mmu.map_page sp ~vpn ~ppn ~prot:{ Mmu.p_read = true; p_write = false; p_user = true };
  let va = Machine.user_base + 12 in
  Alcotest.(check int) "translated" ((ppn * Machine.page_size) + 12)
    (Mmu.translate mmu ~addr:va ~write:false);
  (* kernel addresses pass through *)
  Alcotest.(check int) "kernel identity" Machine.heap_base
    (Mmu.translate mmu ~addr:Machine.heap_base ~write:true);
  (* write to read-only page *)
  (match Mmu.translate mmu ~addr:va ~write:true with
  | _ -> Alcotest.fail "write to RO page should fault"
  | exception Mmu.Mmu_fault _ -> ());
  (* unmapped page *)
  match Mmu.translate mmu ~addr:(va + Machine.page_size) ~write:false with
  | _ -> Alcotest.fail "unmapped page should fault"
  | exception Mmu.Mmu_fault _ -> ()

let test_mmu_svm_frame_refused () =
  let mmu = Mmu.create () in
  let sp = Mmu.new_space mmu in
  match
    Mmu.map_page sp
      ~vpn:(Machine.user_base / Machine.page_size)
      ~ppn:(Machine.svm_base / Machine.page_size)
      ~prot:{ Mmu.p_read = true; p_write = true; p_user = true }
  with
  | () -> Alcotest.fail "mapping an SVM frame must be refused"
  | exception Mmu.Mmu_fault _ -> ()

let test_mmu_clone () =
  let mmu = Mmu.create () in
  let sp = Mmu.new_space mmu in
  let vpn = Machine.user_base / Machine.page_size in
  for i = 0 to 9 do
    Mmu.map_page sp ~vpn:(vpn + i) ~ppn:(vpn + i)
      ~prot:{ Mmu.p_read = true; p_write = true; p_user = true }
  done;
  let copy = Mmu.clone_space mmu sp in
  Alcotest.(check int) "pages copied" 10 (Mmu.page_count copy);
  Mmu.unmap_page copy ~vpn;
  Alcotest.(check int) "copy mutated" 9 (Mmu.page_count copy);
  Alcotest.(check int) "original intact" 10 (Mmu.page_count sp)

(* ---------- devices ---------- *)

let test_disk () =
  let d = Devices.create () in
  let block = Bytes.make 512 'z' in
  Devices.disk_write d ~block:5 block;
  Alcotest.(check bytes) "roundtrip" block (Devices.disk_read d ~block:5);
  Bytes.set (Devices.disk_read d ~block:5) 0 'x';
  Alcotest.(check bytes) "reads are copies" block (Devices.disk_read d ~block:5);
  Devices.disk_write d ~block:5 (Bytes.of_string "ab");
  Alcotest.(check string) "short write keeps the tail" ("ab" ^ String.make 510 'z')
    (Bytes.to_string (Devices.disk_read d ~block:5));
  Devices.disk_write d ~block:6 (Bytes.of_string "cd");
  Alcotest.(check string) "short write to a fresh block" ("cd" ^ String.make 510 '\000')
    (Bytes.to_string (Devices.disk_read d ~block:6));
  List.iter
    (fun block ->
      Alcotest.(check bytes) (Printf.sprintf "never-written block %d is zero" block)
        (Bytes.make 512 '\000') (Devices.disk_read d ~block))
    [ 0; 4; 7; 4095 ];
  List.iter
    (fun block ->
      (match Devices.disk_read d ~block with
      | _ -> Alcotest.failf "oob read of block %d" block
      | exception Invalid_argument _ -> ());
      match Devices.disk_write d ~block (Bytes.make 512 'z') with
      | _ -> Alcotest.failf "oob write of block %d" block
      | exception Invalid_argument _ -> ())
    [ 999999; 4096; -1 ]

let test_nic_queues () =
  let d = Devices.create () in
  Devices.nic_inject d { Devices.fr_proto = 17; fr_payload = Bytes.of_string "a" };
  Devices.nic_inject d { Devices.fr_proto = 2; fr_payload = Bytes.of_string "b" };
  (match Devices.nic_recv d with
  | Some fr -> Alcotest.(check int) "fifo order" 17 fr.Devices.fr_proto
  | None -> Alcotest.fail "no frame");
  Devices.nic_send d { Devices.fr_proto = 17; fr_payload = Bytes.of_string "x" };
  Devices.nic_send d { Devices.fr_proto = 17; fr_payload = Bytes.of_string "y" };
  let tx = Devices.nic_take_tx d in
  Alcotest.(check int) "two sent" 2 (List.length tx);
  Alcotest.(check string) "oldest first" "x"
    (Bytes.to_string (List.hd tx).Devices.fr_payload);
  Alcotest.(check int) "drained" 0 (List.length (Devices.nic_take_tx d))

(* ---------- SVA-OS ---------- *)

let test_svaos_icontext_roundtrip () =
  let sys = Svaos.create () in
  Cpu.scramble sys.Svaos.cpu ~seed:3;
  let sp = Machine.stack_base + 1024 in
  let icp = Svaos.icontext_create sys ~sp ~was_privileged:true in
  Alcotest.(check bool) "privileged" true (Svaos.was_privileged sys ~icp);
  (* save the context as integer state, load it back *)
  let isp = Machine.stack_base + 8192 in
  Svaos.icontext_save sys ~icp ~isp;
  Svaos.icontext_load sys ~icp ~isp;
  Svaos.icontext_destroy sys ~icp;
  Alcotest.(check pass) "balanced" () ()

let test_svaos_icontext_tamper_detected () =
  let sys = Svaos.create () in
  let sp = Machine.stack_base + 1024 in
  let icp = Svaos.icontext_create sys ~sp ~was_privileged:false in
  (* the kernel scribbles over the integrity tag *)
  Machine.with_svm_mode sys.Svaos.machine (fun () ->
      Machine.write_int sys.Svaos.machine ~addr:icp ~width:8 0L);
  match Svaos.was_privileged sys ~icp with
  | _ -> Alcotest.fail "tampered icontext accepted"
  | exception Failure _ -> ()

let test_svaos_state_buffer_validated () =
  let sys = Svaos.create () in
  (* mediated mode refuses to spill processor state into userspace *)
  match Svaos.save_integer sys ~buffer:Machine.user_base with
  | _ -> Alcotest.fail "state spill into userspace accepted"
  | exception Failure _ -> ()

let test_svaos_ipush () =
  let sys = Svaos.create () in
  let icp =
    Svaos.icontext_create sys ~sp:(Machine.stack_base + 512) ~was_privileged:false
  in
  Alcotest.(check bool) "no pending" true (Svaos.ipush_pending sys ~icp = None);
  Svaos.ipush_function sys ~icp ~fn:0xB00040 ~arg:9L;
  (match Svaos.ipush_pending sys ~icp with
  | Some (fn, arg) ->
      Alcotest.(check int) "fn" 0xB00040 fn;
      Alcotest.(check int64) "arg" 9L arg
  | None -> Alcotest.fail "pending lost");
  Alcotest.(check bool) "consumed" true (Svaos.ipush_pending sys ~icp = None);
  Svaos.icontext_destroy sys ~icp

let test_svaos_modes () =
  let sys = Svaos.create ~mode:Svaos.Native_inline () in
  (* native mode skips buffer validation *)
  Svaos.save_integer sys ~buffer:(Machine.heap_base + 64);
  Svaos.set_mode sys Svaos.Sva_mediated;
  Svaos.save_integer sys ~buffer:(Machine.heap_base + 64);
  Alcotest.(check bool) "ops counted" true (sys.Svaos.ops_count >= 2)

let () =
  Alcotest.run "sva_hw"
    [
      ( "machine",
        [
          Alcotest.test_case "read/write" `Quick test_machine_rw;
          Alcotest.test_case "unmapped faults" `Quick test_machine_fault_unmapped;
          Alcotest.test_case "region straddle" `Quick test_machine_region_straddle;
          Alcotest.test_case "SVM region protected" `Quick test_svm_region_protected;
          Alcotest.test_case "blit/fill" `Quick test_blit_and_fill;
        ] );
      ( "frames",
        [
          Alcotest.test_case "frame-straddling read_int/write_int" `Quick
            test_frame_straddle_int;
          Alcotest.test_case "read/write/fill over 3+ frames" `Quick
            test_frame_multi_span;
          Alcotest.test_case "overlapping blit" `Quick test_frame_blit_overlap;
          Alcotest.test_case "SVM store refusal" `Quick test_frame_svm_refusal;
          Alcotest.test_case "fault messages" `Quick test_frame_fault_messages;
          Alcotest.test_case "untouched pages read zero" `Quick
            test_frame_zero_reads;
          Alcotest.test_case "machines isolated" `Quick test_frame_isolation;
          Alcotest.test_case "create allocates < 1 MB" `Quick
            test_create_allocation;
          QCheck_alcotest.to_alcotest prop_frames_match_dense_model;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "integer save/restore" `Quick test_cpu_save_restore;
          Alcotest.test_case "lazy FP save" `Quick test_fp_lazy_save;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "translate" `Quick test_mmu_translate;
          Alcotest.test_case "SVM frame refused" `Quick test_mmu_svm_frame_refused;
          Alcotest.test_case "clone" `Quick test_mmu_clone;
        ] );
      ( "devices",
        [
          Alcotest.test_case "disk" `Quick test_disk;
          Alcotest.test_case "nic queues" `Quick test_nic_queues;
        ] );
      ( "svaos",
        [
          Alcotest.test_case "icontext roundtrip" `Quick test_svaos_icontext_roundtrip;
          Alcotest.test_case "icontext tamper" `Quick test_svaos_icontext_tamper_detected;
          Alcotest.test_case "state buffer validated" `Quick
            test_svaos_state_buffer_validated;
          Alcotest.test_case "ipush" `Quick test_svaos_ipush;
          Alcotest.test_case "modes" `Quick test_svaos_modes;
        ] );
    ]
