(* The kernel operations the benchmark issues, driven from "userspace"
   through Ukern.Boot's public trap path.

   They mirror Harness.Workloads (the Table 7 latency ops, the Table 8
   bandwidth ops and the thttpd request), but every syscall result is
   checked and every byte that goes through a file, pipe or socket is
   compared with what was written.  A wrong result raises [Bad]; the
   caller counts the operation as failed.  Each syscall runs under a
   span named after it when the traced run records spans. *)

module Boot = Ukern.Boot

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* syscall numbers (lib/ukern/ksrc_init.ml) *)
let sys_getpid = 1
let sys_getrusage = 2
let sys_gettimeofday = 3
let sys_open = 4
let sys_close = 5
let sys_read = 6
let sys_write = 7
let sys_pipe = 8
let sys_fork = 9
let sys_execve = 10
let sys_sbrk = 11
let sys_sigaction = 12
let sys_socket = 14
let sys_bind = 15
let sys_sendto = 16
let sys_recvfrom = 17
let sys_lseek = 20
let sys_netpoll = 22

let span_names =
  let a = Array.make 33 "ukern.syscall" in
  List.iter
    (fun (n, s) -> a.(n) <- "ukern.syscall." ^ s)
    [
      (sys_getpid, "getpid"); (sys_getrusage, "getrusage");
      (sys_gettimeofday, "gettimeofday"); (sys_open, "open");
      (sys_close, "close"); (sys_read, "read"); (sys_write, "write");
      (sys_pipe, "pipe"); (sys_fork, "fork"); (sys_execve, "execve");
      (sys_sbrk, "sbrk"); (sys_sigaction, "sigaction");
      (sys_socket, "socket"); (sys_bind, "bind"); (sys_sendto, "sendto");
      (sys_recvfrom, "recvfrom"); (sys_lseek, "lseek");
      (sys_netpoll, "netpoll");
    ];
  a

let sc t num args =
  if !Span.on then Span.within span_names.(num) (fun () -> Boot.syscall t num args)
  else Boot.syscall t num args

(* [expect t what num args want]: the syscall must return exactly [want]. *)
let expect t what num args want =
  let r = sc t num args in
  if r <> want then bad "%s returned %Ld, expected %Ld" what r want

let nonneg t what num args =
  let r = sc t num args in
  if Int64.compare r 0L < 0 then bad "%s failed (%Ld)" what r;
  r

(* user memory layout (offsets into the init task's 256KB user window) *)
let off_path = 0
let off_small = 512
let off_pipe_src = 1024
let off_pipe_dst = 1040
let off_req = 2048
let off_fds = 2560
let off_msg = 4096
let off_msg_dst = 8192
let off_file = 65536 (* 128KB file read lands in [64K, 192K) *)
let off_stream_src = 196608
let off_stream_dst = 200704
let off_http = 204800

let uaddr t off = Boot.user_addr t off

let open_file t name =
  Boot.write_user t off_path (name ^ "\000");
  sc t sys_open [ uaddr t off_path; 1L ]

(* Write [data] at the fd's position, 2KB per syscall. *)
let write_all t fd data =
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    let chunk = min 2048 (len - !pos) in
    Boot.write_user t off_msg (String.sub data !pos chunk);
    expect t "write" sys_write
      [ fd; uaddr t off_msg; Int64.of_int chunk ]
      (Int64.of_int chunk);
    pos := !pos + chunk
  done

let pipe_fds t =
  expect t "pipe" sys_pipe [ uaddr t off_fds ] 0L;
  let fds = Boot.read_user t off_fds 8 in
  (Int64.of_int (Char.code fds.[0]), Int64.of_int (Char.code fds.[4]))

let seeded_bytes rng n =
  String.init n (fun _ -> Char.chr (0x20 + Random.State.int rng 95))

(* ---------- a booted, prepared kernel ---------- *)

let data_file_bytes = 128 * 1024
let stream_bytes = 2048
let http_port = 80
let www_bytes = 85 * 1024

type ctx = {
  t : Boot.t;
  pid : int64;
  brk : int64;
  scratch_fd : int64;
  pipe_r : int64;
  pipe_w : int64;
  data_fd : int64;
  http_sd : int64;
  data : string;  (** content of the 128KB data file *)
  stream : string;  (** the 2KB pipe-stream payload *)
  www : string;  (** content of the 85KB web page *)
  mutable pipe_byte : int;
}

(* Scratch file and pipe for the latency ops; with [~bulk], also the
   128KB data file, the pipe-stream source buffer, the web page and the
   bound server socket.  All content comes from [seed]. *)
let prepare ~seed ~bulk t =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let pid = nonneg t "getpid" sys_getpid [] in
  let brk = nonneg t "sbrk" sys_sbrk [ 0L ] in
  let scratch_fd = open_file t "bench.scratch" in
  if Int64.compare scratch_fd 0L < 0 then bad "open scratch failed";
  let pipe_r, pipe_w = pipe_fds t in
  let data, stream, www, data_fd, http_sd =
    if not bulk then ("", "", "", -1L, -1L)
    else begin
      let data = seeded_bytes rng data_file_bytes in
      let data_fd = open_file t "bench.data" in
      if Int64.compare data_fd 0L < 0 then bad "open data failed";
      write_all t data_fd data;
      let stream = seeded_bytes rng stream_bytes in
      Boot.write_user t off_stream_src stream;
      let www = seeded_bytes rng www_bytes in
      let fd = open_file t "www.85k" in
      if Int64.compare fd 0L < 0 then bad "open www failed";
      write_all t fd www;
      expect t "close www" sys_close [ fd ] 0L;
      let sd = nonneg t "socket" sys_socket [ 17L ] in
      expect t "bind" sys_bind [ sd; Int64.of_int http_port ] 0L;
      (data, stream, www, data_fd, sd)
    end
  in
  {
    t; pid; brk; scratch_fd; pipe_r; pipe_w; data_fd; http_sd; data; stream;
    www; pipe_byte = 0;
  }

(* ---------- Table 7 latency ops (syscall-mix) ---------- *)

let op_getpid c = expect c.t "getpid" sys_getpid [] c.pid

let op_getrusage c =
  expect c.t "getrusage" sys_getrusage [ uaddr c.t off_small ] 0L

let op_gettimeofday c =
  expect c.t "gettimeofday" sys_gettimeofday [ uaddr c.t off_small ] 0L

let op_open_close c =
  let fd = open_file c.t "bench.scratch" in
  if Int64.compare fd 0L < 0 then bad "open failed (%Ld)" fd;
  expect c.t "close" sys_close [ fd ] 0L

let op_sbrk c = expect c.t "sbrk" sys_sbrk [ 0L ] c.brk
let op_sigaction c = expect c.t "sigaction" sys_sigaction [ 5L; 0x1234L ] 0L

let op_write c =
  expect c.t "lseek" sys_lseek [ c.scratch_fd; 0L; 0L ] 0L;
  expect c.t "write" sys_write [ c.scratch_fd; uaddr c.t off_small; 1L ] 1L

(* One byte through the pipe; the byte changes every call, so a stale
   read cannot pass. *)
let op_pipe c =
  c.pipe_byte <- (c.pipe_byte + 1) land 0xff;
  let b = String.make 1 (Char.chr c.pipe_byte) in
  Boot.write_user c.t off_pipe_src b;
  expect c.t "pipe write" sys_write [ c.pipe_w; uaddr c.t off_pipe_src; 1L ] 1L;
  expect c.t "pipe read" sys_read [ c.pipe_r; uaddr c.t off_pipe_dst; 1L ] 1L;
  if Boot.read_user c.t off_pipe_dst 1 <> b then bad "pipe returned a wrong byte"

let op_fork c =
  let r = sc c.t sys_fork [] in
  if Int64.compare r c.pid <= 0 then bad "fork returned %Ld" r

let latency_ops =
  [|
    ("getpid", op_getpid); ("getrusage", op_getrusage);
    ("gettimeofday", op_gettimeofday); ("open_close", op_open_close);
    ("sbrk", op_sbrk); ("sigaction", op_sigaction); ("write", op_write);
    ("pipe", op_pipe); ("fork", op_fork);
  |]

(* ---------- Table 8 bandwidth ops and the thttpd request (bulk-io) ---------- *)

(* The data file in 8KB reads; the chunks land side by side so the whole
   file can be compared once the reads are done. *)
let op_file_read c =
  expect c.t "lseek" sys_lseek [ c.data_fd; 0L; 0L ] 0L;
  let chunk = 8192 in
  for i = 0 to (data_file_bytes / chunk) - 1 do
    expect c.t "read" sys_read
      [ c.data_fd; uaddr c.t (off_file + (i * chunk)); Int64.of_int chunk ]
      (Int64.of_int chunk)
  done

let check_file_read c =
  if Boot.read_user c.t off_file data_file_bytes <> c.data then
    bad "file read returned wrong data"

let op_pipe_stream c =
  let n = Int64.of_int stream_bytes in
  expect c.t "pipe write" sys_write [ c.pipe_w; uaddr c.t off_stream_src; n ] n;
  expect c.t "pipe read" sys_read [ c.pipe_r; uaddr c.t off_stream_dst; n ] n

let check_pipe_stream c =
  if Boot.read_user c.t off_stream_dst stream_bytes <> c.stream then
    bad "pipe stream returned wrong data"

(* One thttpd-style request for the 85KB page: the client frame goes in
   on the NIC, the "server" polls, receives, reads the file in 4KB
   chunks and transmits it in MTU-sized datagrams.  Returns the frames
   the client received. *)
let op_http c =
  let t = c.t in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 (Int32.of_int http_port);
  let req = "GET www.85k" in
  Boot.inject_frame t ~proto:17 (Bytes.to_string hdr ^ req);
  ignore (nonneg t "netpoll" sys_netpoll []);
  expect t "recvfrom" sys_recvfrom
    [ c.http_sd; uaddr t off_req; 256L ]
    (Int64.of_int (String.length req));
  if Boot.read_user t off_req (String.length req) <> req then
    bad "recvfrom returned a wrong request";
  let fd = open_file t "www.85k" in
  if Int64.compare fd 0L < 0 then bad "open www.85k failed (%Ld)" fd;
  let rec pump () =
    let n = Int64.to_int (sc t sys_read [ fd; uaddr t off_http; 4096L ]) in
    if n < 0 then bad "read www.85k failed (%d)" n;
    if n > 0 then begin
      let sent = ref 0 in
      while !sent < n do
        let chunk = min 1400 (n - !sent) in
        expect t "sendto" sys_sendto
          [ c.http_sd; uaddr t (off_http + !sent); Int64.of_int chunk; 9999L ]
          (Int64.of_int chunk);
        sent := !sent + chunk
      done;
      pump ()
    end
  in
  pump ();
  expect t "close" sys_close [ fd ] 0L;
  Boot.sent_frames t

(* Every datagram carries a 4-byte port header; the payloads, in order,
   must be the page. *)
let check_http c frames =
  let b = Buffer.create www_bytes in
  List.iter
    (fun (proto, p) ->
      if proto <> 17 || String.length p < 4 then bad "malformed frame";
      Buffer.add_string b (String.sub p 4 (String.length p - 4)))
    frames;
  if Buffer.contents b <> c.www then bad "served page differs from the file"

(* ---------- a fresh VM's smoke script (vm-churn, kernel-build) ---------- *)

let exec_image =
  (* UKEX header: magic, entry_vpn = 8, npages = 1, dump_len = 0 *)
  let b = Bytes.create 16 in
  Bytes.set_int32_le b 0 0x554b4558l;
  Bytes.set_int32_le b 4 8l;
  Bytes.set_int32_le b 8 1l;
  Bytes.set_int32_le b 12 0l;
  Bytes.to_string b ^ String.make 256 '\x90'

(* File, pipe and socket round trips with [msg] (at most 64 bytes), a
   fork, then fork+exec.  exec replaces the calling task's image, so it
   must be the last thing done on this VM. *)
let smoke t msg =
  let len = Int64.of_int (String.length msg) in
  let pid = nonneg t "getpid" sys_getpid [] in
  (* file *)
  let fd = open_file t "churn.txt" in
  if Int64.compare fd 0L < 0 then bad "open churn.txt failed (%Ld)" fd;
  Boot.write_user t off_msg msg;
  expect t "write" sys_write [ fd; uaddr t off_msg; len ] len;
  expect t "lseek" sys_lseek [ fd; 0L; 0L ] 0L;
  expect t "read" sys_read [ fd; uaddr t off_msg_dst; 64L ] len;
  if Boot.read_user t off_msg_dst (String.length msg) <> msg then
    bad "file round trip returned wrong data";
  expect t "close" sys_close [ fd ] 0L;
  (* pipe *)
  let r, w = pipe_fds t in
  expect t "pipe write" sys_write [ w; uaddr t off_msg; len ] len;
  expect t "pipe read" sys_read [ r; uaddr t (off_msg_dst + 128); len ] len;
  if Boot.read_user t (off_msg_dst + 128) (String.length msg) <> msg then
    bad "pipe round trip returned wrong data";
  (* socket *)
  let sd = nonneg t "socket" sys_socket [ 17L ] in
  expect t "bind" sys_bind [ sd; 4242L ] 0L;
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 4242l;
  Boot.inject_frame t ~proto:17 (Bytes.to_string hdr ^ msg);
  ignore (nonneg t "netpoll" sys_netpoll []);
  expect t "recvfrom" sys_recvfrom [ sd; uaddr t (off_msg_dst + 256); 64L ] len;
  if Boot.read_user t (off_msg_dst + 256) (String.length msg) <> msg then
    bad "socket round trip returned wrong data";
  (* fork, then fork+exec *)
  let child = sc t sys_fork [] in
  if Int64.compare child pid <= 0 then bad "fork returned %Ld" child;
  let fd = open_file t "binimg" in
  if Int64.compare fd 0L < 0 then bad "open binimg failed (%Ld)" fd;
  write_all t fd exec_image;
  expect t "close" sys_close [ fd ] 0L;
  let child2 = sc t sys_fork [] in
  if Int64.compare child2 child <= 0 then bad "fork returned %Ld" child2;
  Boot.write_user t off_path "binimg\000";
  expect t "execve" sys_execve [ uaddr t off_path ] 0L
