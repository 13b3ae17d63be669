(* In-memory span recorder for the traced run.

   A span brackets one call the benchmark makes into a layer of the
   system.  Spans nest through an explicit parent stack (the benchmark is
   single-threaded), spans of one operation share an op id, and nothing
   is written until [write] runs at the end of the benchmark, so file
   output never lands inside a measured interval.  When recording is off
   [within] is a single branch plus the call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;  (** 0 for a root span *)
  sp_op : int;  (** 0 outside any operation *)
  sp_start : int;
  mutable sp_end : int;
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 1
let parents : int list ref = ref []
let current_op = ref 0
let next_op = ref 1

let open_span name =
  let s =
    {
      sp_id = !next_id;
      sp_name = name;
      sp_parent = (match !parents with p :: _ -> p | [] -> 0);
      sp_op = !current_op;
      sp_start = now_ns ();
      sp_end = 0;
    }
  in
  incr next_id;
  parents := s.sp_id :: !parents;
  s

let close_span s =
  s.sp_end <- now_ns ();
  (match !parents with _ :: rest -> parents := rest | [] -> ());
  recorded := s :: !recorded

let within name f =
  if not !on then f ()
  else begin
    let s = open_span name in
    Fun.protect ~finally:(fun () -> close_span s) f
  end

(* A root span for one benchmark operation: every span opened inside it
   carries the operation's id. *)
let op name f =
  if not !on then f ()
  else begin
    let saved = !current_op in
    current_op := !next_op;
    incr next_op;
    Fun.protect ~finally:(fun () -> current_op := saved) (fun () -> within name f)
  end

let spans () = List.rev !recorded

(* Self time of every span name: a span's duration minus the part its
   direct children cover (children never overlap on one thread).
   Returns (name, count, total_ns, self_ns), largest self time first. *)
let self_times () =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.sp_parent <> 0 then
        let d = s.sp_end - s.sp_start in
        Hashtbl.replace child_ns s.sp_parent
          (d + Option.value (Hashtbl.find_opt child_ns s.sp_parent) ~default:0))
    !recorded;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.sp_end - s.sp_start in
      let self = d - Option.value (Hashtbl.find_opt child_ns s.sp_id) ~default:0 in
      let n, tot, slf =
        Option.value (Hashtbl.find_opt by_name s.sp_name) ~default:(0, 0, 0)
      in
      Hashtbl.replace by_name s.sp_name (n + 1, tot + d, slf + self))
    !recorded;
  Hashtbl.fold (fun name (n, tot, slf) acc -> (name, n, tot, slf) :: acc) by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON ("X" complete events, microseconds), with the
   span id, parent and op id as event arguments. *)
let write path =
  let all = spans () in
  let t0 = List.fold_left (fun m s -> min m s.sp_start) max_int all in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}\n"
            (if i = 0 then "" else ",")
            (json_string s.sp_name)
            (float_of_int (s.sp_start - t0) /. 1e3)
            (float_of_int (s.sp_end - s.sp_start) /. 1e3)
            s.sp_id s.sp_parent s.sp_op)
        all;
      output_string oc "]}\n")
