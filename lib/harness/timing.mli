(** Wall-clock measurement for the performance tables.

    Each measurement runs the operation in batches and reports the median
    batch, which is robust against GC pauses and scheduler noise — the
    same role HBench-OS's 50-iteration design plays in the paper
    (Section 7.1.2).  Time is read from the monotonic clock (the same
    one [perfbench] and the Bechamel section use), so a wall-clock
    adjustment cannot land inside a batch. *)

val now : unit -> float
(** Seconds on the host's monotonic clock; only differences mean
    anything. *)

type sample = {
  s_per_op_ns : float;  (** median seconds-per-operation, in nanoseconds *)
  s_batches : int;
  s_reps : int;
}

val measure : ?batches:int -> ?reps:int -> (unit -> unit) -> sample
(** [measure f] — run [f] [reps] times per batch, [batches] times; the
    per-op time of the median batch is reported. *)

val overhead_pct : baseline:sample -> sample -> float
(** Percentage increase over [baseline] (the paper's
    [100 * (T - Tnative) / Tnative]). *)

val bandwidth_mb_s : bytes_per_op:int -> sample -> float
