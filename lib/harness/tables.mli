(** Experiment runners: one function per table/figure of the paper's
    evaluation (Section 7), each returning a formatted report that shows
    the paper's numbers next to the measured ones.

    Absolute times differ (the substrate is a simulator, not an 800MHz
    Pentium III), so every performance table reports {e relative
    overheads} — the quantity the paper itself reports — and the
    accompanying note says what shape property to look for. *)

val table4 : unit -> string
(** Lines modified porting the kernel (per section, by marker class). *)

val table5 : ?quick:bool -> unit -> string
(** Application latency overheads across the four kernels. *)

val table6 : ?quick:bool -> unit -> string
(** thttpd bandwidth reduction. *)

val table7 : ?quick:bool -> unit -> string
(** Raw kernel operation latency overheads. *)

val table8 : ?quick:bool -> unit -> string
(** File/pipe bandwidth reduction. *)

val table9 : unit -> string
(** Static metrics of the safety-checking compiler, "as tested" vs
    "entire kernel". *)

val exploits_table : unit -> string
(** The Section 7.2 exploit experiment. *)

val verifier_experiment : unit -> string
(** The Section 5 bug-injection experiment, run on the full kernel. *)

val figure2 : unit -> string
(** The Figure 2 reproduction: the instrumented [fib_create_info] with
    its points-to partitions. *)

val check_summary : unit -> string
(** Static check-insertion statistics for the kernel (supporting data for
    Table 9 and the Section 7.1.3 optimization discussion). *)

val ablation : ?quick:bool -> unit -> string
(** The optimizations the paper proposes or uses, measured as ablations on
    the checked kernel: the Section 7.1.3 check optimizations
    (static bounds proofs, redundant-check elimination, monotonic-loop
    hoisting), TH load/store elision, and the Section 4.8 cloning +
    devirtualization transforms. *)

val fastpath : ?quick:bool -> ?strict:bool -> unit -> string
(** The fast-path experiment: the Table 7 syscall mix under SVA-Safe with
    the per-metapool object-lookup cache off and on — splay comparisons
    per op, model cycles per op and cache hit rate.  Verifies the cache is
    semantically invisible (same check counts), cuts splay comparisons by
    at least 2x and never costs model cycles; with [strict] a failed
    criterion raises instead of being reported in the output (the
    [@bench-smoke] regression gate). *)

val smp : ?quick:bool -> ?strict:bool -> unit -> string
(** The simulated-SMP scaling experiment: identical parallel syscall-mix
    jobs scheduled over 1, 2 and 4 modeled CPUs by the deterministic
    work-stealing scheduler ({!Ukern.Boot.run_smp}).  Verifies that the
    1-CPU schedule is bit-identical to calling the jobs in sequence,
    that aggregate check counts are identical at every CPU count, that a
    same-seed rerun reproduces the 4-CPU schedule exactly, and that the
    modeled 4-CPU speedup clears the scaling floor (3x); with [strict] a
    failed criterion raises instead of being reported in the output (the
    [@bench-smoke] regression gate). *)

val trace : ?quick:bool -> ?strict:bool -> unit -> string
(** The observability experiment: the Table 7 syscall mix under SVA-Safe
    with the event trace + cycle-attribution profiler off, then on.
    Verifies the layer is semantically invisible — modeled cycles and
    check counts bit-identical — that events were actually recorded, and
    that the profiler attributes at least 95% of modeled cycles to
    syscall scopes.  Reports the event summary, top-10 hot syscalls and
    functions, and per-metapool metrics; with [strict] a failed
    criterion raises instead of being reported in the output (the
    [@bench-smoke] regression gate). *)

(** {1 Structured data + machine-readable output}

    The sections consumed by [bench --json] expose their measurements as
    data; the rendered tables and the JSON payload are two views of the
    same (memoized) numbers. *)

type t7_row = {
  t7_op : string;
  t7_native_cycles : float;
  t7_overheads : (string * float * float) list;
      (** configuration name, measured overhead %, paper overhead % *)
}

val table7_data : ?quick:bool -> unit -> t7_row list

type fastpath_data = {
  fp_cmp_off : float;
  fp_cmp_on : float;
  fp_cycles_off : float;
  fp_cycles_on : float;
  fp_checks_off : int;
  fp_checks_on : int;
  fp_hit_rate : float;
  fp_reduction : float;
}

val fastpath_data : ?quick:bool -> unit -> fastpath_data

type smp_point = {
  sp_cpus : int;
  sp_makespan : int;
  sp_total : int;
  sp_speedup : float;
  sp_steals : int;
  sp_ipis_sent : int;
  sp_ipis_delivered : int;
  sp_checks : int;
}

type smp_data = {
  sd_seed : int;
  sd_jobs : int;
  sd_points : smp_point list;
  sd_seq_cycles : int;
  sd_seq_checks : int;
  sd_seq_identical : bool;
  sd_rerun_identical : bool;
}

val smp_data : ?quick:bool -> unit -> smp_data

type aot_data = {
  ad_cycles_interp : float;
  ad_steps_interp : float;
  ad_checks_interp : int;
  ad_ns_interp : float;
  ad_cycles_aot : float;
  ad_steps_aot : float;
  ad_checks_aot : int;
  ad_ns_aot : float;
  ad_speedup : float;  (** host speedup over the interpreter *)
  ad_boot_cold_ns : float;  (** instantiate + compile_all, empty store *)
  ad_boot_warm_ns : float;  (** same, against the populated store *)
  ad_promotions : int;  (** functions AOT-compiled per boot *)
  ad_disk_writes_cold : int;
  ad_disk_hits_warm : int;
  ad_disk_stale_warm : int;
  ad_misses_warm : int;  (** re-translations in the warm boot (want 0) *)
}

val aot_data : ?quick:bool -> unit -> aot_data
(** Measure the Table 7 mix on an interpreter kernel, then boot the AOT
    kernel twice through one persistent translation store
    (cold then warm, with the in-memory cache cleared between boots to
    simulate a second process), then measure the Table 7 mix on the warm
    VM.  Cached per [quick]. *)

val aot : ?quick:bool -> ?strict:bool -> unit -> string
(** The AOT-engine section: interpreter vs whole-kernel AOT against a
    warm persistent cache.  Modeled cycle/step/check identity
    with the interpreter and warm-boot disk-cache behavior (>= 1 disk
    hit, zero re-translations) are hard gates; the warm-cache host
    speedup floor is enforced only under [strict]. *)

type trace_data = {
  tr_reps : int;
  tr_cycles_off : int;
  tr_cycles_on : int;
  tr_checks_off : int;
  tr_checks_on : int;
  tr_emitted : int;
  tr_retained : int;
  tr_dropped : int;
  tr_counts : (string * int) list;
  tr_attr_pct : float;
  tr_fn_rows : Sva_rt.Trace.prow list;
  tr_sys_rows : Sva_rt.Trace.prow list;
  tr_pools : Sva_rt.Metapool_rt.metrics list;
  tr_chrome : Jsonout.t;
}

val trace_data : ?quick:bool -> unit -> trace_data
(** Run the trace experiment (cached per [quick]): one observability-off
    and one observability-on pass over the same workload, plus the
    recorded trace (as a Chrome trace-event document), profiler reports
    and per-metapool metrics from the on pass. *)

type lint_data = {
  ld_counts : (string * int) list;
  ld_findings : int;
  ld_proofs : int;
  ld_funcs : int;
  ld_iterations : int;
  ld_ls_inserted_base : int;
  ld_ls_inserted_lint : int;
  ld_ls_proved_static : int;
}

val lint_data : unit -> lint_data
(** Lint the embedded kernel ([~lint:true] build, cached) and pair the
    result with the lint-off build's check counts. *)

val lint_table : unit -> string
(** The static-lint section: findings per checker (all zero on the
    shipped kernel), prover statistics, and the load/store check
    reduction the proofs buy. *)

type ranges_data = {
  rd_ls_off : int;
  rd_ls_on : int;
  rd_ls_range_geps : int;
  rd_bounds_off : int;
  rd_bounds_on : int;
  rd_bounds_cert : int;
  rd_certs_bounds : int;
  rd_certs_ls : int;
  rd_facts : int;
  rd_iterations : int;
}

val ranges_data : unit -> ranges_data
(** Build the entire kernel (lint on) with and without the value-range
    analysis and compare the static check counts.  The ranges-on build
    runs the trusted certificate checker as a gate, so a successful pair
    implies every elision certificate re-verified. *)

val ranges_table : unit -> string
(** The value-range elision section: check counts with ranges off/on,
    certificate counts, and the exported fact total. *)

type race_data = {
  rc_counts : (string * int) list;
  rc_shared : int;
  rc_accesses : int;
  rc_certs : int;
  rc_fact_claims : int;
  rc_cert_errors : int;
  rc_lock_edges : int;
  rc_funcs : int;
  rc_iterations : int;
  rc_fixture_findings : int;
  rc_fixture_match : bool;
  rc_injected : int;
  rc_caught : int;
  rc_conc : Sva_rt.Stats.conc_snapshot;
}

val race_data : unit -> race_data
(** Run the concurrency-safety experiment (cached): audit the shipped
    kernel through the [~races:true] pipeline gate, analyze the
    seeded-bug fixture standalone and compare against its ground truth,
    run the atomicity-certificate bug-injection experiment, and execute
    a lock-heavy workload slice to snapshot the runtime cli/sti and
    spinlock counters. *)

val race_table : ?strict:bool -> unit -> string
(** The concurrency section: findings per checker (all zero on the
    shipped kernel), certificate statistics, fixture exact-match,
    injection coverage and the runtime conc counters.  Ends in a
    PASS/FAIL verdict line; with [~strict:true] any failure raises. *)

type poolcert_data = {
  pc_th : int;
  pc_comp : int;
  pc_complete : int;
  pc_dv : int;
  pc_el_th : int;
  pc_el_reduced : int;
  pc_el_func : int;
  pc_cert_errors : int;
  pc_summary_match : bool;
  pc_boot_cycles_off : int;
  pc_boot_cycles_on : int;
  pc_cycles_off : int;
  pc_cycles_on : int;
  pc_checks_match : bool;
  pc_checks : int;
  pc_injected : int;
  pc_caught : int;
}

val poolcert_data : unit -> poolcert_data
(** Run the pool-safety certification experiment (cached): build the
    shipped kernel with and without [~poolcert:true] (the gated build
    fails outright on any trusted-checker rejection), compare the
    instrumentation summaries, boot both images and run an identical
    workload to confirm cycle/check bit-identity, and run the
    pool-certificate bug-injection experiment. *)

val poolcert_table : ?strict:bool -> unit -> string
(** The pool-safety certification section: certificate and elision
    counts, the clean-kernel checker verdict, the on/off bit-identity
    comparison and injection coverage.  Ends in a PASS/FAIL verdict
    line; with [~strict:true] any failure raises. *)

val fastpath_json : ?quick:bool -> unit -> Jsonout.t
val smp_json : ?quick:bool -> unit -> Jsonout.t
val aot_json : ?quick:bool -> unit -> Jsonout.t
val trace_json : ?quick:bool -> unit -> Jsonout.t
val table7_json : ?quick:bool -> unit -> Jsonout.t
val lint_json : unit -> Jsonout.t
val ranges_json : unit -> Jsonout.t
val race_json : unit -> Jsonout.t
val poolcert_json : unit -> Jsonout.t
