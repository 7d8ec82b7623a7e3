(** Common shape of the eleven evaluated kernels (Table 4).

    Each workload bundles a mini-PTX kernel, its launch geometry,
    deterministic input data, the output buffer to score and the quality
    metric — everything {!Gpr_core} needs to run the paper's pipeline
    end to end. *)

open Gpr_isa.Types

type output_spec =
  | Out_floats of string            (** buffer scored with the workload metric *)
  | Out_image of string * int * int (** buffer rendered as [w]×[h], scored with SSIM *)
  | Out_ints of string              (** buffer compared exactly (binary metric) *)

type t = {
  name : string;
  group : int;  (** 1 = graphics, 2 = Rodinia, 3 = Hybridsort (Table 4) *)
  metric : Gpr_quality.Quality.metric;
  kernel : kernel;
  launch : launch;
  params : Gpr_exec.Exec.pvalue array;
  data : unit -> (string * Gpr_exec.Exec.storage) list;
      (** Fresh, deterministic input and output arrays on every call:
          the caller owns them and may write into them.  For the
          registry's workloads ({!share_inputs}) they are copies of
          inputs generated once per process. *)
  shared : (string * int) list;  (** shared buffer sizes, elements *)
  extra_shared_bytes : int;
      (** shared memory the real kernel allocates beyond the modelled
          buffers (affects occupancy only) *)
  output : output_spec;
  paper_regs : int;        (** Table 4 "Register usage per thread" *)
}

val share_inputs : t -> t
(** The same workload with [data] generating its inputs once, on the
    first call from any domain, and returning fresh copies of them on
    every call.  That first call also computes {!inputs_digest} once.
    Safe to call from several domains at once.  Each call adds an entry
    to a process-wide table that is never freed: meant for long-lived
    workloads such as the registry's. *)

val inputs_digest : t -> Digest.t
(** MD5 of the [Marshal] of the freshly generated inputs, the input
    part of {!Gpr_engine.Fingerprint.workload}.  For a workload whose
    [data] is the closure {!share_inputs} built, it is the digest that
    closure computed once; for any other [data] it is recomputed from a
    [data ()] call every time.  So a [{ w with data = g }] copy gets
    [g]'s own digest, while [{ w with kernel = k }] keeps the memo
    (same inputs; the kernel text enters the fingerprint separately). *)

val warps_per_block : t -> int
val shared_bytes_per_block : t -> int

val buffer_len : t -> string -> int option
(** Element count of each bound buffer, by name (shared sizes, then
    the input data): the buffer-length oracle handed to
    {!Gpr_lint.Lint}.  A shared workload's lengths are read from its
    kept inputs; any other generates its data once per partial
    application. *)

val reference : t -> float array
(** Run at full precision and return the output buffer as floats
    (ints are converted) — the "original output" of Sec. 5.3.  A float
    output is the run's own buffer from [data], not a copy. *)

val run_quantized : t -> quantize:Gpr_fp.Format_.t array -> float array
(** Re-run on the same inputs with float registers stored in per-pc
    formats (an {!Gpr_exec.Exec.config} [quantize] table).

    For a workload with kept inputs ({!share_inputs}) whose kernel is
    {!Gpr_exec.Exec.eligible}, the first quantised run records the
    run's float schedule and later ones replay it
    ({!Gpr_exec.Exec.replay}): same outputs, same [exec.*] counts.
    Each domain keeps its last tape, used only for the physical kernel
    and [data] closure plus equal launch, params and shared sizes, and
    dropped by {!clear_tapes}. *)

val clear_tapes : unit -> unit
(** Forget every recorded float schedule, in every domain. *)

val score : t -> out:float array -> reference:float array -> Gpr_quality.Quality.score

val evaluate :
  t -> reference:float array -> quantize:Gpr_fp.Format_.t array ->
  Gpr_quality.Quality.score

val trace :
  t -> quantize:Gpr_fp.Format_.t array option -> Gpr_exec.Trace.t
(** Execute with trace collection for the timing simulator. *)

val float_sites : t -> (int * vreg) list
