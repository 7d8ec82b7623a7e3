(** Functional SIMT executor.

    Executes a kernel warp-by-warp in lockstep with an IPDOM
    reconvergence stack (the mechanism of the paper's baseline GPU,
    Sec. 3.1), mutating bound global buffers.  It serves three roles:

    - producing reference outputs for the quality metrics;
    - re-running kernels under per-site float quantisation for the
      precision tuner ({!Gpr_precision});
    - emitting dynamic warp traces for the timing simulator
      ({!Gpr_sim}).

    Deterministic: blocks run in linear CTA order, warps round-robin at
    barrier granularity.

    Each kernel is decoded once per domain and the program is memoised
    by the kernel's physical identity, like its static pc numbering: a
    kernel must not be modified after its first run. *)

open Gpr_isa.Types

(** The concrete 32-bit semantics of mini-PTX arithmetic, the one
    definition the executor runs, {!Gpr_opt} folds constants with and
    the abstract domains' soundness tests compare against.  Integers
    are OCaml ints holding the value at its dtype: [u = true] means
    U32 (wrapped to [0, 2^32)), otherwise S32 (sign-wrapped).  Floats
    are doubles holding an f32 value; every result is rounded to f32. *)
module Sem : sig
  val wrap_u32 : int -> int

  val wrap : bool -> int -> int
  (** [wrap u x]: [wrap_u32 x] when [u], else [x] sign-wrapped to 32
      bits. *)

  val f32 : float -> float
  (** Round to the nearest f32. *)

  val ftoi : float -> int
  (** [cvt.rzi.s32.f32]: truncate toward zero, saturating; NaN → 0. *)

  val ftou : float -> int
  (** [cvt.rzi.u32.f32]: truncate toward zero, saturating; NaN → 0. *)

  val ibin : ibinop -> bool -> int -> int -> int
  (** Shift amounts are masked to 5 bits; [Div] by 0 is 0, [Rem] by 0
      is the dividend. *)

  val iun : iunop -> bool -> int -> int
  val imad : bool -> int -> int -> int -> int
  val fbin : fbinop -> float -> float -> float

  val holds : cmpop -> int -> bool
  (** [holds op c]: whether [op] holds of a [compare] result [c]. *)
end

type storage =
  | I_data of int array    (** S32/U32 elements *)
  | F_data of float array  (** F32 elements *)

type binding =
  | Buf_data of storage  (** backing store for a global/texture buffer *)
  | Buf_shared of int    (** element count of a per-block shared buffer *)

type pvalue = P_int of int | P_float of float

type config = {
  quantize : Gpr_fp.Format_.t array option;
      (** Per-pc storage formats: a float written by the static
          instruction [pc] is rounded with {!Gpr_fp.Format_.quantize}
          to [table.(pc)], in place and unboxed — how the precision
          tuner simulates reduced-precision register storage.  A [pc]
          past the table's end, or an entry at 32 bits, leaves the
          value untouched. *)
  collect_trace : bool;
  on_write : (int -> vreg -> pvalue -> pvalue) option;
      (** [on_write pc dst v]: intercepts every register write (integer
          and float; a float after its [quantize] rounding) and may
          replace the stored value.
          {!Gpr_check} uses it both to validate written values against
          the static analysis (raising on a violation) and to round-trip
          values through the packed register-file datapath.  Not applied
          to the special-register seeding, which happens before any
          instruction executes.  Must preserve the value's kind. *)
  max_steps : int option;
      (** Abort ([Failure]) once this many dynamic thread instructions
          have executed — a watchdog for fuzzed kernels that the
          shrinker may have turned into infinite loops. *)
  on_monitor : (Trace.monitor_event -> unit) option;
      (** Receives the events of the dynamic barrier/race monitor when
          {!run} is called with [~check:true].  When unset, the first
          event aborts the run with [Failure]. *)
}

val default_config : config

val bindings_for :
  kernel ->
  data:(string * storage) list ->
  ?shared:(string * int) list ->
  unit ->
  binding array
(** Build the per-buffer binding array by buffer name.
    @raise Invalid_argument on missing/mistyped bindings. *)

val run :
  ?check:bool ->
  kernel ->
  launch:launch ->
  params:pvalue array ->
  bindings:binding array ->
  config ->
  Trace.t option
(** Executes the kernel, mutating the arrays inside [bindings].
    Returns a trace when [collect_trace] is set.

    [check] (default false) arms the dynamic barrier/race monitor: a
    warp reaching [Bar] with lanes missing, or two distinct threads
    touching the same shared element between barriers with at least one
    write, produces a {!Trace.monitor_event} (delivered to
    [config.on_monitor], or raised as [Failure] when no handler is
    set).  The monitor is the runtime counterpart of the [Gpr_lint]
    divergence and race passes.
    @raise Failure on out-of-bounds accesses or binding mismatches. *)

(** {2 Recorded float schedules}

    A run that changes only its [quantize] table changes only float
    values.  When no float can reach an integer, predicate or index
    (see {!eligible}), every such run executes the same float sites on
    the same lanes in the same order, with the same integer inputs:
    one run can record that schedule and later runs replay it without
    the integer work and the control flow. *)

type tape
(** The float schedule of one run: in execution order, each CTA start
    and each float-side site with its warp, its lane mask and the
    integers it reads (load and store indices, integer store values,
    [cvt] sources, float [selp] predicates). *)

val eligible : kernel -> bool
(** Whether runs of the kernel can be recorded: its program has no
    float [setp] and no float-to-int [cvt] (the only paths from the
    float file to the int file), and no [selp] with an ill-typed
    immediate. *)

val record :
  kernel ->
  launch:launch ->
  params:pvalue array ->
  bindings:binding array ->
  quantize:Gpr_fp.Format_.t array option ->
  tape option
(** [run] with a default config but [quantize], also returning the
    run's tape when the kernel is {!eligible}, has at most 2^15 static
    instructions and 2^15 warps per block, and the tape stays under
    2^20 words. *)

val replay :
  tape -> bindings:binding array -> quantize:Gpr_fp.Format_.t array option -> unit
(** Re-run the recorded kernel, launch and parameters on [bindings]
    with a new [quantize] table, executing only the tape's float sites.
    Every buffer ends as [run] would leave it, provided [bindings]
    start from the values the recorded run started from.  Counts one
    run and the recorded run's thread instructions in the [exec.*]
    metrics.
    @raise Invalid_argument when a binding's length differs from the
    recorded run's. *)

val static_pc : kernel -> block:int -> idx:int -> int
(** The unique static instruction id used by traces and the [quantize]
    table. *)

val float_def_sites : kernel -> (int * vreg) list
(** All static instructions defining an F32 register, as
    [(pc, destination)] — the tuning points of the precision framework. *)

val count_static_instrs : kernel -> int
