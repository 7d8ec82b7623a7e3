(** The end-to-end static framework of Fig. 7: range analysis for
    integers, precision tuning for floats, slice-granular register
    allocation, and the resulting occupancy — everything up to (but not
    including) timing simulation, for one kernel. *)

open Gpr_workloads

type per_threshold = {
  assignment : Gpr_precision.Precision.assignment;
  achieved_score : Gpr_quality.Quality.score;
      (** quality of the final tuned configuration on the sample input *)
  alloc_float_only : Gpr_alloc.Alloc.t;
  alloc_both : Gpr_alloc.Alloc.t;
}

type t = {
  w : Workload.t;
  fingerprint : Gpr_engine.Fingerprint.t;
      (** content fingerprint of [w] — the memo/store key *)
  reference : float array;
  width : Gpr_analysis.Width.t;
      (** the width authority: intervals × known-bits × congruence ×
          demanded-bits reduced product *)
  range : Gpr_analysis.Range.t;
      (** [width.range] — kept as a field for interval-only consumers
          (ablations, reports) *)
  baseline : Gpr_alloc.Alloc.t;   (** original (32-bit) allocation *)
  int_only : Gpr_alloc.Alloc.t;
  perfect : per_threshold;
  high : per_threshold;
}

type static_plan = {
  width : Gpr_analysis.Width.t;
  intervals : (int * int * int) list;
      (** {!Gpr_analysis.Liveness.intervals}, computed once for every
          allocation of the kernel *)
  baseline : Gpr_alloc.Alloc.t;
  int_only : Gpr_alloc.Alloc.t;
}

val static_plan :
  ?check:(unit -> unit) -> Gpr_isa.Types.kernel -> launch:Gpr_isa.Types.launch ->
  static_plan
(** The integer half of {!analyze}, which needs no input data: the
    width analysis, then the original and narrow-integer allocations
    over one liveness computation.  [check] (default: nothing) runs
    between the two steps, e.g. a deadline check.  {!analyze},
    [gpr analyze] and serve's inline plan all call it. *)

val analyze : Workload.t -> t
(** Runs the full static framework.  Expensive (the tuner re-executes
    the kernel many times); results are memoised by content
    fingerprint ({!Gpr_engine.Fingerprint.workload}) in a domain-safe
    table, and persisted to the {!Gpr_engine.Store} configured with
    {!set_store} (when any). *)

val fingerprint : Workload.t -> Gpr_engine.Fingerprint.t
(** The memo key [analyze] uses. *)

val set_store : Gpr_engine.Store.t option -> unit
(** Attach (or detach) an on-disk result store.  Warm runs then skip
    the precision tuner entirely. *)

val clear_cache : unit -> unit
(** Clears the in-memory memo table and the recorded float schedules
    ({!Gpr_workloads.Workload.clear_tapes}), never the on-disk store:
    the next analysis runs cold. *)

val threshold_data : t -> Gpr_quality.Quality.threshold -> per_threshold

val occupancy :
  t -> Gpr_alloc.Alloc.t -> Gpr_arch.Occupancy.result
(** Occupancy on the Fermi configuration at the allocation's register
    pressure and the workload's block geometry. *)

val width_fn :
  narrow_ints:bool ->
  narrow_floats:Gpr_precision.Precision.assignment option ->
  width:Gpr_analysis.Width.t ->
  Gpr_isa.Types.vreg -> int
(** The per-variable width function handed to the allocator.  Integer
    widths come from the {!Gpr_analysis.Width} reduced product. *)
