open Gpr_workloads
module Q = Gpr_quality.Quality
module P = Gpr_precision.Precision
module Alloc = Gpr_alloc.Alloc

type per_threshold = {
  assignment : P.assignment;
  achieved_score : Q.score;
  alloc_float_only : Alloc.t;
  alloc_both : Alloc.t;
}

type t = {
  w : Workload.t;
  fingerprint : Gpr_engine.Fingerprint.t;
  reference : float array;
  width : Gpr_analysis.Width.t;
  range : Gpr_analysis.Range.t;
  baseline : Alloc.t;
  int_only : Alloc.t;
  perfect : per_threshold;
  high : per_threshold;
}

(* The width policy lives with the slice scheme in [Gpr_backend] now;
   this alias keeps the historical entry point for the ablation sweeps
   and external callers. *)
let width_fn = Gpr_backend.Backend_slice.width_fn

(* Tuning cost scales with the site count; large kernels get coarser
   groups and a bounded evaluation budget (both knobs of the original
   framework, Sec. 4.1). *)
let tuning_knobs sites =
  let n = List.length sites in
  let min_group = if n > 96 then 8 else if n > 48 then 4 else 1 in
  let budget = if n > 96 then 200 else 140 in
  (min_group, budget)

let tune_threshold (w : Workload.t) ~evaluate ~width ~intervals threshold =
  let sites = Workload.float_sites w in
  let min_group, budget = tuning_knobs sites in
  let assignment =
    P.tune ~min_group ~budget ~sites ~evaluate ~threshold ()
  in
  let achieved_score = evaluate ~quantize:(P.quantizer assignment) in
  let alloc_float_only =
    Alloc.run ~intervals w.kernel
      ~width_of:(width_fn ~narrow_ints:false ~narrow_floats:(Some assignment) ~width)
  in
  let alloc_both =
    Alloc.run ~intervals w.kernel
      ~width_of:(width_fn ~narrow_ints:true ~narrow_floats:(Some assignment) ~width)
  in
  { assignment; achieved_score; alloc_float_only; alloc_both }

(* Memoisation is keyed by content fingerprint, not by workload name:
   two distinct kernels sharing a name must not return each other's
   results (they used to — see the regression test in test_core). *)
let cache : t Gpr_engine.Memo.t = Gpr_engine.Memo.create ()

let store : Gpr_engine.Store.t option ref = ref None
let set_store s = store := s
let clear_cache () = Gpr_engine.Memo.clear cache

let fingerprint (w : Workload.t) = Gpr_engine.Fingerprint.workload w

(* The workload record holds closures (its input generator), so the
   on-disk store persists only the computed, closure-free part. *)
type stored = {
  s_reference : float array;
  s_width : Gpr_analysis.Width.t;
  s_baseline : Alloc.t;
  s_int_only : Alloc.t;
  s_perfect : per_threshold;
  s_high : per_threshold;
}

let compute (w : Workload.t) =
  let reference = Workload.reference w in
  let width = Gpr_analysis.Width.analyze w.kernel ~launch:w.launch in
  (* The six allocations share one liveness computation. *)
  let intervals = Gpr_analysis.Liveness.(intervals (compute w.kernel)) in
  let baseline = Alloc.baseline ~intervals w.kernel in
  let int_only =
    Alloc.run ~intervals w.kernel
      ~width_of:(width_fn ~narrow_ints:true ~narrow_floats:None ~width)
  in
  (* One callback for both searches, so they share [P.tune]'s scores. *)
  let evaluate ~quantize = Workload.evaluate w ~reference ~quantize in
  let perfect = tune_threshold w ~evaluate ~width ~intervals Q.Perfect in
  let high = tune_threshold w ~evaluate ~width ~intervals Q.High in
  { s_reference = reference; s_width = width; s_baseline = baseline;
    s_int_only = int_only; s_perfect = perfect; s_high = high }

let analyze (w : Workload.t) =
  let fp = fingerprint w in
  Gpr_engine.Memo.get cache (Gpr_engine.Fingerprint.to_hex fp) (fun () ->
      let s =
        Gpr_engine.Store.memoize !store ~kind:"analyze" ~key:fp (fun () ->
            compute w)
      in
      { w; fingerprint = fp; reference = s.s_reference; width = s.s_width;
        range = s.s_width.Gpr_analysis.Width.range;
        baseline = s.s_baseline; int_only = s.s_int_only;
        perfect = s.s_perfect; high = s.s_high })

let threshold_data t = function
  | Q.Perfect -> t.perfect
  | Q.High -> t.high

let occupancy t (alloc : Alloc.t) =
  Gpr_backend.Backend.occupancy Gpr_arch.Config.fermi_gtx480
    (Gpr_backend.Backend.plain_resources alloc)
    ~warps_per_block:(Workload.warps_per_block t.w)
    ~shared_bytes_per_block:(Workload.shared_bytes_per_block t.w)
