(* Workload [tune]: the op is one cold Compress.analyze of one kernel —
   memos cleared, a fresh empty Store attached, so the op runs range
   analysis, both precision-tuner searches, the allocations, and writes
   its record.  No timing engine runs and nothing is read back.

   The traced phase re-enacts Compress.analyze from the public calls it
   makes (Workload.reference / run_quantized / score, Width.analyze,
   Precision.tune, Alloc.run, Fingerprint, Store) with a span around
   each, and must produce a byte-identical record. *)

open Common
module W = Gpr_workloads.Workload
module C = Gpr_core.Compress
module P = Gpr_precision.Precision
module Q = Gpr_quality.Quality
module Alloc = Gpr_alloc.Alloc
module Store = Gpr_engine.Store

(* Kernels cheap enough to tune many times a run (about 0.6 s each on a
   2-vCPU x86-64 VM); the serve and warm workloads use them too. *)
let all_kernels = [ "Hotspot"; "DWT2D" ]
let kernels opts = if opts.tiny then [ "Hotspot" ] else all_kernels

(* The layout of Compress's on-disk record (kind "analyze"): the same
   fields in the same order, so both marshal to the same bytes and a
   record written here is the one Compress would read back. *)
type stored = {
  s_reference : float array;
  s_width : Gpr_analysis.Width.t;
  s_baseline : Alloc.t;
  s_int_only : Alloc.t;
  s_perfect : C.per_threshold;
  s_high : C.per_threshold;
}

let of_compress (c : C.t) =
  { s_reference = c.C.reference; s_width = c.C.width; s_baseline = c.C.baseline;
    s_int_only = c.C.int_only; s_perfect = c.C.perfect; s_high = c.C.high }

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* What the expected-output table pins per kernel: tuner evaluations,
   the assigned formats (digest of the sorted pc -> format table) and
   register counts for both thresholds. *)
let summary (r : stored) =
  let formats (pt : C.per_threshold) =
    Hashtbl.fold
      (fun pc f acc -> (pc, Gpr_fp.Format_.to_string f) :: acc)
      pt.C.assignment.P.formats []
    |> List.sort compare
    |> List.map (fun (pc, f) -> Printf.sprintf "%d:%s" pc f)
    |> String.concat ","
    |> Digest.string |> Digest.to_hex
  in
  let regs (a : Alloc.t) = J.Int a.Alloc.pressure in
  let threshold name (pt : C.per_threshold) =
    [
      ("evals_" ^ name, J.Int pt.C.assignment.P.evaluations);
      ("formats_" ^ name, J.Str (formats pt));
      ("regs_floats_" ^ name, regs pt.C.alloc_float_only);
      ("regs_both_" ^ name, regs pt.C.alloc_both);
    ]
  in
  J.Obj
    ([ ("regs_original", regs r.s_baseline);
       ("regs_narrow_ints", regs r.s_int_only) ]
    @ threshold "perfect" r.s_perfect
    @ threshold "high" r.s_high)

let evals (r : stored) =
  r.s_perfect.C.assignment.P.evaluations + r.s_high.C.assignment.P.evaluations

(* Compress's tuning knobs (coarser groups and a bounded budget for
   kernels with many float sites). *)
let tuning_knobs sites =
  let n = List.length sites in
  let min_group = if n > 96 then 8 else if n > 48 then 4 else 1 in
  let budget = if n > 96 then 200 else 140 in
  (min_group, budget)

(* Compress.analyze's cold path, one public call per span. *)
let traced_compute (w : W.t) =
  let reference = span "exec.reference" (fun () -> W.reference w) in
  let width =
    span "analysis.width" (fun () ->
        Gpr_analysis.Width.analyze w.W.kernel ~launch:w.W.launch)
  in
  let alloc ~narrow_ints ~narrow_floats =
    span "alloc.run" (fun () ->
        Alloc.run w.W.kernel
          ~width_of:(C.width_fn ~narrow_ints ~narrow_floats ~width))
  in
  let baseline = span "alloc.run" (fun () -> Alloc.baseline w.W.kernel) in
  let int_only = alloc ~narrow_ints:true ~narrow_floats:None in
  let evaluate ~quantize =
    let out = span "exec.quantized_run" (fun () -> W.run_quantized w ~quantize) in
    span "quality.score" (fun () -> W.score w ~out ~reference)
  in
  let tune threshold =
    let sites = W.float_sites w in
    let min_group, budget = tuning_knobs sites in
    let assignment =
      span "precision.tune" (fun () ->
          P.tune ~min_group ~budget ~sites ~evaluate ~threshold ())
    in
    let achieved_score = evaluate ~quantize:(P.quantizer assignment) in
    let alloc_float_only =
      alloc ~narrow_ints:false ~narrow_floats:(Some assignment)
    in
    let alloc_both = alloc ~narrow_ints:true ~narrow_floats:(Some assignment) in
    { C.assignment; achieved_score; alloc_float_only; alloc_both }
  in
  let perfect = tune Q.Perfect in
  let high = tune Q.High in
  { s_reference = reference; s_width = width; s_baseline = baseline;
    s_int_only = int_only; s_perfect = perfect; s_high = high }

(* One op's deterministic outcome, compared across phases. *)
type result = { record : string; instrs : int; evaluations : int }

let run opts =
  let names = kernels opts in
  let expected = expected_section opts "tune" in
  let workloads = List.map (fun n -> (n, kernel_named n)) names in
  let fresh_store () = Store.create ~dir:(fresh_dir opts "tune-store") () in
  let drop_store st = rm_rf (Store.dir st) in
  (* Results of the first phase, by kernel; later ops must match. *)
  let seen : (string, result) Hashtbl.t = Hashtbl.create 4 in
  let misses = ref 0 in
  let check name (r : stored) instrs =
    let res = { record = digest r; instrs; evaluations = evals r } in
    let want = J.member name expected in
    let matches_expected = want = Some (summary r) in
    if not matches_expected then
      Printf.eprintf "tune %s: outputs differ from expected.json\n%!" name;
    let matches_seen =
      match Hashtbl.find_opt seen name with
      | None ->
        Hashtbl.replace seen name res;
        true
      | Some first -> first = res
    in
    if not matches_seen then
      Printf.eprintf "tune %s: record or counts differ between ops\n%!" name;
    matches_expected && matches_seen
  in
  let untraced_op (name, w) () =
    let st = fresh_store () in
    C.clear_cache ();
    C.set_store (Some st);
    let i0 = thread_instrs () in
    let c, latency = cpu_time (fun () -> C.analyze w) in
    let instrs = thread_instrs () - i0 in
    C.set_store None;
    let written : stored option =
      Store.find st ~kind:"analyze" ~key:c.C.fingerprint
    in
    drop_store st;
    let ok =
      check name (of_compress c) instrs
      && Option.map digest written = Some (digest (of_compress c))
    in
    { latency; ok }
  in
  let traced_op (name, w) () =
    let st = fresh_store () in
    let i0 = thread_instrs () in
    let r, latency =
      with_kernel name (fun () ->
          cpu_time (fun () ->
              let key = span "fingerprint.workload" (fun () -> C.fingerprint w) in
              let cached : stored option =
                span "store.find" (fun () -> Store.find st ~kind:"analyze" ~key)
              in
              if cached <> None then failwith "fresh store was not empty";
              let r = traced_compute w in
              span "store.add" (fun () -> Store.add st ~kind:"analyze" ~key r);
              r))
    in
    let instrs = thread_instrs () - i0 in
    misses := !misses + Store.misses st;
    drop_store st;
    { latency; ok = check name r instrs }
  in
  let round op i = List.map op (shuffled opts i workloads) in
  let setup () =
    (* Warm-up: one cold analysis of the first kernel, then a clean
       slate (the op order is generated per round). *)
    let st = fresh_store () in
    C.clear_cache ();
    C.set_store (Some st);
    ignore (C.analyze (snd (List.hd workloads)));
    C.set_store None;
    C.clear_cache ();
    drop_store st
  in
  let (), setups = timed_setups opts setup in
  let phase_seconds = if opts.trace then opts.seconds /. 2.0 else opts.seconds in
  let a0 = alloc_runs () in
  let untraced = run_phase ~settle:true ~seconds:phase_seconds ~round:(round untraced_op) () in
  let allocs_per_round =
    float_of_int (alloc_runs () - a0) /. float_of_int untraced.rounds
  in
  let info =
    [ ("kernels", J.Arr (List.map (fun n -> J.Str n) names));
      ("op", J.Str "cold Compress.analyze of one kernel, fresh store") ]
  in
  if not opts.trace then
    { info; phases = [ untraced ]; extra_failures = 0; prescaled = [];
      metrics = end_to_end ~setups ~peak_heap_mb:(heap_mb ()) untraced }
  else begin
    tracing := true;
    let traced = run_phase ~settle:true ~seconds:phase_seconds ~round:(round traced_op) () in
    tracing := false;
    let rounds = float_of_int traced.rounds in
    let per_round f =
      float_of_int (Hashtbl.fold (fun _ r acc -> acc + f r) seen 0)
    in
    let instrs = per_round (fun r -> r.instrs) in
    let exec_s =
      (layer_self_s "exec.quantized_run" +. layer_self_s "exec.reference")
      /. rounds
    in
    let extra =
      [
        ("exec.thread_instrs", instrs);
        ("exec.ns_per_thread_instr", ratio (exec_s *. 1e9) instrs);
        ("precision.evals", per_round (fun r -> r.evaluations));
        ("alloc.runs", allocs_per_round);
        ("store.misses", float_of_int !misses /. rounds);
        ("trace.overhead_pct", trace_overhead_pct ~untraced ~traced);
      ]
    in
    { info = info @ [ ("kernel_layer_table", kernel_layer_table ~rounds:traced.rounds) ];
      phases = [ untraced; traced ]; extra_failures = 0; prescaled = [];
      metrics = per_layer ~untraced ~traced extra }
  end

(* Expected outputs: one cold analysis per kernel. *)
let record () =
  J.Obj
    (List.map
       (fun n ->
         C.clear_cache ();
         (n, summary (of_compress (C.analyze (kernel_named n)))))
       all_kernels)
