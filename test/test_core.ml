(* Integration tests over the full pipeline (Compress + Simulate) on one
   cheap kernel, plus the Sec. 6.4 / Sec. 7 area model against the
   paper's published constants. *)

module C = Gpr_core.Compress
module S = Gpr_core.Simulate
module Q = Gpr_quality.Quality
module Area = Gpr_area.Area

let hotspot () = Option.get (Gpr_workloads.Registry.by_name "Hotspot")

let test_compress_pressure_ordering () =
  let c = C.analyze (hotspot ()) in
  let p (a : Gpr_alloc.Alloc.t) = a.pressure in
  (* Both frameworks can only reduce pressure, and combining them is at
     least as good as either alone. *)
  Alcotest.(check bool) "int <= orig" true (p c.int_only <= p c.baseline);
  Alcotest.(check bool) "float(perfect) <= orig" true
    (p c.perfect.alloc_float_only <= p c.baseline);
  Alcotest.(check bool) "float(high) <= float(perfect)" true
    (p c.high.alloc_float_only <= p c.perfect.alloc_float_only);
  Alcotest.(check bool) "both(perfect) <= float(perfect)" true
    (p c.perfect.alloc_both <= p c.perfect.alloc_float_only);
  Alcotest.(check bool) "both(perfect) <= int" true
    (p c.perfect.alloc_both <= p c.int_only);
  Alcotest.(check bool) "both(high) <= both(perfect)" true
    (p c.high.alloc_both <= p c.perfect.alloc_both)

let test_compress_quality_met () =
  let c = C.analyze (hotspot ()) in
  Alcotest.(check bool) "perfect met" true
    (Q.meets c.perfect.achieved_score Q.Perfect);
  Alcotest.(check bool) "high met" true (Q.meets c.high.achieved_score Q.High)

let test_compress_occupancy_grows () =
  let c = C.analyze (hotspot ()) in
  let blocks a = (C.occupancy c a).Gpr_arch.Occupancy.blocks_per_sm in
  Alcotest.(check bool) "compression never hurts occupancy" true
    (blocks c.perfect.alloc_both >= blocks c.baseline)

let test_compress_cache () =
  C.clear_cache ();
  let t0 = Unix.gettimeofday () in
  let _ = C.analyze (hotspot ()) in
  let cold = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let _ = C.analyze (hotspot ()) in
  let warm = Unix.gettimeofday () -. t1 in
  Alcotest.(check bool) "memoised" true (warm < cold /. 10.0)

let test_simulate_consistency () =
  let c = C.analyze (hotspot ()) in
  let b = S.baseline c in
  let p = S.proposed c Q.High in
  let a = S.artificial c Q.High in
  Alcotest.(check bool) "positive cycles" true (b.cycles > 0 && p.cycles > 0);
  Alcotest.(check bool) "ipc positive" true (b.gpu_ipc > 0.0);
  (* The artificial-occupancy control bounds the proposed design from
     above (Table 1's argument), modulo small simulation noise. *)
  Alcotest.(check bool) "proposed <= artificial * 1.05" true
    (p.gpu_ipc <= a.gpu_ipc *. 1.05);
  (* Proposed beats baseline for this register-limited kernel. *)
  Alcotest.(check bool) "proposed > baseline" true (p.gpu_ipc > b.gpu_ipc)

let test_width_fn () =
  let c = C.analyze (hotspot ()) in
  let wf =
    C.width_fn ~narrow_ints:true
      ~narrow_floats:(Some c.high.assignment) ~width:c.width
  in
  (* Predicates and unknown registers stay at 32 bits. *)
  Alcotest.(check int) "pred 32" 32
    (wf { Gpr_isa.Types.id = 0; ty = Pred; name = "p" });
  (* Every width is in [1, 32]. *)
  for v = 0 to 40 do
    let w = wf { Gpr_isa.Types.id = v; ty = S32; name = "x" } in
    Alcotest.(check bool) "bounded" true (w >= 1 && w <= 32)
  done

(* A minimal workload whose kernel body bakes in [value], so two
   instances can share a name while computing different things. *)
let tiny_workload ?(name = "tiny") ~value () =
  let open Gpr_isa.Builder in
  let b = create ~name in
  let out = global_buffer b Gpr_isa.Types.F32 "out" in
  let tid = tid_x b in
  let v = var b Gpr_isa.Types.F32 "v" in
  assign b v (cf value);
  let v2 = fadd b ~$v (cf 0.25) in
  st b out ~$tid ~$v2;
  let kernel = finish b in
  {
    Gpr_workloads.Workload.name;
    group = 2;
    metric = Q.M_deviation;
    kernel;
    launch = Gpr_isa.Types.launch_1d ~block:4 ~grid:1;
    params = [||];
    data = (fun () -> [ ("out", Gpr_exec.Exec.F_data (Array.make 4 0.0)) ]);
    shared = [];
    extra_shared_bytes = 0;
    output = Gpr_workloads.Workload.Out_floats "out";
    paper_regs = 0;
  }

(* Regression: the memo table used to be keyed by [w.name], so a second
   workload reusing a name was served the first one's analysis.  Keys
   are now content fingerprints. *)
let test_compress_no_name_staleness () =
  C.clear_cache ();
  let w1 = tiny_workload ~name:"stale" ~value:1.0 () in
  let w2 = tiny_workload ~name:"stale" ~value:2.0 () in
  let c1 = C.analyze w1 in
  let c2 = C.analyze w2 in
  Alcotest.(check bool) "distinct memo keys" false
    (Gpr_engine.Fingerprint.equal c1.C.fingerprint c2.C.fingerprint);
  (* The second analysis must reflect the second kernel body
     (out[i] = 2.25), not the cached first one (out[i] = 1.25). *)
  Alcotest.(check (float 1e-6)) "w1 reference" 1.25 c1.C.reference.(0);
  Alcotest.(check (float 1e-6)) "w2 reference" 2.25 c2.C.reference.(0)

(* Cold compute, drop the in-memory memo, re-analyze: the result must
   come back from the on-disk store, identical to the cold one. *)
let test_compress_store_roundtrip () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gpr-core-store-%d" (Unix.getpid ()))
  in
  let store = Gpr_engine.Store.create ~dir () in
  C.set_store (Some store);
  Fun.protect
    ~finally:(fun () -> C.set_store None)
    (fun () ->
       C.clear_cache ();
       let w = tiny_workload ~name:"persist" ~value:3.0 () in
       let cold = C.analyze w in
       C.clear_cache ();
       let warm = C.analyze w in
       Alcotest.(check bool) "served from disk" true
         (Gpr_engine.Store.hits store > 0);
       Alcotest.(check int) "same pressure"
         cold.C.perfect.C.alloc_both.pressure
         warm.C.perfect.C.alloc_both.pressure;
       Alcotest.(check (float 0.0)) "same reference" cold.C.reference.(0)
         warm.C.reference.(0))

(* One score per distinct assignment.  A cold analysis runs the kernel
   for the reference, once per distinct assignment its two searches
   step through (Hotspot: 52 of its 64 evaluations, DWT2D: 124 of 135;
   the rest repeat an assignment already scored, mostly [High]
   retracing [Perfect]) and once per threshold for the achieved score.
   The stored record is the one the memo-free tuner wrote, and
   [evaluations] still counts every step. *)

module Alloc = Gpr_alloc.Alloc

(* The layout of Compress's on-disk record (kind "analyze"). *)
type stored = {
  s_reference : float array;
  s_width : Gpr_analysis.Width.t;
  s_baseline : Alloc.t;
  s_int_only : Alloc.t;
  s_perfect : C.per_threshold;
  s_high : C.per_threshold;
}

(* kernel, evaluations (Perfect, High), kernel runs, record digest as
   stored before scores were memoised (67 and 138 runs then) *)
let one_score_pins = [
  ("Hotspot", (38, 26), 55, "8881706a38724af710e9959b2f299dae");
  ("DWT2D", (69, 66), 127, "964f379c46ab917d1e85bf4e5dcb9675");
]

let test_one_score_per_assignment (name, evaluations, kernel_runs, record) () =
  let w = Option.get (Gpr_workloads.Registry.by_name name) in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gpr-core-memo-%d" (Unix.getpid ()))
  in
  let store = Gpr_engine.Store.create ~dir () in
  let runs = Gpr_obs.Metrics.counter "exec.runs" in
  let was_enabled = Gpr_obs.Metrics.enabled () in
  Gpr_obs.Metrics.set_enabled true;
  C.clear_cache ();
  C.set_store (Some store);
  let c, cold_runs =
    Fun.protect
      ~finally:(fun () ->
          C.set_store None;
          C.clear_cache ();
          Gpr_obs.Metrics.set_enabled was_enabled)
      (fun () ->
         let r0 = Gpr_obs.Metrics.value runs in
         let c = C.analyze w in
         (c, Gpr_obs.Metrics.value runs - r0))
  in
  let written : stored option =
    Gpr_engine.Store.find store ~kind:"analyze" ~key:c.C.fingerprint
  in
  ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ]));
  let evals (pt : C.per_threshold) =
    pt.C.assignment.Gpr_precision.Precision.evaluations
  in
  Alcotest.(check (pair int int)) "evaluations" evaluations
    (evals c.C.perfect, evals c.C.high);
  Alcotest.(check int) "kernel runs" kernel_runs cold_runs;
  let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [])) in
  Alcotest.(check (option string)) "stored record" (Some record)
    (Option.map digest written)

(* ---------------------------------------------------------------- *)
(* Area model vs the paper's published constants (Sec. 6.4 / Sec. 7) *)

let test_area_fermi_structures () =
  let b = Area.fermi in
  Alcotest.(check int) "TVE transistors" 1560 b.Area.tve_transistors;
  Alcotest.(check int) "value extractors (16 banks)" 798_720
    b.Area.value_extractors;
  Alcotest.(check int) "value converters" 249_600 b.Area.value_converters;
  Alcotest.(check int) "indirection tables" 98_304 b.Area.indirection_tables;
  Alcotest.(check int) "value truncators" 518_016 b.Area.value_truncators;
  Alcotest.(check int) "CU extensions" 108_384 b.Area.cu_extensions

let test_area_fermi_totals () =
  let b = Area.fermi in
  (* Paper: ~1.8 M per SM, ~27 M chip-wide, < 1 % of 3.1 B. *)
  Alcotest.(check bool) "~1.8M per SM" true
    (b.Area.total_per_sm > 1_700_000 && b.Area.total_per_sm < 1_900_000);
  Alcotest.(check int) "chip = 15 SMs" (b.Area.total_per_sm * 15)
    b.Area.total_chip;
  Alcotest.(check bool) "under 1%" true (b.Area.fraction_of_chip < 0.01)

let test_area_volta_totals () =
  let v = Area.volta in
  (* Paper: ~1.4 M per processing block, 5.6 M per SM, ~470 M total,
     just over 2 % of 21 B. *)
  Alcotest.(check bool) "~5.6M per SM" true
    (v.Area.total_per_sm > 5_200_000 && v.Area.total_per_sm < 6_000_000);
  Alcotest.(check bool) "~470M chip" true
    (v.Area.total_chip > 420_000_000 && v.Area.total_chip < 500_000_000);
  Alcotest.(check bool) "just over 2%" true
    (v.Area.fraction_of_chip > 0.015 && v.Area.fraction_of_chip < 0.03)

let test_power_summary () =
  let p = Area.power Area.fermi in
  Alcotest.(check (float 1e-12)) "static tracks area"
    Area.fermi.Area.fraction_of_chip p.Area.static_overhead_fraction;
  Alcotest.(check (float 0.0)) "double fetch 2x" 2.0
    p.Area.double_fetch_read_energy_factor;
  Alcotest.(check (float 0.0)) "doubled RF 2x" 2.0
    p.Area.doubled_regfile_read_energy_factor

let () =
  Alcotest.run "core"
    [
      ( "compress",
        [
          Alcotest.test_case "pressure ordering" `Slow
            test_compress_pressure_ordering;
          Alcotest.test_case "quality met" `Slow test_compress_quality_met;
          Alcotest.test_case "occupancy grows" `Slow test_compress_occupancy_grows;
          Alcotest.test_case "memoised" `Slow test_compress_cache;
          Alcotest.test_case "width fn" `Slow test_width_fn;
          Alcotest.test_case "no name staleness" `Quick
            test_compress_no_name_staleness;
          Alcotest.test_case "store roundtrip" `Quick
            test_compress_store_roundtrip;
        ]
        @ List.map
            (fun ((name, _, _, _) as pin) ->
               Alcotest.test_case ("one score " ^ name) `Slow
                 (test_one_score_per_assignment pin))
            one_score_pins );
      ( "simulate",
        [ Alcotest.test_case "consistency" `Slow test_simulate_consistency ] );
      ( "area",
        [
          Alcotest.test_case "fermi structures" `Quick test_area_fermi_structures;
          Alcotest.test_case "fermi totals" `Quick test_area_fermi_totals;
          Alcotest.test_case "volta totals" `Quick test_area_volta_totals;
          Alcotest.test_case "power" `Quick test_power_summary;
        ] );
    ]
