(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Tables 1-4, Figures 8-12, the Sec. 6.4 area model, the Sec. 6.5
   power argument and the Sec. 7 Volta scaling) through
   [Gpr_core.Experiments] — workload generation, the static framework,
   and the timing simulation all run from scratch (or from the
   content-addressed store with [--cache-dir]).

   Part 2 reports Bechamel micro-benchmarks of the core components so
   performance regressions in the library itself are visible.

   Tables and figures go to stdout; per-section timings and cache
   statistics go to stderr and to BENCH_engine.json, so stdout is
   byte-comparable across [-j 1] and [-j N] runs.  The static verifier
   is timed per pass over the registry and reported in BENCH_lint.json;
   each registered register-file backend is timed over the full
   registry and reported in BENCH_backend.json, with its registry-wide
   stall-attribution breakdown and the metrics-registry snapshot in
   BENCH_obs.json.  Every artifact is emitted through Gpr_obs.Json and
   re-parsed by the bench/json_check runtest rule.

   Run with:  dune exec bench/main.exe -- [-j N] [--cache-dir DIR]
                                          [--no-micro] *)

open Bechamel
open Toolkit

(* ---------------------------------------------------------------- *)
(* Micro-benchmarks *)

let fig8_kernel () =
  let open Gpr_isa in
  let open Gpr_isa.Types in
  let open Builder in
  let b = create ~name:"fig8" in
  let out = global_buffer b S32 "out" in
  let k = var b S32 "k" and i = var b S32 "i" and j = var b S32 "j" in
  assign b k (ci 0);
  while_ b
    (fun () -> ilt b ~$k (ci 50))
    (fun () ->
       assign b i (ci 0);
       assign b j ~$k;
       while_ b
         (fun () -> ilt b ~$i ~$j)
         (fun () ->
            st b out (ci 0) ~$k;
            assign b i ~$(iadd b ~$i (ci 1)));
       assign b k ~$(iadd b ~$k (ci 1)));
  st b out (ci 1) ~$k;
  finish b

let hotspot () = Option.get (Gpr_workloads.Registry.by_name "Hotspot")

let micro_tests () =
  let fig8 = fig8_kernel () in
  let launch = Gpr_isa.Types.launch_1d ~block:32 ~grid:1 in
  let w = hotspot () in
  let hk = w.kernel in
  let alloc_width = fun _ -> 16 in
  let fmt16 = Gpr_fp.Format_.of_level 4 in
  let placement =
    { Gpr_alloc.Alloc.reg0 = 0; mask0 = 0b1100_0011; reg1 = -1;
      mask1 = 0; slices = 4; bits = 16; signed = true; is_float = false }
  in
  let trace = lazy (Gpr_workloads.Workload.trace w ~quantize:None) in
  let halloc = lazy (Gpr_alloc.Alloc.baseline hk) in
  [
    Test.make ~name:"interval.mul"
      (Staged.stage (fun () ->
           ignore
             (Gpr_util.Interval.mul
                (Gpr_util.Interval.of_ints (-37) 122)
                (Gpr_util.Interval.of_ints 5 999))));
    Test.make ~name:"range-analysis.fig8"
      (Staged.stage (fun () ->
           ignore (Gpr_analysis.Range.analyze fig8 ~launch)));
    Test.make ~name:"ssa.convert.hotspot"
      (Staged.stage (fun () -> ignore (Gpr_analysis.Ssa.convert hk)));
    Test.make ~name:"liveness.hotspot"
      (Staged.stage (fun () -> ignore (Gpr_analysis.Liveness.compute hk)));
    Test.make ~name:"alloc.pack.hotspot"
      (Staged.stage (fun () ->
           ignore (Gpr_alloc.Alloc.run hk ~width_of:alloc_width)));
    Test.make ~name:"fp.quantize16"
      (Staged.stage (fun () ->
           ignore (Gpr_fp.Format_.quantize fmt16 3.14159265)));
    Test.make ~name:"datapath.roundtrip"
      (Staged.stage (fun () ->
           let r0, r1 = Gpr_regfile.Datapath.store_int placement (-1234) in
           ignore (Gpr_regfile.Datapath.load_int placement ~r0 ~r1)));
    Test.make ~name:"exec.hotspot-run"
      (Staged.stage (fun () -> ignore (Gpr_workloads.Workload.reference w)));
    Test.make ~name:"sim.hotspot-baseline"
      (Staged.stage (fun () ->
           ignore
             (Gpr_sim.Sim.run ~waves:1 Gpr_arch.Config.fermi_gtx480
                ~trace:(Lazy.force trace) ~alloc:(Lazy.force halloc)
                ~blocks_per_sm:4 ~mode:Gpr_sim.Sim.Baseline)));
  ]

let run_micro () =
  Gpr_util.Tab.section "Micro-benchmarks (Bechamel, monotonic clock)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let rows =
    List.map
      (fun test ->
         let elt = List.hd (Test.elements test) in
         let name = Test.Elt.name elt in
         let results = Benchmark.all cfg instances test in
         let analysis = Analyze.all ols Instance.monotonic_clock results in
         let nanos =
           Hashtbl.fold
             (fun _ v acc ->
                match Analyze.OLS.estimates v with
                | Some [ est ] -> est
                | _ -> acc)
             analysis nan
         in
         [ name;
           (if nanos >= 1e6 then Printf.sprintf "%.2f ms/op" (nanos /. 1e6)
            else if nanos >= 1e3 then Printf.sprintf "%.2f us/op" (nanos /. 1e3)
            else Printf.sprintf "%.1f ns/op" nanos) ])
      (micro_tests ())
  in
  Gpr_util.Tab.print ~header:[ "component"; "time" ] rows

(* ---------------------------------------------------------------- *)
(* Engine flags and per-section timing *)

let jobs = ref 0
let cache_dir = ref ""
let no_micro = ref false
let sim_throughput = ref false
let sim_kernels = ref ""
let analysis = ref false
let coloc = ref false
let faults = ref false

let speclist =
  [
    ("-j", Arg.Set_int jobs,
     "N  Parallel jobs (0 = auto: GPR_JOBS or the recommended domain count)");
    ("--jobs", Arg.Set_int jobs, "N  Same as -j");
    ("--cache-dir", Arg.Set_string cache_dir,
     "DIR  Content-addressed on-disk result cache");
    ("--no-micro", Arg.Set no_micro,
     "  Skip the Bechamel micro-benchmarks (part 2)");
    ("--sim-throughput", Arg.Set sim_throughput,
     "  Only time the flat simulator against the reference engine (a \
      single-tenant Sim_multi run) over the registry and write \
      BENCH_sim.json");
    ("--sim-kernels", Arg.Set_string sim_kernels,
     "A,B  Restrict --sim-throughput to the named registry kernels (the CI \
      smoke subset)");
    ("--analysis", Arg.Set analysis,
     "  Only time the static dataflow analyses (intervals vs the full \
      reduced product) over the registry and write BENCH_analysis.json");
    ("--coloc", Arg.Set coloc,
     "  Only run the co-scheduling benchmark (registry kernel pairs under \
      baseline vs slice per dispatch policy) and write BENCH_coloc.json");
    ("--faults", Arg.Set faults,
     "  Only run the fault-injection campaign (permanent register-file \
      defects swept under every scheme) and write BENCH_faults.json");
  ]

(* One timed section per table/figure of the evaluation, in
   [Experiments.print_all] order. *)
let sections : (string * (unit -> unit)) list =
  let module E = Gpr_core.Experiments in
  [
    ("table2", E.print_table2);
    ("table3", E.print_table3);
    ("fig8", E.print_fig8);
    ("widths", E.print_width_report);
    ("table4", E.print_table4);
    ("table1", E.print_table1);
    ("fig9", E.print_fig9);
    ("fig10", E.print_fig10);
    ("fig11", E.print_fig11);
    ("fig12", E.print_fig12);
    ("area", E.print_area);
    ("power", E.print_power);
    ("volta", E.print_volta);
    ("ablations", E.print_ablations);
  ]

(* All BENCH_*.json artifacts are rendered through one escaping-aware
   emitter ({!Gpr_obs.Json}); a runtest rule parses every committed
   artifact back with the same library's strict parser. *)
module J = Gpr_obs.Json

let seconds s = J.Float (Float.round (s *. 1000.0) /. 1000.0)

let write_engine_json ~jobs ~cache ~timed ~total =
  let hits, misses =
    match cache with
    | None -> (0, 0)
    | Some s -> (Gpr_engine.Store.hits s, Gpr_engine.Store.misses s)
  in
  J.write_file "BENCH_engine.json"
    (J.Obj
       [
         ("jobs", J.Int jobs);
         ( "cache_dir",
           J.Str (match cache with None -> "" | Some s -> Gpr_engine.Store.dir s)
         );
         ("cache_hits", J.Int hits);
         ("cache_misses", J.Int misses);
         ("total_seconds", seconds total);
         ( "sections",
           J.Arr
             (List.map
                (fun (name, secs) ->
                  J.Obj [ ("section", J.Str name); ("seconds", seconds secs) ])
                timed) );
       ])

(* ---------------------------------------------------------------- *)
(* Per-scheme timing: the full registry analysed and simulated under
   each registered register-file backend, written to
   BENCH_backend.json.  Schemes run in registry order, so later schemes
   reuse whatever shared state (plain traces, baseline stats) earlier
   ones memoised — the same composition `gpr report --backend` uses. *)

let run_backend_bench () =
  List.map
    (fun b ->
      let name = Gpr_backend.Backend.id b in
      let t0 = Unix.gettimeofday () in
      let rows = Gpr_core.Experiments.backend_comparison [ b ] in
      let secs = Unix.gettimeofday () -. t0 in
      let mean_delta =
        List.fold_left
          (fun acc (r : Gpr_core.Experiments.backend_row) ->
            acc +. r.b_ipc_vs_baseline_pct)
          0.0 rows
        /. float_of_int (max 1 (List.length rows))
      in
      let stalls =
        List.fold_left
          (fun acc (r : Gpr_core.Experiments.backend_row) ->
            Gpr_obs.Stall.add acc r.b_stalls)
          Gpr_obs.Stall.empty rows
      in
      (name, secs, List.length rows, mean_delta, stalls))
    Gpr_backend.Registry.all

let write_backend_json entries =
  J.write_file "BENCH_backend.json"
    (J.Obj
       [
         ( "backends",
           J.Arr
             (List.map
                (fun (name, secs, kernels, mean_delta, _) ->
                  J.Obj
                    [
                      ("backend", J.Str name);
                      ("seconds", seconds secs);
                      ("kernels", J.Int kernels);
                      ( "mean_ipc_vs_baseline_pct",
                        J.Float (Float.round (mean_delta *. 100.0) /. 100.0) );
                    ])
                entries) );
       ])

(* BENCH_obs.json: the registry-wide stall-attribution breakdown per
   scheme (summed over every kernel's simulation) plus the metrics
   registry's final snapshot — the observability counterpart of the
   timing artifacts above. *)
let write_obs_json entries =
  J.write_file "BENCH_obs.json"
    (J.Obj
       [
         ( "backends",
           J.Arr
             (List.map
                (fun (name, _, kernels, _, stalls) ->
                  match Gpr_obs.Stall.to_json stalls with
                  | J.Obj fields ->
                    J.Obj
                      (("backend", J.Str name) :: ("kernels", J.Int kernels)
                      :: fields)
                  | other -> other)
                entries) );
         ("metrics", Gpr_obs.Metrics.to_json ());
       ])

(* ---------------------------------------------------------------- *)
(* Simulator throughput: the full registry simulated under every
   registered backend by the flat engine and by the reference engine
   (a single-tenant [Sim_multi] run), written to BENCH_sim.json as
   cycles/sec per scheme.  The reference run doubles as an in-bench
   equivalence audit: any stats divergence aborts with exit 1.  Each
   kernel row also records [Gpr_util.Stats.reference_slice]'s time,
   interleaved with that kernel's calls, so the tier-2 perf-regression
   test in test/test_sim.ml can compare throughput in reference units;
   the recorded host limits that comparison to the machine the
   baseline was committed from. *)

let run_sim_bench () =
  let module W = Gpr_workloads.Workload in
  let module Backend = Gpr_backend.Backend in
  let module Width = Gpr_analysis.Width in
  let module Sim = Gpr_sim.Sim in
  let cfg = Gpr_arch.Config.fermi_gtx480 in
  let waves = 6 in
  let kernels =
    if !sim_kernels = "" then Gpr_workloads.Registry.all
    else begin
      let wanted =
        List.filter_map
          (fun n ->
            let n = String.trim n in
            if n = "" then None else Some (String.lowercase_ascii n))
          (String.split_on_char ',' !sim_kernels)
      in
      List.filter
        (fun (w : W.t) ->
          List.mem (String.lowercase_ascii w.name) wanted)
        Gpr_workloads.Registry.all
    end
  in
  if kernels = [] then begin
    Printf.eprintf "--sim-throughput: no registry kernel matches %S\n"
      !sim_kernels;
    exit 2
  end;
  let sim_rounds = 5 in
  (* Microseconds: a smoke kernel's call takes about 10 ms. *)
  let sim_seconds s = J.Float (Float.round (s *. 1e6) /. 1e6) in
  let round1 x = Float.round (x *. 10.0) /. 10.0 in
  let round2 x = Float.round (x *. 100.0) /. 100.0 in
  let per_sec cycles secs =
    if secs <= 0.0 then 0.0 else float_of_int cycles /. secs
  in
  (* One untimed call of each engine per (scheme, kernel) compares
     their stats; the timed calls follow. *)
  let cases =
    List.map
      (fun scheme ->
        let module S = (val scheme : Backend.Scheme) in
        ( S.id,
          List.map
            (fun (w : W.t) ->
              let trace = W.trace w ~quantize:None in
              let width = Width.analyze w.kernel ~launch:w.launch in
              let res = S.analyze ~kernel:w.kernel ~width ~precision:None in
              let demand =
                Backend.demand cfg res
                  ~warps_per_block:(W.warps_per_block w)
                  ~shared_bytes_per_block:(W.shared_bytes_per_block w)
              in
              let occ =
                (Gpr_arch.Occupancy.of_demand cfg demand
                   ~warps_per_block:(W.warps_per_block w))
                  .Gpr_arch.Occupancy.blocks_per_sm
              in
              let mode = Backend.sim_mode scheme res in
              let alloc = res.Gpr_backend.Backend.alloc in
              let fast () =
                Sim.run ~waves cfg ~trace ~alloc ~blocks_per_sm:occ ~mode
              in
              let slow () =
                Gpr_sim.Sim_multi.single ~waves cfg ~trace ~alloc ~demand ~mode
              in
              let f = fast () in
              if Stdlib.compare f (slow ()) <> 0 then begin
                Printf.eprintf
                  "--sim-throughput: %s/%s: fast engine diverges from the \
                   reference engine\n"
                  w.name S.id;
                exit 1
              end;
              ( w.name, f.Sim.cycles,
                (fun () -> ignore (fast ())),
                fun () -> ignore (slow ()) ))
            kernels ))
      Gpr_backend.Registry.all
  in
  (* Each engine's seconds per kernel, and the reference slice's
     beside them: the fastest of [sim_rounds] calls in process CPU
     time.  The file records [rounds] so the tier-2 test in
     test/test_sim.ml measures the same statistic. *)
  let best =
    Gpr_util.Stats.best_cpu_times ~rounds:sim_rounds
      (Array.of_list
         (List.concat_map
            (fun (_, rows) ->
              List.concat_map
                (fun (_, _, fast, slow) ->
                  [ fast; slow; Gpr_util.Stats.reference_slice ])
                rows)
            cases))
  in
  let next = ref 0 in
  let take () =
    incr next;
    best.(!next - 1)
  in
  let schemes =
    List.map
      (fun (id, rows) ->
        let t_cycles = ref 0 and t_fast = ref 0.0 and t_ref = ref 0.0 in
        let rows =
          List.map
            (fun (name, cycles, _, _) ->
              let fsec = take () in
              let rsec = take () in
              let refsec = take () in
              t_cycles := !t_cycles + cycles;
              t_fast := !t_fast +. fsec;
              t_ref := !t_ref +. rsec;
              J.Obj
                [
                  ("kernel", J.Str name);
                  ("cycles", J.Int cycles);
                  ("seconds", sim_seconds fsec);
                  ("cycles_per_sec", J.Float (round1 (per_sec cycles fsec)));
                  ("ref_seconds", sim_seconds rsec);
                  ( "speedup",
                    J.Float (round2 (if fsec > 0.0 then rsec /. fsec else 0.0)) );
                  ("reference_seconds", sim_seconds refsec);
                ])
            rows
        in
        Printf.eprintf
          "[sim %-8s %7d kcycles  fast %6.2f s (%5.2f Mcyc/s)  ref %6.2f s  \
           %4.2fx]\n"
          id (!t_cycles / 1000) !t_fast
          (per_sec !t_cycles !t_fast /. 1e6)
          !t_ref
          (if !t_fast > 0.0 then !t_ref /. !t_fast else 0.0);
        ( id, !t_cycles, !t_fast, !t_ref,
          J.Obj
            [
              ("scheme", J.Str id);
              ("cycles", J.Int !t_cycles);
              ("seconds", sim_seconds !t_fast);
              ("cycles_per_sec", J.Float (round1 (per_sec !t_cycles !t_fast)));
              ("ref_seconds", sim_seconds !t_ref);
              ( "ref_cycles_per_sec",
                J.Float (round1 (per_sec !t_cycles !t_ref)) );
              ( "speedup",
                J.Float
                  (round2 (if !t_fast > 0.0 then !t_ref /. !t_fast else 0.0))
              );
              ("kernels", J.Arr rows);
            ] ))
      cases
  in
  let cycles =
    List.fold_left (fun a (_, c, _, _, _) -> a + c) 0 schemes
  in
  let fast = List.fold_left (fun a (_, _, f, _, _) -> a +. f) 0.0 schemes in
  let slow = List.fold_left (fun a (_, _, _, r, _) -> a +. r) 0.0 schemes in
  Printf.eprintf
    "[sim total    %7d kcycles  fast %6.2f s (%5.2f Mcyc/s)  ref %6.2f s  \
     %4.2fx]\n%!"
    (cycles / 1000) fast
    (per_sec cycles fast /. 1e6)
    slow
    (if fast > 0.0 then slow /. fast else 0.0);
  J.write_file "BENCH_sim.json"
    (J.Obj
       [
         ("host", J.Str (Unix.gethostname ()));
         ("reference", J.Str "Sim_multi.single");
         ("waves", J.Int waves);
         ("rounds", J.Int sim_rounds);
         ("kernels", J.Int (List.length kernels));
         ("schemes", J.Arr (List.map (fun (_, _, _, _, j) -> j) schemes));
         ( "total",
           J.Obj
             [
               ("cycles", J.Int cycles);
               ("seconds", sim_seconds fast);
               ("cycles_per_sec", J.Float (round1 (per_sec cycles fast)));
               ("ref_seconds", sim_seconds slow);
               ( "speedup",
                 J.Float
                   (round2 (if fast > 0.0 then slow /. fast else 0.0)) );
             ] );
       ])

(* ---------------------------------------------------------------- *)
(* Dataflow-analysis benchmark: per-kernel solve time for the interval
   analysis alone vs the full reduced product (known-bits, congruence
   and demanded-bits ride on top of the same e-SSA form), plus the
   narrow-integer deltas the product buys, written to
   BENCH_analysis.json. *)

let run_analysis_bench () =
  let module Wd = Gpr_analysis.Width in
  let module R = Gpr_analysis.Range in
  let module E = Gpr_core.Experiments in
  let reps = 3 in
  let time_us f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int reps
  in
  let round1 x = Float.round (x *. 10.0) /. 10.0 in
  let meta = E.width_report_data () in
  let rows =
    List.map
      (fun (w : Gpr_workloads.Workload.t) ->
        let interval_us =
          time_us (fun () -> R.analyze w.kernel ~launch:w.launch)
        in
        let product_us =
          time_us (fun () -> Wd.analyze w.kernel ~launch:w.launch)
        in
        let m =
          List.find (fun (r : E.width_row) -> r.wr_name = w.name) meta
        in
        Printf.eprintf
          "[analysis %-10s intervals %8.1f us  product %8.1f us  narrow %4d \
           -> %4d  bits saved %5d]\n"
          w.name interval_us product_us m.wr_interval_narrow
          m.wr_product_narrow m.wr_bits_saved;
        (interval_us, product_us, m))
      Gpr_workloads.Registry.all
  in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
  let sumi f = List.fold_left (fun a r -> a + f r) 0 rows in
  let t_interval = sum (fun (i, _, _) -> i)
  and t_product = sum (fun (_, p, _) -> p) in
  Printf.eprintf
    "[analysis total     intervals %8.1f us  product %8.1f us  narrow %4d \
     -> %4d  bits saved %5d]\n%!"
    t_interval t_product
    (sumi (fun (_, _, m) -> m.E.wr_interval_narrow))
    (sumi (fun (_, _, m) -> m.E.wr_product_narrow))
    (sumi (fun (_, _, m) -> m.E.wr_bits_saved));
  J.write_file "BENCH_analysis.json"
    (J.Obj
       [
         ("kernels", J.Int (List.length rows));
         ( "per_kernel",
           J.Arr
             (List.map
                (fun (ius, pus, (m : E.width_row)) ->
                  J.Obj
                    [
                      ("kernel", J.Str m.E.wr_name);
                      ("int_vars", J.Int m.E.wr_int_vars);
                      ("interval_us", J.Float (round1 ius));
                      ("product_us", J.Float (round1 pus));
                      ("narrow_interval", J.Int m.E.wr_interval_narrow);
                      ("narrow_product", J.Int m.E.wr_product_narrow);
                      ( "delta",
                        J.Int (m.E.wr_product_narrow - m.E.wr_interval_narrow)
                      );
                      ("bits_saved", J.Int m.E.wr_bits_saved);
                    ])
                rows) );
         ( "total",
           J.Obj
             [
               ("interval_us", J.Float (round1 t_interval));
               ("product_us", J.Float (round1 t_product));
               ( "narrow_interval",
                 J.Int (sumi (fun (_, _, m) -> m.E.wr_interval_narrow)) );
               ( "narrow_product",
                 J.Int (sumi (fun (_, _, m) -> m.E.wr_product_narrow)) );
               ( "bits_saved",
                 J.Int (sumi (fun (_, _, m) -> m.E.wr_bits_saved)) );
             ] );
       ])

(* ---------------------------------------------------------------- *)
(* Co-scheduling benchmark: registry kernel pairs co-resident on one
   SM under baseline vs slice for each dispatch policy, written to
   BENCH_coloc.json.  The artifact is the ISSUE's acceptance record:
   at least one pair must co-schedule strictly more resident blocks
   under the compressed file AND improve aggregate per-SM IPC. *)

let run_coloc_bench () =
  let module W = Gpr_workloads.Workload in
  let module M = Gpr_sim.Sim_multi in
  let module Q = Gpr_quality.Quality in
  let pairs = [ ("Hotspot", "DWT2D"); ("CFD", "GICOV") ] in
  let policies = [ "fifo"; "binpack" ] in
  let find n =
    match
      List.find_opt
        (fun (w : W.t) -> String.lowercase_ascii w.name = String.lowercase_ascii n)
        Gpr_workloads.Registry.all
    with
    | Some w -> w
    | None ->
      Printf.eprintf "--coloc: kernel %s not in the registry\n" n;
      exit 2
  in
  let scheme id =
    match Gpr_backend.Registry.find id with
    | Some b -> b
    | None ->
      Printf.eprintf "--coloc: backend %s not registered\n" id;
      exit 2
  in
  let base = scheme "baseline" and slice = scheme "slice" in
  let round2 x = Float.round (x *. 100.0) /. 100.0 in
  let round3 x = Float.round (x *. 1000.0) /. 1000.0 in
  let demonstrated = ref false in
  let records =
    List.concat_map
      (fun (a, b) ->
        let ws = [ find a; find b ] in
        let cs = List.map Gpr_core.Compress.analyze ws in
        List.map
          (fun pname ->
            let policy =
              match M.find_policy pname with
              | Some p -> p
              | None -> assert false
            in
            let co s = Gpr_core.Simulate.colocate ~policy s cs Q.High in
            let rb = co base and rs = co slice in
            let agg (r : M.result) = r.M.r_stats.Gpr_sim.Sim.sm_ipc in
            let gain =
              if agg rb > 0.0 then (agg rs /. agg rb -. 1.0) *. 100.0 else 0.0
            in
            let wins =
              rs.M.r_peak_resident_blocks > rb.M.r_peak_resident_blocks
              && agg rs > agg rb
            in
            if wins then demonstrated := true;
            Printf.eprintf
              "[coloc %-10s+%-10s %-7s blocks %d -> %d  sm_ipc %6.2f -> \
               %6.2f (%+.1f%%)  fair %.3f -> %.3f]\n%!"
              a b pname rb.M.r_peak_resident_blocks
              rs.M.r_peak_resident_blocks (agg rb) (agg rs) gain
              rb.M.r_fairness rs.M.r_fairness;
            let side tag (r : M.result) =
              ( tag,
                J.Obj
                  [
                    ("peak_resident_blocks", J.Int r.M.r_peak_resident_blocks);
                    ("peak_resident_warps", J.Int r.M.r_peak_resident_warps);
                    ("sm_ipc", J.Float (round2 (agg r)));
                    ("co_resident_cycles", J.Int r.M.r_co_resident_cycles);
                    ("admissions", J.Int r.M.r_admissions);
                    ("fairness", J.Float (round3 r.M.r_fairness));
                    ( "tenants",
                      J.Arr
                        (Array.to_list
                           (Array.map
                              (fun (t : M.tenant_stats) ->
                                J.Obj
                                  [
                                    ("kernel", J.Str t.M.ts_label);
                                    ( "peak_resident",
                                      J.Int t.M.ts_peak_resident );
                                    ("ipc", J.Float (round2 t.M.ts_ipc));
                                    ( "issue_share",
                                      J.Float (round3 t.M.ts_issue_share) );
                                  ])
                              r.M.r_tenants)) );
                  ] )
            in
            J.Obj
              [
                ("kernels", J.Arr [ J.Str a; J.Str b ]);
                ("policy", J.Str pname);
                ("ipc_gain_pct", J.Float (round2 gain));
                ("demonstrates_coresidency", J.Bool wins);
                side "baseline" rb;
                side "slice" rs;
              ])
          policies)
      pairs
  in
  if not !demonstrated then begin
    Printf.eprintf
      "--coloc: no pair/policy co-schedules more blocks AND improves \
       aggregate IPC under slice\n";
    exit 1
  end;
  J.write_file "BENCH_coloc.json"
    (J.Obj
       [
         ("pairs", J.Int (List.length pairs));
         ("policies", J.Arr (List.map (fun p -> J.Str p) policies));
         ("demonstrated", J.Bool !demonstrated);
         ("records", J.Arr records);
       ])

(* ---------------------------------------------------------------- *)
(* Fault-injection campaign: the growing defect population swept under
   every registered scheme, written to BENCH_faults.json.  The artifact
   is the ISSUE's acceptance record: slice and rrcd must absorb
   strictly more faults (mean per fuzz case before its first output
   corruption) than the conventional baseline file. *)

let run_faults_bench () =
  let module F = Gpr_check.Faults in
  let backends = Gpr_backend.Registry.names in
  let t0 = Unix.gettimeofday () in
  let results =
    F.run
      ~progress:(fun ~scheme ~injected ~corrupted ->
        Printf.eprintf "[faults %-8s %2d injected: %s]\n%!" scheme injected
          (if corrupted then "corruption" else "clean"))
      ~backends ()
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let absorbed name =
    match List.find_opt (fun r -> r.F.fr_scheme = name) results with
    | Some r -> r.F.fr_absorbed_mean
    | None ->
      Printf.eprintf "--faults: scheme %s missing from the campaign\n" name;
      exit 2
  in
  let base = absorbed "baseline" in
  let demonstrated = absorbed "slice" > base && absorbed "rrcd" > base in
  List.iter
    (fun (r : F.scheme_result) ->
      Printf.eprintf "[faults %-8s mean %4.1f  min %2d  first %s]\n%!"
        r.F.fr_scheme r.F.fr_absorbed_mean r.F.fr_absorbed
        (match r.F.fr_first_corrupt with
        | Some k -> string_of_int k
        | None -> "none"))
    results;
  if not demonstrated then begin
    Printf.eprintf
      "--faults: slice/rrcd do not absorb strictly more faults than the \
       baseline file\n";
    exit 1
  end;
  let round2 x = Float.round (x *. 100.0) /. 100.0 in
  J.write_file "BENCH_faults.json"
    (J.Obj
       [
         ("schemes", J.Arr (List.map (fun b -> J.Str b) backends));
         ("demonstrated", J.Bool demonstrated);
         ("elapsed_seconds", seconds elapsed);
         ( "results",
           J.Arr
             (List.map
                (fun (r : F.scheme_result) ->
                  J.Obj
                    [
                      ("scheme", J.Str r.F.fr_scheme);
                      ("cases", J.Int r.F.fr_cases);
                      ("max_faults", J.Int r.F.fr_max_faults);
                      ( "first_corrupt",
                        match r.F.fr_first_corrupt with
                        | Some k -> J.Int k
                        | None -> J.Null );
                      ("absorbed_min", J.Int r.F.fr_absorbed);
                      ( "absorbed_mean",
                        J.Float (round2 r.F.fr_absorbed_mean) );
                    ])
                results) );
       ])

(* ---------------------------------------------------------------- *)
(* Static verifier benchmark: per-pass time over the Table 4 registry
   plus the diagnostic counts, written to BENCH_lint.json so lint
   throughput regressions are visible alongside the engine timings. *)

let run_lint_bench () =
  let module L = Gpr_lint.Lint in
  let module D = Gpr_lint.Diag in
  let workloads = Gpr_workloads.Registry.all in
  let reps = 5 in
  let t0 = Unix.gettimeofday () in
  let ctxs =
    List.map
      (fun (w : Gpr_workloads.Workload.t) ->
        L.make_ctx
          ~buffer_len:(Gpr_workloads.Workload.buffer_len w)
          w.kernel ~launch:w.launch)
      workloads
  in
  let ctx_us = (Unix.gettimeofday () -. t0) *. 1e6 in
  let per_pass =
    List.map
      (fun (p : L.pass) ->
        let diags = List.concat_map p.p_run ctxs in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          List.iter (fun ctx -> ignore (p.p_run ctx)) ctxs
        done;
        let us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int reps in
        (p.p_name, us, List.length diags))
      L.passes
  in
  let all = List.concat_map L.run ctxs in
  let count sev = D.count sev all in
  (* Timings are nondeterministic, so like the engine timings they go to
     stderr — stdout stays byte-comparable across runs. *)
  List.iter
    (fun (name, us, n) ->
      Printf.eprintf "[lint %-12s %10.1f us  %4d diagnostic(s)]\n" name us n)
    per_pass;
  Printf.eprintf
    "[lint: %d kernels, %d error(s), %d warning(s), %d info]\n"
    (List.length workloads) (count D.Error) (count D.Warning) (count D.Info);
  J.write_file "BENCH_lint.json"
    (J.Obj
       [
         ("kernels", J.Int (List.length workloads));
         ("make_ctx_us", J.Float (Float.round (ctx_us *. 10.0) /. 10.0));
         ( "diagnostics",
           J.Obj
             [
               ("error", J.Int (count D.Error));
               ("warning", J.Int (count D.Warning));
               ("info", J.Int (count D.Info));
             ] );
         ( "passes",
           J.Arr
             (List.map
                (fun (name, us, n) ->
                  J.Obj
                    [
                      ("pass", J.Str name);
                      ("us", J.Float (Float.round (us *. 10.0) /. 10.0));
                      ("diags", J.Int n);
                    ])
                per_pass) );
       ])

let () =
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "dune exec bench/main.exe -- [-j N] [--cache-dir DIR] [--no-micro]\n\
    \                            [--sim-throughput [--sim-kernels A,B]]\n\
    \                            [--analysis] [--coloc] [--faults]";
  if !sim_throughput then begin
    run_sim_bench ();
    exit 0
  end;
  if !analysis then begin
    run_analysis_bench ();
    exit 0
  end;
  if !coloc then begin
    (if !cache_dir <> "" then begin
       let s = Gpr_engine.Store.create ~dir:!cache_dir () in
       Gpr_core.Compress.set_store (Some s);
       Gpr_core.Simulate.set_store (Some s)
     end);
    run_coloc_bench ();
    exit 0
  end;
  if !faults then begin
    run_faults_bench ();
    exit 0
  end;
  let jobs =
    if !jobs <= 0 then Gpr_engine.Pool.default_jobs () else !jobs
  in
  (* Metrics feed BENCH_obs.json; enabling them perturbs nothing the
     artifacts compare (stdout tables are metric-free). *)
  Gpr_obs.Metrics.set_enabled true;
  let cache =
    if !cache_dir = "" then None
    else begin
      let s = Gpr_engine.Store.create ~dir:!cache_dir () in
      Gpr_core.Compress.set_store (Some s);
      Gpr_core.Simulate.set_store (Some s);
      Some s
    end
  in
  print_endline
    "Reproduction of 'A GPU Register File using Static Data Compression'\n\
     (Angerd, Sintorn, Stenstrom - ICPP 2020).  One section per table and\n\
     figure of the paper; see EXPERIMENTS.md for the paper-vs-measured\n\
     comparison.";
  let t0 = Unix.gettimeofday () in
  let timed, backend_entries =
    Gpr_engine.Pool.with_pool ~jobs (fun pool ->
        Gpr_core.Experiments.use_pool (Some pool);
        Fun.protect
          ~finally:(fun () -> Gpr_core.Experiments.use_pool None)
          (fun () ->
             let timed =
               List.map
                 (fun (name, f) ->
                    let s0 = Unix.gettimeofday () in
                    f ();
                    (name, Unix.gettimeofday () -. s0))
                 sections
             in
             let b0 = Unix.gettimeofday () in
             let entries = run_backend_bench () in
             (timed @ [ ("backend", Unix.gettimeofday () -. b0) ], entries)))
  in
  let lint_timed =
    let s0 = Unix.gettimeofday () in
    run_lint_bench ();
    [ ("lint", Unix.gettimeofday () -. s0) ]
  in
  let micro_timed =
    if !no_micro then []
    else begin
      let s0 = Unix.gettimeofday () in
      run_micro ();
      [ ("micro", Unix.gettimeofday () -. s0) ]
    end
  in
  let total = Unix.gettimeofday () -. t0 in
  let timed = timed @ lint_timed @ micro_timed in
  Printf.eprintf "\n[engine: %d job%s%s]\n" jobs
    (if jobs = 1 then "" else "s")
    (match cache with
     | None -> ""
     | Some s ->
       Printf.sprintf "; cache %s: %d hits, %d misses"
         (Gpr_engine.Store.dir s) (Gpr_engine.Store.hits s)
         (Gpr_engine.Store.misses s));
  List.iter
    (fun (name, secs) -> Printf.eprintf "[section %-10s %8.2f s]\n" name secs)
    timed;
  List.iter
    (fun (name, secs, kernels, mean_delta, stalls) ->
      Printf.eprintf
        "[backend %-8s %8.2f s  %2d kernels  mean IPC vs baseline %+.1f%%  \
         stalls %s]\n"
        name secs kernels mean_delta
        (Gpr_obs.Stall.pct_string stalls))
    backend_entries;
  Printf.eprintf "[evaluation pipeline: %.1f s]\n%!" total;
  write_engine_json ~jobs ~cache ~timed ~total;
  write_backend_json backend_entries;
  write_obs_json backend_entries
