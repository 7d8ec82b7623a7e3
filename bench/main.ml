(* Benchmark harness: one table of named sections.

   [paper] regenerates every table and figure of the paper's evaluation
   (Tables 1-4, Figures 8-12, the Sec. 6.4 area model, the Sec. 6.5
   power argument and the Sec. 7 Volta scaling), one timed entry of
   [Gpr_core.Experiments.sections] at a time, then times each
   registered register-file backend over the registry.  Workload
   generation, the static framework and the timing simulation all run
   from scratch (or from the content-addressed store with
   [--cache-dir]).  Tables go to stdout, so stdout is byte-comparable
   across [-j 1] and [-j N] runs; timings go to stderr and to
   BENCH_engine.json, per-scheme timings to BENCH_backend.json, and the
   registry-wide stall breakdown with the metrics snapshot taken when
   the section ends to BENCH_obs.json.

   [lint] times the static verifier per kernel and per pass
   (BENCH_lint.json), [micro] runs Bechamel micro-benchmarks of the
   core components, [sim] times the flat simulator against the
   reference engine (BENCH_sim.json),
   [analysis] the dataflow analyses (BENCH_analysis.json), [coloc]
   co-schedules registry kernel pairs (BENCH_coloc.json) and [faults]
   sweeps permanent register-file defects (BENCH_faults.json).  Only
   [paper] opens a worker pool: idle domains join every minor-GC
   handshake and would skew the other sections' timings.

   A section returns its artifacts, or [Error] when its gate fails; the
   driver then exits 1 and leaves that section's artifacts untouched.
   Every artifact is emitted through Gpr_obs.Json and re-parsed by the
   json_check runtest rule.

   Run with:  dune exec bench/main.exe -- [-j N] [--cache-dir DIR]
                                          [--sim-kernels A,B] [SECTION...]
   With no SECTION the sections [paper lint micro] run. *)

open Bechamel
open Toolkit
module J = Gpr_obs.Json
module W = Gpr_workloads.Workload

type env = {
  jobs : int;  (** [paper]'s pool size, resolved. *)
  store : Gpr_engine.Store.t option;
  sim_kernels : W.t list;  (** The kernels [sim] times. *)
}

type artifacts = ((string * J.t) list, string) result

(* [fixed digits x] is [x] rounded to [digits] decimals.  The scales
   are exact literals, so the bits match [Float.round (x *. 100.0) /.
   100.0] and its siblings. *)
let fixed digits x =
  let scale = [| 1.0; 10.0; 100.0; 1000.0; 1e4; 1e5; 1e6 |].(digits) in
  J.Float (Float.round (x *. scale) /. scale)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ---------------------------------------------------------------- *)
(* micro: Bechamel micro-benchmarks *)

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

let micro_tests () =
  let fig8 = fig8_kernel () in
  let launch = Gpr_isa.Types.launch_1d ~block:32 ~grid:1 in
  let w = Option.get (Gpr_workloads.Registry.by_name "Hotspot") in
  let hk = w.kernel in
  let alloc_width = fun _ -> 16 in
  let fmt16 = Gpr_fp.Format_.of_level 4 in
  let placement =
    { Gpr_alloc.Alloc.reg0 = 0; mask0 = 0b1100_0011; reg1 = -1;
      mask1 = 0; slices = 4; bits = 16; signed = true; is_float = false }
  in
  let trace = lazy (W.trace w ~quantize:None) in
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
      (Staged.stage (fun () -> ignore (W.reference w)));
    Test.make ~name:"sim.hotspot-baseline"
      (Staged.stage (fun () ->
           ignore
             (Gpr_sim.Sim.run_loop ~waves:1 Gpr_arch.Config.fermi_gtx480
                ~trace:(Lazy.force trace) ~alloc:(Lazy.force halloc)
                ~blocks_per_sm:4 ~mode:Gpr_sim.Sim.Baseline)));
  ]

let micro _ : artifacts =
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
  Gpr_util.Tab.print ~header:[ "component"; "time" ] rows;
  Ok []

(* ---------------------------------------------------------------- *)
(* paper: every report of the evaluation, then each registered backend
   analysed and simulated over the full registry.  Schemes run in
   registry order, so later schemes reuse whatever shared state (plain
   traces, baseline stats) earlier ones memoised — the same composition
   `gpr report --backend` uses. *)

let backend_bench () =
  List.map
    (fun b ->
      let rows, secs =
        timed (fun () -> Gpr_core.Experiments.backend_comparison [ b ])
      in
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
      (Gpr_backend.Backend.id b, secs, List.length rows, mean_delta, stalls))
    Gpr_backend.Registry.all

let paper env : artifacts =
  (* Metrics feed BENCH_obs.json; enabling them perturbs nothing the
     artifacts compare (stdout tables are metric-free). *)
  Gpr_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Gpr_obs.Metrics.set_enabled false)
  @@ fun () ->
  print_endline
    "Reproduction of 'A GPU Register File using Static Data Compression'\n\
     (Angerd, Sintorn, Stenstrom - ICPP 2020).  One section per table and\n\
     figure of the paper; see EXPERIMENTS.md for the paper-vs-measured\n\
     comparison.";
  let (reports, (entries, backend_secs)), total =
    timed (fun () ->
        Gpr_core.Engine.with_pool ~jobs:env.jobs (fun () ->
            let reports =
              List.map
                (fun (name, print) -> (name, snd (timed print)))
                Gpr_core.Experiments.sections
            in
            (reports, timed backend_bench)))
  in
  let reports = reports @ [ ("backend", backend_secs) ] in
  List.iter
    (fun (name, secs) -> Printf.eprintf "[report %-10s %8.2f s]\n" name secs)
    reports;
  List.iter
    (fun (name, secs, kernels, mean_delta, stalls) ->
      Printf.eprintf
        "[backend %-8s %8.2f s  %2d kernels  mean IPC vs baseline %+.1f%%  \
         stalls %s]\n"
        name secs kernels mean_delta
        (Gpr_obs.Stall.pct_string stalls))
    entries;
  let dir, hits, misses =
    match env.store with
    | None -> ("", 0, 0)
    | Some s ->
      Gpr_engine.Store.(dir s, hits s, misses s)
  in
  Ok
    [
      ( "BENCH_engine.json",
        J.Obj
          [
            ("jobs", J.Int env.jobs);
            ("cache_dir", J.Str dir);
            ("cache_hits", J.Int hits);
            ("cache_misses", J.Int misses);
            ("total_seconds", fixed 3 total);
            ( "sections",
              J.Arr
                (List.map
                   (fun (name, secs) ->
                     J.Obj [ ("section", J.Str name); ("seconds", fixed 3 secs) ])
                   reports) );
          ] );
      ( "BENCH_backend.json",
        J.Obj
          [
            ( "backends",
              J.Arr
                (List.map
                   (fun (name, secs, kernels, mean_delta, _) ->
                     J.Obj
                       [
                         ("backend", J.Str name);
                         ("seconds", fixed 3 secs);
                         ("kernels", J.Int kernels);
                         ("mean_ipc_vs_baseline_pct", fixed 2 mean_delta);
                       ])
                   entries) );
          ] );
      (* The observability counterpart of the timing artifacts: each
         scheme's stall attribution summed over every kernel, and the
         metrics registry as this section leaves it. *)
      ( "BENCH_obs.json",
        J.Obj
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
          ] );
    ]

(* ---------------------------------------------------------------- *)
(* sim: every registered backend simulated over the kernels by the flat
   engine's cycle loop ([Sim.run_loop], which never answers from an
   earlier identical run) and by the reference engine (a single-tenant
   [Sim_multi] run), as cycles/sec per scheme.  The reference run doubles as an
   in-bench equivalence audit: any stats divergence is the section's
   gate.  Each kernel row also records [Gpr_util.Stats.reference_slice]'s
   time, interleaved with that kernel's calls, so the tier-2
   perf-regression test in test/test_sim.ml can compare throughput in
   reference units; the recorded host limits that comparison to the
   machine the baseline was committed from. *)

let sim env : artifacts =
  let module Backend = Gpr_backend.Backend in
  let module Sim = Gpr_sim.Sim in
  let cfg = Gpr_arch.Config.fermi_gtx480 in
  let waves = 6 and rounds = 5 in
  let per_sec cycles secs =
    if secs <= 0.0 then 0.0 else float_of_int cycles /. secs
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  (* Microseconds: a smoke kernel's call takes about 10 ms. *)
  let timing ?(ref_rate = false) cycles fast slow =
    [ ("cycles", J.Int cycles); ("seconds", fixed 6 fast);
      ("cycles_per_sec", fixed 1 (per_sec cycles fast));
      ("ref_seconds", fixed 6 slow) ]
    @ (if ref_rate then
         [ ("ref_cycles_per_sec", fixed 1 (per_sec cycles slow)) ]
       else [])
    @ [ ("speedup", fixed 2 (ratio slow fast)) ]
  in
  let totals =
    List.fold_left
      (fun (c, f, r) ((c', f', r'), _) -> (c + c', f +. f', r +. r'))
      (0, 0.0, 0.0)
  in
  let report tag cycles fast slow =
    Printf.eprintf
      "[sim %-8s %7d kcycles  fast %6.2f s (%5.2f Mcyc/s)  ref %6.2f s  \
       %4.2fx]\n%!"
      tag (cycles / 1000) fast
      (per_sec cycles fast /. 1e6)
      slow (ratio slow fast)
  in
  (* One untimed call of each engine per (scheme, kernel) compares
     their stats; the timed calls follow. *)
  let exception Diverged of string in
  match
    List.map
      (fun scheme ->
        let module S = (val scheme : Backend.Scheme) in
        ( S.id,
          List.map
            (fun (w : W.t) ->
              let trace = W.trace w ~quantize:None in
              let width = Gpr_analysis.Width.analyze w.kernel ~launch:w.launch in
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
              let alloc = res.Backend.alloc in
              let fast () =
                Sim.run_loop ~waves cfg ~trace ~alloc ~blocks_per_sm:occ ~mode
              in
              let slow () =
                Gpr_sim.Sim_multi.single ~waves cfg ~trace ~alloc ~demand ~mode
              in
              let f = fast () in
              if Stdlib.compare f (slow ()) <> 0 then
                raise
                  (Diverged
                     (Printf.sprintf
                        "%s/%s: fast engine diverges from the reference engine"
                        w.name S.id));
              ( w.name, f.Sim.cycles,
                (fun () -> ignore (fast ())),
                fun () -> ignore (slow ()) ))
            env.sim_kernels ))
      Gpr_backend.Registry.all
  with
  | exception Diverged msg -> Error msg
  | cases ->
    (* Each engine's seconds per kernel, and the reference slice's
       beside them: the fastest of [rounds] calls in process CPU time.
       The file records [rounds] so the tier-2 test in test/test_sim.ml
       measures the same statistic. *)
    let best =
      Gpr_util.Stats.best_cpu_times ~rounds
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
          let rows =
            List.map
              (fun (name, cycles, _, _) ->
                let fsec = take () in
                let rsec = take () in
                let refsec = take () in
                ( (cycles, fsec, rsec),
                  J.Obj
                    ((("kernel", J.Str name) :: timing cycles fsec rsec)
                    @ [ ("reference_seconds", fixed 6 refsec) ]) ))
              rows
          in
          let cycles, fast, slow = totals rows in
          report id cycles fast slow;
          ( (cycles, fast, slow),
            J.Obj
              ((("scheme", J.Str id) :: timing ~ref_rate:true cycles fast slow)
              @ [ ("kernels", J.Arr (List.map snd rows)) ]) ))
        cases
    in
    let cycles, fast, slow = totals schemes in
    report "total" cycles fast slow;
    Ok
      [
        ( "BENCH_sim.json",
          J.Obj
            [
              ("host", J.Str (Unix.gethostname ()));
              ("reference", J.Str "Sim_multi.single");
              ("waves", J.Int waves);
              ("rounds", J.Int rounds);
              ("kernels", J.Int (List.length env.sim_kernels));
              ("schemes", J.Arr (List.map snd schemes));
              ("total", J.Obj (timing cycles fast slow));
            ] );
      ]

(* ---------------------------------------------------------------- *)
(* analysis: per-kernel solve time for the interval analysis alone vs
   the full reduced product (known-bits, congruence and demanded-bits
   ride on top of the same e-SSA form), plus the narrow-integer deltas
   the product buys. *)

let analysis _ : artifacts =
  let module E = Gpr_core.Experiments in
  let reps = 3 in
  let time_us f =
    let (), secs =
      timed (fun () ->
          for _ = 1 to reps do
            ignore (Sys.opaque_identity (f ()))
          done)
    in
    secs *. 1e6 /. float_of_int reps
  in
  let meta = E.width_report_data () in
  let rows =
    List.map
      (fun (w : W.t) ->
        let interval_us =
          time_us (fun () -> Gpr_analysis.Range.analyze w.kernel ~launch:w.launch)
        in
        let product_us =
          time_us (fun () -> Gpr_analysis.Width.analyze w.kernel ~launch:w.launch)
        in
        let m = List.find (fun (r : E.width_row) -> r.wr_name = w.name) meta in
        Printf.eprintf
          "[analysis %-10s intervals %8.1f us  product %8.1f us  narrow %4d \
           -> %4d  bits saved %5d]\n"
          w.name interval_us product_us m.wr_interval_narrow
          m.wr_product_narrow m.wr_bits_saved;
        (interval_us, product_us, m))
      Gpr_workloads.Registry.all
  in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
  let sumi f = List.fold_left (fun a (_, _, m) -> a + f m) 0 rows in
  let t_interval = sum (fun (i, _, _) -> i)
  and t_product = sum (fun (_, p, _) -> p)
  and narrow_interval = sumi (fun m -> m.E.wr_interval_narrow)
  and narrow_product = sumi (fun m -> m.E.wr_product_narrow)
  and bits_saved = sumi (fun m -> m.E.wr_bits_saved) in
  Printf.eprintf
    "[analysis total     intervals %8.1f us  product %8.1f us  narrow %4d \
     -> %4d  bits saved %5d]\n%!"
    t_interval t_product narrow_interval narrow_product bits_saved;
  Ok
    [
      ( "BENCH_analysis.json",
        J.Obj
          [
            ("kernels", J.Int (List.length rows));
            ( "per_kernel",
              J.Arr
                (List.map
                   (fun (ius, pus, (m : E.width_row)) ->
                     J.Obj
                       [
                         ("kernel", J.Str m.wr_name);
                         ("int_vars", J.Int m.wr_int_vars);
                         ("interval_us", fixed 1 ius);
                         ("product_us", fixed 1 pus);
                         ("narrow_interval", J.Int m.wr_interval_narrow);
                         ("narrow_product", J.Int m.wr_product_narrow);
                         ( "delta",
                           J.Int (m.wr_product_narrow - m.wr_interval_narrow) );
                         ("bits_saved", J.Int m.wr_bits_saved);
                       ])
                   rows) );
            ( "total",
              J.Obj
                [
                  ("interval_us", fixed 1 t_interval);
                  ("product_us", fixed 1 t_product);
                  ("narrow_interval", J.Int narrow_interval);
                  ("narrow_product", J.Int narrow_product);
                  ("bits_saved", J.Int bits_saved);
                ] );
          ] );
    ]

(* ---------------------------------------------------------------- *)
(* coloc: registry kernel pairs co-resident on one SM under baseline vs
   slice for each dispatch policy.  The gate: at least one pair must
   co-schedule strictly more resident blocks under the compressed file
   AND improve aggregate per-SM IPC. *)

let coloc _ : artifacts =
  let module M = Gpr_sim.Sim_multi in
  let pairs = [ ("Hotspot", "DWT2D"); ("CFD", "GICOV") ] in
  let policies = [ M.fifo; M.binpack ] in
  let policy_id policy =
    let module P = (val policy : M.POLICY) in
    P.id
  in
  let base = Gpr_backend.Registry.find_exn "baseline"
  and slice = Gpr_backend.Registry.find_exn "slice" in
  let records =
    List.concat_map
      (fun (a, b) ->
        let cs =
          List.map
            (fun n ->
              Gpr_core.Compress.analyze
                (Option.get (Gpr_workloads.Registry.by_name n)))
            [ a; b ]
        in
        List.map
          (fun policy ->
            let pname = policy_id policy in
            let co s =
              Gpr_core.Simulate.colocate ~policy s cs Gpr_quality.Quality.High
            in
            let rb = co base and rs = co slice in
            let agg (r : M.result) = r.r_stats.Gpr_sim.Sim.sm_ipc in
            let gain =
              if agg rb > 0.0 then (agg rs /. agg rb -. 1.0) *. 100.0 else 0.0
            in
            let wins =
              rs.r_peak_resident_blocks > rb.r_peak_resident_blocks
              && agg rs > agg rb
            in
            Printf.eprintf
              "[coloc %-10s+%-10s %-7s blocks %d -> %d  sm_ipc %6.2f -> \
               %6.2f (%+.1f%%)  fair %.3f -> %.3f]\n%!"
              a b pname rb.r_peak_resident_blocks rs.r_peak_resident_blocks
              (agg rb) (agg rs) gain rb.r_fairness rs.r_fairness;
            let side tag (r : M.result) =
              ( tag,
                J.Obj
                  [
                    ("peak_resident_blocks", J.Int r.r_peak_resident_blocks);
                    ("peak_resident_warps", J.Int r.r_peak_resident_warps);
                    ("sm_ipc", fixed 2 (agg r));
                    ("co_resident_cycles", J.Int r.r_co_resident_cycles);
                    ("admissions", J.Int r.r_admissions);
                    ("fairness", fixed 3 r.r_fairness);
                    ( "tenants",
                      J.Arr
                        (Array.to_list
                           (Array.map
                              (fun (t : M.tenant_stats) ->
                                J.Obj
                                  [
                                    ("kernel", J.Str t.ts_label);
                                    ("peak_resident", J.Int t.ts_peak_resident);
                                    ("ipc", fixed 2 t.ts_ipc);
                                    ("issue_share", fixed 3 t.ts_issue_share);
                                  ])
                              r.r_tenants)) );
                  ] )
            in
            ( wins,
              J.Obj
                [
                  ("kernels", J.Arr [ J.Str a; J.Str b ]);
                  ("policy", J.Str pname);
                  ("ipc_gain_pct", fixed 2 gain);
                  ("demonstrates_coresidency", J.Bool wins);
                  side "baseline" rb;
                  side "slice" rs;
                ] ))
          policies)
      pairs
  in
  if not (List.exists fst records) then
    Error
      "no pair/policy co-schedules more blocks AND improves aggregate IPC \
       under slice"
  else
    Ok
      [
        ( "BENCH_coloc.json",
          J.Obj
            [
              ("pairs", J.Int (List.length pairs));
              ( "policies",
                J.Arr (List.map (fun p -> J.Str (policy_id p)) policies) );
              ("demonstrated", J.Bool true);
              ("records", J.Arr (List.map snd records));
            ] );
      ]

(* ---------------------------------------------------------------- *)
(* faults: the growing defect population swept under every registered
   scheme.  The gate: slice and rrcd must absorb strictly more faults
   (mean per fuzz case before its first output corruption) than the
   conventional baseline file. *)

let faults _ : artifacts =
  let module F = Gpr_check.Faults in
  let backends = Gpr_backend.Registry.names in
  let results, elapsed =
    timed (fun () ->
        F.run
          ~progress:(fun ~scheme ~injected ~corrupted ->
            Printf.eprintf "[faults %-8s %2d injected: %s]\n%!" scheme
              injected
              (if corrupted then "corruption" else "clean"))
          ~backends ())
  in
  let absorbed name =
    (List.find (fun r -> r.F.fr_scheme = name) results).F.fr_absorbed_mean
  in
  List.iter
    (fun (r : F.scheme_result) ->
      Printf.eprintf "[faults %-8s mean %4.1f  min %2d  first %s]\n%!"
        r.fr_scheme r.fr_absorbed_mean r.fr_absorbed
        (match r.fr_first_corrupt with
        | Some k -> string_of_int k
        | None -> "none"))
    results;
  let base = absorbed "baseline" in
  if not (absorbed "slice" > base && absorbed "rrcd" > base) then
    Error "slice/rrcd do not absorb strictly more faults than the baseline file"
  else
    Ok
      [
        ( "BENCH_faults.json",
          J.Obj
            [
              ("schemes", J.Arr (List.map (fun b -> J.Str b) backends));
              ("demonstrated", J.Bool true);
              ("elapsed_seconds", fixed 3 elapsed);
              ( "results",
                J.Arr
                  (List.map
                     (fun (r : F.scheme_result) ->
                       J.Obj
                         [
                           ("scheme", J.Str r.fr_scheme);
                           ("cases", J.Int r.fr_cases);
                           ("max_faults", J.Int r.fr_max_faults);
                           ( "first_corrupt",
                             match r.fr_first_corrupt with
                             | Some k -> J.Int k
                             | None -> J.Null );
                           ("absorbed_min", J.Int r.fr_absorbed);
                           ("absorbed_mean", fixed 2 r.fr_absorbed_mean);
                         ])
                     results) );
            ] );
      ]

(* ---------------------------------------------------------------- *)
(* lint: per-kernel and per-pass static-verifier time over the Table 4
   registry plus the diagnostic counts.  A kernel's [make_ctx_us] and
   [lint_us] (context plus every pass, i.e. [Lint.lint]) are medians of
   11 runs. *)

let lint _ : artifacts =
  let module L = Gpr_lint.Lint in
  let module D = Gpr_lint.Diag in
  let workloads = Gpr_workloads.Registry.all in
  let reps = 5 in
  let ctxs, ctx_secs =
    timed (fun () ->
        List.map
          (fun (w : W.t) ->
            L.make_ctx ~buffer_len:(W.buffer_len w) w.kernel ~launch:w.launch)
          workloads)
  in
  let per_pass =
    List.map
      (fun (p : L.pass) ->
        let diags = List.concat_map p.p_run ctxs in
        let (), secs =
          timed (fun () ->
              for _ = 1 to reps do
                List.iter (fun ctx -> ignore (p.p_run ctx)) ctxs
              done)
        in
        (p.p_name, secs *. 1e6 /. float_of_int reps, List.length diags))
      L.passes
  in
  let median_us f =
    let samples = Array.init 11 (fun _ -> snd (timed f) *. 1e6) in
    Array.sort compare samples;
    samples.(5)
  in
  let per_kernel =
    List.map
      (fun (w : W.t) ->
        let buffer_len = W.buffer_len w in
        ( w.name,
          median_us (fun () -> L.make_ctx ~buffer_len w.kernel ~launch:w.launch),
          median_us (fun () -> L.lint ~buffer_len w.kernel ~launch:w.launch) ))
      workloads
  in
  let all = List.concat_map L.run ctxs in
  let count sev = D.count sev all in
  List.iter
    (fun (name, ctx_us, us) ->
      Printf.eprintf "[lint %-12s make_ctx %8.1f us  lint %8.1f us]\n" name
        ctx_us us)
    per_kernel;
  List.iter
    (fun (name, us, n) ->
      Printf.eprintf "[lint %-12s %10.1f us  %4d diagnostic(s)]\n" name us n)
    per_pass;
  Printf.eprintf "[lint: %d kernels, %d error(s), %d warning(s), %d info]\n"
    (List.length workloads) (count D.Error) (count D.Warning) (count D.Info);
  Ok
    [
      ( "BENCH_lint.json",
        J.Obj
          [
            ("kernels", J.Int (List.length workloads));
            ("make_ctx_us", fixed 1 (ctx_secs *. 1e6));
            ( "per_kernel",
              J.Arr
                (List.map
                   (fun (name, ctx_us, us) ->
                     J.Obj
                       [
                         ("kernel", J.Str name);
                         ("make_ctx_us", fixed 1 ctx_us);
                         ("lint_us", fixed 1 us);
                       ])
                   per_kernel) );
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
                         ("pass", J.Str name); ("us", fixed 1 us);
                         ("diags", J.Int n);
                       ])
                   per_pass) );
          ] );
    ]

(* ---------------------------------------------------------------- *)
(* The driver *)

let sections =
  [
    ("paper", paper); ("lint", lint); ("micro", micro); ("sim", sim);
    ("analysis", analysis); ("coloc", coloc); ("faults", faults);
  ]

let default_sections = [ "paper"; "lint"; "micro" ]

let () =
  let jobs = ref 0 and cache_dir = ref None in
  let sim_kernels = ref Gpr_workloads.Registry.all and chosen = ref [] in
  let kernels_of s =
    let names =
      List.filter (( <> ) "") (List.map String.trim (String.split_on_char ',' s))
    in
    match List.filter (fun n -> Gpr_workloads.Registry.by_name n = None) names with
    | _ :: _ as unknown ->
      raise (Arg.Bad ("unknown registry kernel(s) " ^ String.concat ", " unknown))
    | [] when names = [] -> raise (Arg.Bad "--sim-kernels names no kernel")
    | [] ->
      let wanted = List.filter_map Gpr_workloads.Registry.by_name names in
      sim_kernels :=
        List.filter (fun w -> List.memq w wanted) Gpr_workloads.Registry.all
  in
  Arg.parse
    [
      ("-j", Arg.Set_int jobs,
       "N  Parallel jobs for paper (0 = auto: GPR_JOBS or the recommended \
        domain count)");
      ("--jobs", Arg.Set_int jobs, "N  Same as -j");
      ("--cache-dir", Arg.String (fun d -> cache_dir := Some d),
       "DIR  Content-addressed on-disk result cache");
      ("--sim-kernels", Arg.String kernels_of,
       "A,B  Restrict sim to the named registry kernels (the CI smoke \
        subset)");
    ]
    (fun name ->
      if List.mem_assoc name sections then chosen := name :: !chosen
      else raise (Arg.Bad ("unknown section " ^ name)))
    ("dune exec bench/main.exe -- [-j N] [--cache-dir DIR] [--sim-kernels \
      A,B] [SECTION...]\nSECTION is one of "
    ^ String.concat ", " (List.map fst sections)
    ^ " (default: " ^ String.concat " " default_sections ^ ")");
  let chosen = if !chosen = [] then default_sections else !chosen in
  let env =
    { jobs = Gpr_core.Engine.jobs !jobs;
      store = Gpr_core.Engine.attach_store !cache_dir;
      sim_kernels = !sim_kernels }
  in
  List.iter
    (fun (name, run) ->
      if List.mem name chosen then begin
        let result, secs = timed (fun () -> run env) in
        Printf.eprintf "[section %-10s %8.2f s]\n%!" name secs;
        match result with
        | Ok artifacts -> List.iter (fun (file, j) -> J.write_file file j) artifacts
        | Error msg ->
          Printf.eprintf "bench %s: %s\n%!" name msg;
          exit 1
      end)
    sections;
  Option.iter
    (fun s ->
      Printf.eprintf "[cache %s: %d hits, %d misses]\n%!"
        (Gpr_engine.Store.dir s) (Gpr_engine.Store.hits s)
        (Gpr_engine.Store.misses s))
    env.store
