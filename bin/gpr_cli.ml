(* Command-line driver for the reproduction: list kernels, run the
   static framework on one kernel, run the timing simulation, or print
   any table/figure of the paper. *)

open Cmdliner
module Q = Gpr_quality.Quality
module W = Gpr_workloads.Workload
module Registry = Gpr_workloads.Registry
module Compress = Gpr_core.Compress
module Simulate = Gpr_core.Simulate
module Experiments = Gpr_core.Experiments
module Tab = Gpr_util.Tab

let find_workload name =
  match Registry.by_name name with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown kernel %s, try `gpr list` (available: %s)\n" name
      (String.concat ", " Registry.names);
    exit 1

let kernel_arg =
  let doc = "Kernel name (see $(b,gpr list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)

(* ---------------- register-file scheme selection ---------------- *)

let backend_arg =
  let doc =
    "Comma-separated register-file scheme(s) from the backend registry \
     (available: "
    ^ String.concat ", " Gpr_backend.Registry.names
    ^ ")."
  in
  Arg.(value
       & opt (list string) [ "slice" ]
       & info [ "backend" ] ~docv:"NAME[,NAME...]" ~doc)

let resolve_backends names =
  List.map
    (fun n ->
      match Gpr_backend.Registry.find n with
      | Some b -> b
      | None ->
        Printf.eprintf "unknown backend %s (available: %s)\n" n
          (String.concat ", " Gpr_backend.Registry.names);
        exit 1)
    names

let resolve_policy name =
  match Gpr_sim.Sim_multi.find_policy name with
  | Some p -> p
  | None ->
    Printf.eprintf
      "unknown policy %s, try `--policy fifo|rr|binpack` (available: %s)\n"
      name
      (String.concat ", " Gpr_sim.Sim_multi.policy_names);
    exit 1

(* ---------------- execution engine plumbing ---------------- *)

let jobs_arg =
  let doc =
    "Parallel jobs for the execution engine.  0 (the default) means \
     auto: the $(b,GPR_JOBS) environment variable when set, otherwise \
     the recommended domain count.  Serial and parallel runs produce \
     identical output."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_dir_arg =
  let doc =
    "Content-addressed on-disk result cache (created if missing).  Warm \
     runs skip the precision tuner and the timing simulations; stale or \
     corrupt entries are recomputed silently."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

module Engine = Gpr_core.Engine

(* Stats go to stderr so stdout stays byte-comparable across cold and
   warm runs (the CI smoke relies on this). *)
let print_store_stats = function
  | None -> ()
  | Some s ->
    Printf.eprintf "[gpr cache: %d hits, %d misses, dir %s]\n%!"
      (Gpr_engine.Store.hits s) (Gpr_engine.Store.misses s)
      (Gpr_engine.Store.dir s)

let with_store cache_dir f =
  let store = Engine.attach_store cache_dir in
  Fun.protect ~finally:(fun () -> print_store_stats store) f

let with_engine ~jobs ~cache_dir f =
  with_store cache_dir (fun () -> Engine.with_pool ~jobs f)

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (w : W.t) ->
         Printf.printf "%-12s group %d  %-11s  %3d regs (paper)  %2d warps/block\n"
           w.name w.group (Q.metric_name w.metric) w.paper_regs
           (W.warps_per_block w))
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the evaluated kernels (Table 4)")
    Term.(const run $ const ())

(* ---------------- pressure ---------------- *)

let pressure_cmd =
  let run name cache_dir =
    with_store cache_dir @@ fun () ->
    let w = find_workload name in
    let c = Compress.analyze w in
    Tab.print
      ~header:[ "Configuration"; "Registers/thread"; "Quality" ]
      [
        [ "Original"; string_of_int c.baseline.pressure; "-" ];
        [ "Narrow integers"; string_of_int c.int_only.pressure; "-" ];
        [ "Narrow floats (perfect)";
          string_of_int c.perfect.alloc_float_only.pressure;
          Q.score_to_string c.perfect.achieved_score ];
        [ "Narrow floats (high)";
          string_of_int c.high.alloc_float_only.pressure;
          Q.score_to_string c.high.achieved_score ];
        [ "Ints + floats (perfect)";
          string_of_int c.perfect.alloc_both.pressure;
          Q.score_to_string c.perfect.achieved_score ];
        [ "Ints + floats (high)";
          string_of_int c.high.alloc_both.pressure;
          Q.score_to_string c.high.achieved_score ];
      ];
    let occ alloc = (Compress.occupancy c alloc).Gpr_arch.Occupancy.blocks_per_sm in
    Printf.printf "Blocks/SM: %d original -> %d (perfect) / %d (high)\n"
      (occ c.baseline) (occ c.perfect.alloc_both) (occ c.high.alloc_both)
  in
  Cmd.v
    (Cmd.info "pressure"
       ~doc:"Run the static framework on one kernel and report register \
             pressure under each configuration (a Fig. 9 column)")
    Term.(const run $ kernel_arg $ cache_dir_arg)

(* ---------------- sim ---------------- *)

let sim_cmd =
  let delay =
    Arg.(value & opt (some int) None
         & info [ "writeback-delay" ] ~docv:"CYCLES"
             ~doc:"Writeback delay of the proposed organisation (Sec. 6.3); \
                   default: the slice scheme's own (3 cycles).")
  in
  let run name delay cache_dir =
    with_store cache_dir @@ fun () ->
    let w = find_workload name in
    let c = Compress.analyze w in
    let b = Simulate.baseline c in
    let p = Simulate.proposed ?writeback_delay:delay c Q.High in
    let row tag (s : Gpr_sim.Sim.stats) =
      [ tag; string_of_int s.cycles; Tab.fp s.gpu_ipc;
        Tab.pct (100.0 *. s.l1_hit_rate); Tab.pct (100.0 *. s.tex_hit_rate);
        string_of_int s.double_fetches; string_of_int s.conversions ]
    in
    Tab.print
      ~header:[ "Config"; "Cycles"; "IPC"; "L1 hit"; "Tex hit";
                "Double fetches"; "Conversions" ]
      [ row "baseline" b; row "proposed(high)" p ];
    Printf.printf "IPC change: %+.1f%%\n"
      (100.0 *. ((p.gpu_ipc /. b.gpu_ipc) -. 1.0))
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Simulate one kernel on the baseline and proposed register files")
    Term.(const run $ kernel_arg $ delay $ cache_dir_arg)

(* ---------------- fault campaign (check --faults / report --pareto) --- *)

(* With the default --backend the whole registry is swept: the campaign
   is a cross-scheme comparison, so one scheme alone is rarely what you
   want. *)
let fault_campaign ~seed ~cases ~max_faults backends =
  let names =
    if backends = [ "slice" ] then Gpr_backend.Registry.names else backends
  in
  ignore (resolve_backends names);
  let progress ~scheme ~injected ~corrupted =
    Printf.printf "  %-8s %2d injected: %s\n%!" scheme injected
      (if corrupted then "first corruption" else "clean")
  in
  Gpr_check.Faults.run ~seed ~cases ~max_faults ~progress ~backends:names ()

let print_fault_campaign (results : Gpr_check.Faults.scheme_result list) =
  Tab.section
    "Fault-injection campaign: permanent defects absorbed before the first \
     output corruption";
  Tab.print
    ~header:[ "Scheme"; "Mean absorbed"; "Min absorbed"; "First corruption";
              "Cases"; "Sweep max" ]
    (List.map
       (fun (r : Gpr_check.Faults.scheme_result) ->
          [ r.Gpr_check.Faults.fr_scheme;
            Tab.fp ~digits:1 r.Gpr_check.Faults.fr_absorbed_mean;
            string_of_int r.Gpr_check.Faults.fr_absorbed;
            (match r.Gpr_check.Faults.fr_first_corrupt with
             | Some k -> string_of_int k
             | None -> "none");
            string_of_int r.Gpr_check.Faults.fr_cases;
            string_of_int r.Gpr_check.Faults.fr_max_faults ])
       results);
  print_endline
    "(the defect stream is prefix-stable and shared across schemes, so\n\
    \ \"absorbed k\" means the same first k defects for every scheme;\n\
    \ mean absorbed averages each fuzz case's own first corruption, min\n\
    \ is the unluckiest case; corruption ground truth is the scheme's\n\
    \ fault-free outputs, which the differential oracle pins to the\n\
    \ plain reference)"

(* ---------------- report ---------------- *)

let report_cmd =
  let what =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"WHAT"
             ~doc:("One of: all, "
                   ^ String.concat ", " (List.map fst Experiments.sections)
                   ^ ", volta-sim — or a kernel name from $(b,gpr list) for \
                      a per-scheme comparison (see $(b,--backend))."))
  in
  let pareto =
    Arg.(value & flag
         & info [ "pareto" ]
             ~doc:"Cross-scheme Pareto table: geomean IPC, area overhead, \
                   register-file energy, energy-delay product and \
                   fault-injection coverage per scheme, over the whole \
                   kernel registry.  With the default $(b,--backend) every \
                   registered scheme is compared.")
  in
  let run what pareto backends jobs cache_dir =
    let schemes =
      resolve_backends
        (if pareto && backends = [ "slice" ] then Gpr_backend.Registry.names
         else backends)
    in
    with_engine ~jobs ~cache_dir @@ fun () ->
    if pareto then begin
      (* The fault sweep is cheap next to the timing simulations, so the
         Pareto view always includes live coverage numbers. *)
      let results =
        fault_campaign ~seed:1 ~cases:20 ~max_faults:12
          (List.map Gpr_backend.Backend.id schemes)
      in
      let coverage =
        List.map
          (fun (r : Gpr_check.Faults.scheme_result) ->
             ( r.Gpr_check.Faults.fr_scheme,
               r.Gpr_check.Faults.fr_absorbed_mean ))
          results
      in
      Experiments.print_pareto ~fault_coverage:coverage schemes
    end
    else
    (* The classic tables and figures are slice-pipeline reproductions
       of the paper; [report all] keeps printing them unless a
       different scheme set is requested, in which case (and for any
       single kernel name) the per-scheme comparison runs instead. *)
    match what with
    | "all" when backends <> [ "slice" ] ->
      Experiments.print_backend_comparison schemes
    | "all" -> Experiments.print_all ()
    | "volta-sim" -> Experiments.print_volta_sim ()
    | other when List.mem_assoc other Experiments.sections ->
      List.assoc other Experiments.sections ()
    | other when Registry.by_name other <> None ->
      Experiments.print_backend_comparison ~names:[ other ] schemes
    | other ->
      Printf.eprintf "unknown report or kernel %s, try `gpr list`\n" other;
      exit 1
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Reproduce a table or figure of the paper, compare register-file \
             schemes on one kernel, or print the cross-scheme Pareto table \
             ($(b,--pareto))")
    Term.(const run $ what $ pareto $ backend_arg $ jobs_arg $ cache_dir_arg)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Kernel in textual mini-PTX form.")
  in
  let block =
    Arg.(value & opt int 256
         & info [ "block" ] ~docv:"THREADS" ~doc:"Threads per block.")
  in
  let grid =
    Arg.(value & opt int 16 & info [ "grid" ] ~docv:"BLOCKS" ~doc:"Grid size.")
  in
  let optimize =
    Arg.(value & flag
         & info [ "O" ] ~doc:"Run constant folding / simplification / DCE \
                              before the analysis.")
  in
  let run file block grid optimize =
    let text = In_channel.with_open_text file In_channel.input_all in
    match Gpr_isa.Parser.parse text with
    | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      exit 1
    | Ok kernel ->
      let kernel = if optimize then Gpr_opt.Opt.run kernel else kernel in
      let launch = Gpr_isa.Types.launch_1d ~block ~grid in
      let width = Gpr_analysis.Width.analyze kernel ~launch in
      let baseline = Gpr_alloc.Alloc.baseline kernel in
      let packed =
        Gpr_alloc.Alloc.run kernel
          ~width_of:
            (Compress.width_fn ~narrow_ints:true ~narrow_floats:None ~width)
      in
      Printf.printf "kernel %s: %d static instructions, %d blocks\n"
        kernel.Gpr_isa.Types.k_name
        (Gpr_isa.Pp.instr_count kernel)
        (Array.length kernel.Gpr_isa.Types.k_blocks);
      Printf.printf
        "register pressure: %d original -> %d with narrow integers\n"
        baseline.Gpr_alloc.Alloc.pressure packed.Gpr_alloc.Alloc.pressure;
      Printf.printf "narrow integer variables: %d (intervals alone: %d)\n"
        (Gpr_analysis.Width.narrow_int_count width kernel)
        (Gpr_analysis.Width.interval_narrow_int_count width kernel);
      print_endline
        "(floats require the data-driven tuner; wrap the kernel as a \
         workload to use it)"
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Parse a textual kernel and run the static integer framework")
    Term.(const run $ file $ block $ grid $ optimize)

(* ---------------- check ---------------- *)

let check_cmd =
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N" ~doc:"First seed to check.")
  in
  let count =
    Arg.(value & opt int 100
         & info [ "count" ] ~docv:"K" ~doc:"Number of consecutive seeds.")
  in
  let max_seconds =
    Arg.(value & opt (some float) None
         & info [ "max-seconds" ] ~docv:"S"
             ~doc:"Stop after S seconds even if seeds remain (CI smoke runs).")
  in
  let no_shrink =
    Arg.(value & flag
         & info [ "no-shrink" ]
             ~doc:"Report counterexamples without minimising them.")
  in
  let faults_flag =
    Arg.(value & flag
         & info [ "faults" ]
             ~doc:"Run the fault-injection campaign instead of the \
                   differential fuzzer: inject a growing, prefix-stable \
                   population of permanent register-file defects \
                   (stuck-at bits, dead entries, dead banks) and report \
                   how many each scheme absorbs before its first output \
                   corruption.  With the default $(b,--backend) the \
                   whole scheme registry is swept.")
  in
  let fault_max =
    Arg.(value & opt int 12
         & info [ "fault-max" ] ~docv:"K"
             ~doc:"Fault-count ceiling of the $(b,--faults) sweep.")
  in
  let fault_cases =
    Arg.(value & opt int 20
         & info [ "fault-cases" ] ~docv:"N"
             ~doc:"Fuzz cases checked at every fault count of the \
                   $(b,--faults) sweep.")
  in
  let run seed count max_seconds no_shrink faults fault_max fault_cases
      backends jobs =
    if faults then
      print_fault_campaign
        (fault_campaign ~seed ~cases:fault_cases ~max_faults:fault_max
           backends)
    else begin
    let module R = Gpr_check.Runner in
    (* Resolve eagerly for the clean unknown-name message; the runner
       re-validates before the campaign starts. *)
    ignore (resolve_backends backends);
    let jobs = Engine.jobs jobs in
    let progress s =
      if (s - seed) mod 25 = 0 && s <> seed then
        Printf.printf "  ... %d/%d seeds clean\n%!" (s - seed) count
    in
    let summary =
      R.run ~shrink:(not no_shrink) ~backends ?max_seconds ~progress ~jobs
        ~seed ~count ()
    in
    List.iter (fun r -> print_string (R.report_to_string r)) summary.R.reports;
    Printf.printf "checked %d seed%s (%d..%d): %d failure%s\n"
      summary.R.checked
      (if summary.R.checked = 1 then "" else "s")
      seed
      (seed + summary.R.checked - 1)
      (List.length summary.R.reports)
      (if List.length summary.R.reports = 1 then "" else "s");
    if summary.R.reports <> [] then exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Differential fuzzing: run random kernels plain and through the \
             compressed register file (width analysis, slice allocation, \
             indirection table, TVT/TVE datapath, timing-model invariants) \
             and fail on any divergence, with shrunk counterexamples; \
             seeds are sharded across the -j engine pool.  $(b,--backend) \
             selects which schemes' oracles run (slice expands to the six \
             classic stages, including the width-analysis soundness \
             oracle; other schemes run the generic plain-vs-backend \
             oracle).  $(b,--faults) switches to the fault-injection \
             campaign")
    Term.(const run $ seed $ count $ max_seconds $ no_shrink $ faults_flag
          $ fault_max $ fault_cases $ backend_arg $ jobs_arg)

(* ---------------- lint ---------------- *)

let lint_cmd =
  let module L = Gpr_lint.Lint in
  let module D = Gpr_lint.Diag in
  let target =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"TARGET"
          ~doc:
            "A kernel name from $(b,gpr list), $(b,all) for every registry \
             kernel, or a file in textual mini-PTX form.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON array of diagnostics.")
  in
  let block =
    Arg.(value & opt int 256
         & info [ "block" ] ~docv:"THREADS"
             ~doc:"Threads per block (file targets only).")
  in
  let grid =
    Arg.(value & opt int 16
         & info [ "grid" ] ~docv:"BLOCKS" ~doc:"Grid size (file targets only).")
  in
  let lint_workload (w : W.t) =
    L.lint ~buffer_len:(W.buffer_len w) w.kernel ~launch:w.launch
  in
  let run target json block grid =
    let targets =
      if target = "all" then
        List.map (fun (w : W.t) -> (w.kernel, lint_workload w)) Registry.all
      else
        match Registry.by_name target with
        | Some w -> [ (w.kernel, lint_workload w) ]
        | None ->
          if not (Sys.file_exists target) then begin
            Printf.eprintf
              "unknown kernel or file %s, try `gpr list` (available \
               kernels: %s)\n"
              target
              (String.concat ", " Registry.names);
            exit 1
          end;
          let text = In_channel.with_open_text target In_channel.input_all in
          (match Gpr_isa.Parser.parse text with
          | Error e ->
            Printf.eprintf "%s: %s\n" target e;
            exit 1
          | Ok kernel ->
            let launch = Gpr_isa.Types.launch_1d ~block ~grid in
            [ (kernel, L.lint kernel ~launch) ])
    in
    if json then
      print_endline
        (Gpr_obs.Json.to_string
           (D.list_to_json
              (List.map
                 (fun ((k : Gpr_isa.Types.kernel), ds) -> (k.k_name, ds))
                 targets)))
    else
      List.iter
        (fun ((k : Gpr_isa.Types.kernel), ds) ->
          List.iter
            (fun d -> print_endline (D.to_string_quoted k d))
            (List.sort D.compare ds);
          Printf.printf "%s: %d error(s), %d warning(s), %d info\n" k.k_name
            (D.count D.Error ds) (D.count D.Warning ds) (D.count D.Info ds))
        targets;
    let has_error =
      List.exists (fun (_, ds) -> D.count D.Error ds > 0) targets
    in
    if has_error then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static kernel verification: divergence/barrier safety, \
          shared-memory race detection, compression-soundness audit, \
          bounds and definite-assignment lints.  Exits 1 on any \
          error-severity diagnostic.")
    Term.(const run $ target $ json $ block $ grid)

(* ---------------- profile ---------------- *)

let profile_cmd =
  let backend_one =
    let doc =
      "Register-file scheme to profile (one name from the backend \
       registry; default slice)."
    in
    Arg.(value & opt string "slice" & info [ "backend" ] ~docv:"NAME" ~doc)
  in
  let trace_arg =
    let doc =
      "Write the Chrome trace-event JSON here (open in chrome://tracing \
       or https://ui.perfetto.dev)."
    in
    Arg.(value & opt string "gpr-trace.json"
         & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let max_events_arg =
    let doc =
      "Cap on recorded trace events; past it events are dropped (and \
       counted) instead of exhausting memory."
    in
    Arg.(value & opt int 200_000 & info [ "max-events" ] ~docv:"N" ~doc)
  in
  let run name bname trace_file max_events cache_dir =
    with_store cache_dir @@ fun () ->
    let w = find_workload name in
    let b =
      match resolve_backends [ bname ] with [ b ] -> b | _ -> assert false
    in
    Gpr_obs.Metrics.set_enabled true;
    let chrome = Gpr_obs.Chrome.create ~max_events () in
    Gpr_obs.Chrome.name_process chrome ~pid:2 "engine pool";
    Gpr_obs.Chrome.set_sink (Some chrome);
    let st =
      Fun.protect
        ~finally:(fun () -> Gpr_obs.Chrome.set_sink None)
        (fun () ->
          let c = Compress.analyze w in
          Simulate.profile_backend ~profile:chrome b c Q.High)
    in
    let bd = Gpr_sim.Sim.breakdown st in
    let total = Gpr_obs.Stall.total_slots bd in
    let pct n = 100.0 *. float_of_int n /. float_of_int (max 1 total) in
    Tab.section
      (Printf.sprintf "Issue-slot attribution: %s under %s" name
         (Gpr_backend.Backend.id b));
    Tab.print
      ~header:[ "Outcome"; "Slots"; "Share" ]
      ([ [ "issued"; string_of_int st.Gpr_sim.Sim.issued_slots;
           Tab.pct (pct st.Gpr_sim.Sim.issued_slots) ] ]
      @ List.map
          (fun cause ->
            let n = Gpr_obs.Stall.get bd cause in
            [ "stall: " ^ Gpr_obs.Stall.name cause; string_of_int n;
              Tab.pct (pct n) ])
          Gpr_obs.Stall.all);
    Printf.printf
      "%d cycles, IPC %.1f, %d bank-conflict fetch retries, %d spill \
       loads, %d spill stores\n"
      st.Gpr_sim.Sim.cycles st.Gpr_sim.Sim.gpu_ipc
      st.Gpr_sim.Sim.bank_conflicts st.Gpr_sim.Sim.spill_loads
      st.Gpr_sim.Sim.spill_stores;
    Tab.section "Metrics";
    List.iter
      (fun (e : Gpr_obs.Metrics.entry) ->
        match e with
        | Gpr_obs.Metrics.Counter { name; count } ->
          Printf.printf "  %-28s %d\n" name count
        | Gpr_obs.Metrics.Histogram { name; sum; total; _ } ->
          Printf.printf "  %-28s count %d, sum %d\n" name total sum)
      (Gpr_obs.Metrics.snapshot ());
    Gpr_obs.Chrome.write_file chrome trace_file;
    Printf.printf "wrote %d trace events to %s (%d dropped)\n"
      (Gpr_obs.Chrome.num_events chrome)
      trace_file
      (Gpr_obs.Chrome.dropped chrome)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile one kernel under a register-file scheme: run the \
          timing model with self-checks and full stall attribution \
          enabled, print the issue-slot breakdown and metrics, and \
          export a Chrome trace-event JSON (per-warp issue spans, \
          bank-conflict marks) for chrome://tracing / Perfetto.")
    Term.(const run $ kernel_arg $ backend_one $ trace_arg $ max_events_arg
          $ cache_dir_arg)

(* ---------------- colocate ---------------- *)

let colocate_cmd =
  let module M = Gpr_sim.Sim_multi in
  let kernels =
    Arg.(required & pos 0 (some (list string)) None
         & info [] ~docv:"KERNEL[,KERNEL...]"
             ~doc:"Comma-separated kernel set to co-schedule on one SM \
                   (see $(b,gpr list)).")
  in
  let backend_one =
    let doc =
      "Register-file scheme the co-scheduled SM runs (one name from the \
       backend registry, default slice); the table compares it against \
       the baseline scheme."
    in
    Arg.(value & opt string "slice" & info [ "backend" ] ~docv:"NAME" ~doc)
  in
  let policy =
    Arg.(value & opt string "fifo"
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Block-dispatch policy: $(b,fifo) (global submission \
                   order), $(b,rr) (round-robin over kernels) or \
                   $(b,binpack) (pressure-aware best-fit).")
  in
  let waves =
    Arg.(value & opt int 6
         & info [ "waves" ] ~docv:"N"
             ~doc:"Blocks fed per kernel, as a multiple of its isolated \
                   blocks/SM.")
  in
  let run names bname pname waves jobs cache_dir =
    let ws = List.map find_workload names in
    let b =
      match resolve_backends [ bname ] with [ b ] -> b | _ -> assert false
    in
    let policy = resolve_policy pname in
    let module P = (val policy : M.POLICY) in
    with_engine ~jobs ~cache_dir @@ fun () ->
    let cs = List.map Compress.analyze ws in
    let base =
      match Gpr_backend.Registry.find "baseline" with
      | Some b -> b
      | None -> assert false
    in
    let sid = Gpr_backend.Backend.id b in
    let co b = Simulate.colocate ~waves ~policy b cs Q.High in
    let rb = co base in
    let rs = if sid = "baseline" then rb else co b in
    let ipc_change a c =
      if a > 0.0 then Printf.sprintf "%+.1f%%" (100.0 *. ((c /. a) -. 1.0))
      else "-"
    in
    Tab.section
      (Printf.sprintf "Co-scheduling %s: baseline vs %s (policy %s, %d waves)"
         (String.concat "+" names) sid P.id waves);
    Tab.print
      ~header:
        [ "Kernel"; "Peak blocks (base)"; "Peak blocks (" ^ sid ^ ")";
          "IPC (base)"; "IPC (" ^ sid ^ ")"; "IPC change"; "Issue share" ]
      (List.mapi
         (fun i (w : W.t) ->
           let tb = rb.M.r_tenants.(i) and ts = rs.M.r_tenants.(i) in
           [ w.name;
             string_of_int tb.M.ts_peak_resident;
             string_of_int ts.M.ts_peak_resident;
             Tab.fp tb.M.ts_ipc; Tab.fp ts.M.ts_ipc;
             ipc_change tb.M.ts_ipc ts.M.ts_ipc;
             Tab.pct (100.0 *. ts.M.ts_issue_share) ])
         ws
      @ [ [ "(aggregate)";
            string_of_int rb.M.r_peak_resident_blocks;
            string_of_int rs.M.r_peak_resident_blocks;
            Tab.fp rb.M.r_stats.Gpr_sim.Sim.sm_ipc;
            Tab.fp rs.M.r_stats.Gpr_sim.Sim.sm_ipc;
            ipc_change rb.M.r_stats.Gpr_sim.Sim.sm_ipc
              rs.M.r_stats.Gpr_sim.Sim.sm_ipc;
            "-" ] ]);
    let co_pct (r : M.result) =
      100.0 *. float_of_int r.M.r_co_resident_cycles
      /. float_of_int (max 1 r.M.r_stats.Gpr_sim.Sim.cycles)
    in
    Printf.printf "co-resident cycles: %s (baseline) -> %s (%s)\n"
      (Tab.pct (co_pct rb)) (Tab.pct (co_pct rs)) sid;
    let fair f =
      (* 0.0 is Fair.jain's out-of-band sentinel: nobody issued a
         single slot, so starvation-of-all must not print as a score. *)
      if Gpr_obs.Fair.degenerate f then "n/a (no slots issued)"
      else Printf.sprintf "%.3f" f
    in
    Printf.printf "fairness (Jain over issued slots): %s -> %s\n"
      (fair rb.M.r_fairness) (fair rs.M.r_fairness);
    Printf.printf "admissions: %d -> %d blocks (policy %s: %s)\n"
      rb.M.r_admissions rs.M.r_admissions P.id P.describe
  in
  Cmd.v
    (Cmd.info "colocate"
       ~doc:
         "Co-schedule a kernel set on one SM under a register-file \
          scheme and a block-dispatch policy, and compare the \
          per-kernel and aggregate co-residency (peak resident blocks, \
          IPC, issue shares, fairness) against the baseline register \
          file — the compression-bought multiprogramming gain.")
    Term.(const run $ kernels $ backend_one $ policy $ waves $ jobs_arg
          $ cache_dir_arg)

(* ---------------- serve ---------------- *)

let socket_info =
  Arg.info [ "socket" ] ~docv:"PATH"
    ~doc:"Unix-domain socket path the daemon listens on."

let socket_req_arg = Arg.(required & opt (some string) None & socket_info)
let socket_opt_arg = Arg.(value & opt (some string) None & socket_info)

let serve_cmd =
  let queue_depth =
    Arg.(value & opt int 64
         & info [ "queue-depth" ] ~docv:"D"
             ~doc:"Admission-control bound on queued distinct work items; \
                   past it requests are rejected with the typed \
                   $(b,overloaded) error.")
  in
  let deadline =
    Arg.(value & opt int 30_000
         & info [ "default-deadline-ms" ] ~docv:"T"
             ~doc:"Deadline for requests that do not carry their own \
                   $(b,deadline_ms) field.")
  in
  let max_frame =
    Arg.(value & opt int Gpr_serve.Protocol.max_frame_default
         & info [ "max-frame-bytes" ] ~docv:"N"
             ~doc:"Largest accepted request frame; bigger frames are \
                   rejected without buffering the payload.")
  in
  let debug_sleep =
    Arg.(value & flag
         & info [ "debug-sleep" ]
             ~doc:"Accept the $(b,sleep) verb (deterministic load tests \
                   only).")
  in
  let cache_max_entries =
    Arg.(value & opt (some int) None
         & info [ "cache-max-entries" ] ~docv:"N"
             ~doc:"Bound the on-disk cache to N entries (LRU eviction).")
  in
  let cache_max_bytes =
    Arg.(value & opt (some int) None
         & info [ "cache-max-bytes" ] ~docv:"N"
             ~doc:"Bound the on-disk cache to N payload bytes (LRU \
                   eviction).")
  in
  let run socket jobs queue_depth deadline max_frame debug_sleep cache_dir
      cache_max_entries cache_max_bytes =
    let store =
      Engine.attach_store ?max_entries:cache_max_entries
        ?max_bytes:cache_max_bytes cache_dir
    in
    let workers = Engine.jobs jobs in
    let cfg =
      { Gpr_serve.Server.workers; queue_depth; default_deadline_ms = deadline;
        max_frame_bytes = max_frame; store; debug_sleep }
    in
    Gpr_obs.Metrics.set_enabled true;
    let t = Gpr_serve.Server.create cfg in
    Gpr_serve.Server.install_signal_handlers t;
    Printf.eprintf "[gpr serve: listening on %s, %d workers, queue %d]\n%!"
      socket workers queue_depth;
    Gpr_serve.Server.run ~socket t;
    Printf.eprintf
      "[gpr serve: %d received, %d completed, %d cache hits, %d coalesced, \
       %d overloaded, %d deadline-expired]\n%!"
      (Gpr_serve.Server.received t)
      (Gpr_serve.Server.completed t)
      (Gpr_serve.Server.cache_hits t)
      (Gpr_serve.Server.coalesced t)
      (Gpr_serve.Server.rejected_overloaded t)
      (Gpr_serve.Server.deadline_expired t);
    print_store_stats store
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent analysis/simulation daemon on a Unix-domain \
          socket.  Speaks length-prefixed JSON (plan, lint, estimate, \
          profile, stats verbs) with a bounded request queue, duplicate \
          coalescing, per-request deadlines and graceful SIGTERM \
          shutdown; payloads are byte-identical to the one-shot CLI.")
    Term.(const run $ socket_req_arg $ jobs_arg $ queue_depth
          $ deadline $ max_frame $ debug_sleep $ cache_dir_arg
          $ cache_max_entries $ cache_max_bytes)

(* ---------------- bench ---------------- *)

let bench_cmd =
  let module Load = Gpr_serve.Load in
  let serve_flag =
    Arg.(value & flag
         & info [ "serve" ]
             ~doc:"Benchmark the serve daemon (the only mode; the \
                   evaluation and microbenchmarks are the sections of \
                   bench/main.exe).")
  in
  let attach =
    Arg.(value & flag
         & info [ "attach" ]
             ~doc:"Use an already-running daemon at $(b,--socket) instead \
                   of spawning one (skips the shutdown assertions).")
  in
  let requests =
    Arg.(value & opt int Load.default_cfg.Load.requests
         & info [ "requests" ] ~docv:"N" ~doc:"Total requests to replay.")
  in
  let concurrency =
    Arg.(value & opt int Load.default_cfg.Load.concurrency
         & info [ "concurrency" ] ~docv:"C"
             ~doc:"Closed-loop client connections (one domain each).")
  in
  let duplicate_ratio =
    Arg.(value & opt float Load.default_cfg.Load.duplicate_ratio
         & info [ "duplicate-ratio" ] ~docv:"R"
             ~doc:"Fraction of requests drawn from the hot key pool (exact \
                   repeats); the rest are salted to force cache misses.")
  in
  let queue_depth =
    Arg.(value & opt int Load.default_cfg.Load.queue_depth
         & info [ "queue-depth" ] ~docv:"D"
             ~doc:"Forwarded to the spawned daemon.")
  in
  let deadline =
    Arg.(value & opt int Load.default_cfg.Load.deadline_ms
         & info [ "deadline-ms" ] ~docv:"T"
             ~doc:"Per-request deadline in the replayed stream.")
  in
  let kernels =
    Arg.(value & opt (list string) Load.default_cfg.Load.kernels
         & info [ "kernels" ] ~docv:"NAME[,NAME...]"
             ~doc:"Registry kernels in the mix.")
  in
  let verbs =
    Arg.(value & opt (list string) Load.default_cfg.Load.verbs
         & info [ "verbs" ] ~docv:"VERB[,VERB...]"
             ~doc:"Request verbs in the mix (plan, lint, estimate, \
                   profile).")
  in
  let seed =
    Arg.(value & opt int Load.default_cfg.Load.seed
         & info [ "seed" ] ~docv:"N" ~doc:"Stream seed (deterministic mix).")
  in
  let out =
    Arg.(value & opt string "BENCH_serve.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Summary JSON path.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Recompute every distinct payload in-process and require \
                   the served bytes to match exactly.")
  in
  let run serve_flag socket attach jobs requests concurrency duplicate_ratio
      queue_depth deadline kernels backends verbs seed cache_dir out verify =
    if not serve_flag then begin
      Printf.eprintf
        "gpr bench currently only benchmarks the daemon: pass --serve \
         (the evaluation and microbenchmarks are the sections of \
         bench/main.exe: dune exec bench/main.exe -- paper micro)\n";
      exit 2
    end;
    (* Resolve names eagerly for the clean unknown-name messages. *)
    List.iter (fun k -> ignore (find_workload k)) kernels;
    ignore (resolve_backends backends);
    let socket =
      match socket with
      | Some p -> p
      | None ->
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "gpr-serve-%d.sock" (Unix.getpid ()))
    in
    let cfg =
      { Load.socket; attach; daemon_jobs = Engine.jobs jobs; queue_depth;
        deadline_ms = deadline; cache_dir; requests; concurrency;
        duplicate_ratio; kernels; backends; verbs; seed;
        out = Some out; verify }
    in
    match Load.run cfg with
    | Error m ->
      Printf.eprintf "gpr bench --serve: %s\n" m;
      exit 1
    | Ok s ->
      Printf.printf
        "%d ok, %d overloaded, %d deadline-expired, %d errors over %.2fs \
         (%.0f req/s)\n"
        s.Load.ok s.Load.rejected s.Load.deadline_exceeded s.Load.errors
        s.Load.wall_seconds s.Load.throughput_rps;
      Printf.printf
        "latency ms: p50 %.2f  p90 %.2f  p99 %.2f  mean %.2f  max %.2f\n"
        s.Load.p50_ms s.Load.p90_ms s.Load.p99_ms s.Load.mean_ms
        s.Load.max_ms;
      Printf.printf "cache hit rate: %.1f%%\n"
        (100.0 *. s.Load.cache_hit_rate);
      (match s.Load.verified with
       | Some true -> print_endline "verify: served payloads byte-identical"
       | Some false -> print_endline "verify: FAILED"
       | None -> ());
      (match s.Load.shutdown_clean with
       | Some true -> print_endline "shutdown: clean (exit 0, socket removed)"
       | Some false -> print_endline "shutdown: NOT CLEAN"
       | None -> ());
      List.iter (Printf.printf "  error: %s\n") s.Load.error_samples;
      Printf.printf "wrote %s\n" out;
      let failed =
        s.Load.errors > 0
        || s.Load.verified = Some false
        || s.Load.shutdown_clean = Some false
      in
      if failed then exit 1
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Load-test the serve daemon: spawn it (or $(b,--attach) to one), \
          replay a deterministic mixed request stream from concurrent \
          clients, and report p50/p99 latency, throughput, reject and \
          cache-hit rates to stdout and $(b,--out) (BENCH_serve.json).  \
          Exits 1 on any transport error, payload mismatch under \
          $(b,--verify), or unclean daemon shutdown.")
    Term.(const run $ serve_flag $ socket_opt_arg $ attach
          $ jobs_arg $ requests $ concurrency $ duplicate_ratio
          $ queue_depth $ deadline $ kernels $ backend_arg $ verbs $ seed
          $ cache_dir_arg $ out $ verify)

(* ---------------- disasm ---------------- *)

let disasm_cmd =
  let run name =
    let w = find_workload name in
    print_string (Gpr_isa.Pp.kernel_to_string w.kernel)
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Print a kernel in the textual mini-PTX form (parseable back \
             with Gpr_isa.Parser)")
    Term.(const run $ kernel_arg)

let () =
  let info =
    Cmd.info "gpr" ~version:"1.0.0"
      ~doc:"GPU register file with static data compression (ICPP 2020 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; pressure_cmd; sim_cmd; report_cmd; profile_cmd;
            colocate_cmd; disasm_cmd; analyze_cmd; check_cmd; lint_cmd;
            serve_cmd; bench_cmd ]))
