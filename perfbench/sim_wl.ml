(* Workload [simulate]: one cold `gpr sim`-style pass over the registry
   per round.  A kernel op runs Workload.trace, Width.analyze, and for
   each registered scheme its analyze (integer widths only,
   precision:None) then Sim.run; a pair op traces and analyses one of
   the two co-scheduling pairs of BENCH_coloc.json and runs it through
   Sim_multi.run (slice scheme, fifo policy).  The tuner never runs.

   Untraced and traced phases make the same public calls; the traced
   one wraps each in a span. *)

open Common
module W = Gpr_workloads.Workload
module Backend = Gpr_backend.Backend
module Sim = Gpr_sim.Sim
module Multi = Gpr_sim.Sim_multi

let cfg = Gpr_arch.Config.fermi_gtx480
let waves = 6
let pairs = [ ("Hotspot", "DWT2D"); ("CFD", "GICOV") ]
let pair_name (a, b) = a ^ "+" ^ b

let kernels opts =
  if opts.tiny then [ "Hotspot"; "DWT2D" ] else Gpr_workloads.Registry.names

let pairs_of opts = if opts.tiny then [ List.hd pairs ] else pairs

(* The kernel's functional trace and width analysis. *)
let trace_and_width (w : W.t) =
  ( span "exec.trace" (fun () -> W.trace w ~quantize:None),
    span "analysis.width" (fun () ->
        Gpr_analysis.Width.analyze w.W.kernel ~launch:w.W.launch) )

(* A scheme's integer-width resources and the occupancy they allow. *)
let resources b (w : W.t) width =
  let module S = (val b : Backend.Scheme) in
  let res =
    span "backend.analyze" (fun () ->
        S.analyze ~kernel:w.W.kernel ~width ~precision:None)
  in
  ( res,
    Backend.occupancy cfg res ~warps_per_block:(W.warps_per_block w)
      ~shared_bytes_per_block:(W.shared_bytes_per_block w) )

let kernel_op (w : W.t) =
  let trace, width = trace_and_width w in
  List.map
    (fun b ->
      let res, occ = resources b w width in
      ( Backend.id b,
        span "sim.run" (fun () ->
            Sim.run ~waves cfg ~trace ~alloc:res.Backend.alloc
              ~blocks_per_sm:occ.Gpr_arch.Occupancy.blocks_per_sm
              ~mode:(Backend.sim_mode b res)) ))
    Gpr_backend.Registry.all

(* A pair op is self-contained (it traces and analyses both kernels
   itself), so nothing stays live between ops.  Tenants are seated
   exactly as Simulate.colocate seats them, from integer-width slice
   resources. *)
let pair_op (a, b) =
  let scheme = Gpr_backend.Registry.find_exn "slice" in
  let tenant name =
    let w = kernel_named name in
    let trace, width = trace_and_width w in
    let res, occ = resources scheme w width in
    {
      Multi.t_label = name;
      t_trace = trace;
      t_alloc = res.Backend.alloc;
      t_mode = Backend.sim_mode scheme res;
      t_demand =
        Backend.demand cfg res ~warps_per_block:(W.warps_per_block w)
          ~shared_bytes_per_block:(W.shared_bytes_per_block w);
      t_blocks = max 1 (waves * occ.Gpr_arch.Occupancy.blocks_per_sm);
    }
  in
  let tenants = [ tenant a; tenant b ] in
  span "sim_multi.run" (fun () -> Multi.run ~policy:Multi.fifo cfg tenants)

(* Geomean IPC gain of slice over baseline, in registry order so the
   float sum never depends on the seeded op order. *)
let ipc_gain_pct names stats =
  let ratios =
    List.map
      (fun n ->
        let st = List.assoc n stats in
        (List.assoc "slice" st).Sim.gpu_ipc
        /. (List.assoc "baseline" st).Sim.gpu_ipc)
      names
  in
  100.0 *. (Gpr_util.Stats.geomean ratios -. 1.0)

let cycles_json stats =
  J.Obj (List.map (fun (id, (st : Sim.stats)) -> (id, J.Int st.Sim.cycles)) stats)

(* Per-pass totals, compared across passes and phases. *)
type pass = {
  mutable sim_cycles : int;
  mutable multi_cycles : int;
  mutable instrs : int;
  mutable stats : (string * (string * Sim.stats) list) list;
}

let run opts =
  let names = kernels opts in
  let pairs = pairs_of opts in
  let expected = expected_section opts "simulate" in
  let exp_kernels = Option.value (J.member "kernels" expected) ~default:(J.Obj []) in
  let exp_pairs = Option.value (J.member "pairs" expected) ~default:(J.Obj []) in
  let workloads = List.map (fun n -> (n, kernel_named n)) names in
  let passes : pass list ref = ref [] in
  let mismatch what =
    Printf.eprintf "simulate %s: differs from expected.json\n%!" what;
    false
  in
  (* One round: every kernel and every pair, in one seeded order. *)
  let round i =
    let p = { sim_cycles = 0; multi_cycles = 0; instrs = 0; stats = [] } in
    passes := p :: !passes;
    let counted f =
      let i0 = thread_instrs () in
      let r = f () in
      p.instrs <- p.instrs + (thread_instrs () - i0);
      r
    in
    let kernel (name, w) () =
      let stats, latency =
        with_kernel name (fun () -> cpu_time (fun () -> counted (fun () -> kernel_op w)))
      in
      p.stats <- (name, stats) :: p.stats;
      List.iter
        (fun (_, (st : Sim.stats)) -> p.sim_cycles <- p.sim_cycles + st.Sim.cycles)
        stats;
      let ok =
        J.member name exp_kernels = Some (cycles_json stats) || mismatch name
      in
      { latency; ok }
    in
    let pair pr () =
      let r, latency =
        with_kernel (pair_name pr) (fun () ->
            cpu_time (fun () -> counted (fun () -> pair_op pr)))
      in
      let cycles = r.Multi.r_stats.Sim.cycles in
      p.multi_cycles <- p.multi_cycles + cycles;
      let ok =
        J.member (pair_name pr) exp_pairs = Some (J.Int cycles)
        || mismatch (pair_name pr)
      in
      { latency; ok }
    in
    shuffled opts i
      (List.map kernel workloads @ List.map pair pairs)
  in
  let setup () =
    (* Warm-up: the two smallest kernels' ops. *)
    List.iter (fun n -> ignore (kernel_op (kernel_named n))) [ "Hotspot"; "DWT2D" ]
  in
  let (), setups = timed_setups opts setup in
  let phase_seconds = if opts.trace then opts.seconds /. 2.0 else opts.seconds in
  let untraced = run_phase ~settle:true ~seconds:phase_seconds ~round () in
  let untraced_passes = !passes in
  let info =
    [ ("kernels", J.Arr (List.map (fun n -> J.Str n) names));
      ("pairs", J.Arr (List.map (fun pr -> J.Str (pair_name pr)) pairs));
      ("schemes", J.Arr (List.map (fun n -> J.Str n) Gpr_backend.Registry.names));
      ("waves", J.Int waves);
      ("op", J.Str "one kernel: trace, width, 4 x (scheme analyze, Sim.run); or one pair: Sim_multi.run") ]
  in
  (* Every complete pass must agree on every count, and (at full size)
     reproduce the expected IPC gain exactly. *)
  let complete ps = List.filter (fun p -> List.length p.stats = List.length names) ps in
  let totals p = (p.sim_cycles, p.multi_cycles, p.instrs) in
  let ipc_gain ps =
    match complete ps with [] -> nan | p :: _ -> ipc_gain_pct names p.stats
  in
  let checks_ok ps =
    match complete ps with
    | [] -> false
    | first :: rest ->
      List.for_all (fun p -> totals p = totals first) rest
      && (opts.tiny
         || J.member "ipc_gain_pct" expected = Some (J.Float (ipc_gain ps))
         || (prerr_endline "simulate: ipc_gain_pct differs from expected.json";
             false))
  in
  if not opts.trace then
    { info; phases = [ untraced ];
      extra_failures = (if checks_ok untraced_passes then 0 else 1);
      prescaled = [];
      metrics = end_to_end ~setups ~peak_heap_mb:(heap_mb ()) untraced }
  else begin
    passes := [];
    tracing := true;
    let traced = run_phase ~settle:true ~seconds:phase_seconds ~round () in
    tracing := false;
    let traced_passes = !passes in
    let all_ok = checks_ok (untraced_passes @ traced_passes) in
    let p =
      match complete untraced_passes with
      | p :: _ -> p
      | [] -> { sim_cycles = 0; multi_cycles = 0; instrs = 0; stats = [] }
    in
    let rounds = float_of_int traced.rounds in
    let sim_s = layer_self_s "sim.run" /. rounds in
    let multi_s = layer_self_s "sim_multi.run" /. rounds in
    let exec_s = layer_self_s "exec.trace" /. rounds in
    let cycles = float_of_int p.sim_cycles and mcycles = float_of_int p.multi_cycles in
    let extra =
      [
        ("exec.thread_instrs", float_of_int p.instrs);
        ("exec.ns_per_thread_instr", ratio (exec_s *. 1e9) (float_of_int p.instrs));
        ("sim.cycles", cycles);
        ("sim.ns_per_cycle", ratio (sim_s *. 1e9) cycles);
        ("sim_multi.cycles", mcycles);
        ("sim_multi.ns_per_cycle", ratio (multi_s *. 1e9) mcycles);
        ( "sim_cycles_per_s",
          ratio (float_of_int untraced.rounds *. (cycles +. mcycles)) untraced.op_seconds );
        ("ipc_gain_pct", ipc_gain untraced_passes);
        ("trace.overhead_pct", trace_overhead_pct ~untraced ~traced);
      ]
    in
    { info = info @ [ ("kernel_layer_table", kernel_layer_table ~rounds:traced.rounds) ];
      phases = [ untraced; traced ];
      extra_failures = (if all_ok then 0 else 1);
      prescaled = [];
      metrics = per_layer ~untraced ~traced extra }
  end

(* Expected outputs: one pass. *)
let record () =
  let kernels =
    List.map (fun n -> (n, kernel_op (kernel_named n))) Gpr_workloads.Registry.names
  in
  J.Obj
    [
      ("kernels", J.Obj (List.map (fun (n, st) -> (n, cycles_json st)) kernels));
      ( "pairs",
        J.Obj
          (List.map
             (fun pr -> (pair_name pr, J.Int (pair_op pr).Multi.r_stats.Sim.cycles))
             pairs) );
      ("ipc_gain_pct", J.Float (ipc_gain_pct Gpr_workloads.Registry.names kernels));
    ]
