open Gpr_workloads
module Q = Gpr_quality.Quality
module Tab = Gpr_util.Tab
module Stats = Gpr_util.Stats
module Occ = Gpr_arch.Occupancy

let cfg = Gpr_arch.Config.fermi_gtx480
let baseline = Gpr_backend.Registry.find_exn "baseline"
let slice = Gpr_backend.Registry.find_exn "slice"

let analyze name =
  match Registry.by_name name with
  | Some w -> Compress.analyze w
  | None -> failwith ("unknown workload " ^ name)

(* ------------------------------------------------------------------ *)
(* Execution engine.  Every data function fans its independent
   per-(kernel, configuration) jobs out over the configured pool;
   [Pool.map_list] preserves list order, so serial and parallel runs
   produce bit-identical tables.  With no pool (or [jobs = 1]) the
   helpers degrade to [List.map]. *)

module Pool = Gpr_engine.Pool

let pool : Pool.t option ref = ref None

let use_pool p = pool := p

let pmap f xs =
  match !pool with
  | Some p when Pool.jobs p > 1 -> Pool.map_list p f xs
  | _ -> List.map f xs

(* Run the static framework on every kernel, in parallel, before any
   per-configuration fan-out: per-(kernel, config) jobs all start with
   [Compress.analyze] and would otherwise duplicate the expensive tuner
   run for a kernel whose analysis is not memoised yet. *)
let analyzed_all () = pmap Compress.analyze Registry.all

(* ------------------------------------------------------------------ *)
(* Table 1: motivation (IMGVF, perfect quality). *)

type table1 = {
  t1_pressure_orig : int;
  t1_pressure_int : int;
  t1_pressure_float : int;
  t1_pressure_both : int;
  t1_occupancy_orig : float;
  t1_occupancy_both : float;
  t1_ipc_orig : float;
  t1_ipc_proposed : float;
  t1_ipc_artificial : float;
}

let table1_data () =
  let c = analyze "IMGVF" in
  let occ_orig = Compress.occupancy c c.baseline in
  let occ_both = Compress.occupancy c c.perfect.alloc_both in
  let base = Simulate.baseline c in
  let prop = Simulate.proposed c Q.Perfect in
  let art = Simulate.artificial c Q.Perfect in
  {
    t1_pressure_orig = c.baseline.pressure;
    t1_pressure_int = c.int_only.pressure;
    t1_pressure_float = c.perfect.alloc_float_only.pressure;
    t1_pressure_both = c.perfect.alloc_both.pressure;
    t1_occupancy_orig = occ_orig.occupancy;
    t1_occupancy_both = occ_both.occupancy;
    t1_ipc_orig = base.gpu_ipc;
    t1_ipc_proposed = prop.gpu_ipc;
    t1_ipc_artificial = art.gpu_ipc;
  }

let print_table1 () =
  Tab.section "Table 1: IMGVF register pressure, occupancy and IPC (perfect quality)";
  let d = table1_data () in
  let pct x = Tab.pct (100.0 *. x) in
  Tab.print
    ~header:[ "Configuration"; "Register Pressure"; "Occupancy"; "IPC" ]
    [
      [ "Original"; string_of_int d.t1_pressure_orig;
        pct d.t1_occupancy_orig; Tab.fp ~digits:0 d.t1_ipc_orig ];
      [ "Narrow integers"; string_of_int d.t1_pressure_int; "-"; "-" ];
      [ "Narrow floats"; string_of_int d.t1_pressure_float; "-"; "-" ];
      [ "Narrow integers + floats"; string_of_int d.t1_pressure_both;
        pct d.t1_occupancy_both; Tab.fp ~digits:0 d.t1_ipc_proposed ];
      [ "Artificial occupancy increase"; string_of_int d.t1_pressure_orig;
        pct d.t1_occupancy_both; Tab.fp ~digits:0 d.t1_ipc_artificial ];
    ];
  Printf.printf
    "(paper: 52 / 46 / 36 / 29 registers; occupancy 21%% -> 62.5%%; IPC 196 -> 352, artificial 377)\n"

(* ------------------------------------------------------------------ *)
(* Table 2: configuration dump. *)

let print_table2 () =
  Tab.section "Table 2: GPU parameters";
  Tab.print
    ~header:[ "Parameter"; "Value" ]
    [
      [ "Clock Frequency"; Printf.sprintf "%d MHz" cfg.clock_mhz ];
      [ "SMs"; string_of_int cfg.num_sms ];
      [ "Scheduling Policy";
        (match cfg.scheduler with
         | Gpr_arch.Config.Gto -> "Greedy then oldest"
         | Gpr_arch.Config.Lrr -> "Loose round robin") ];
      [ "L2 cache"; Printf.sprintf "%d KB" (cfg.l2_bytes / 1024) ];
      [ "Warp Schedulers / SM"; string_of_int cfg.warp_schedulers ];
      [ "Max Warps / SM"; string_of_int cfg.max_warps ];
      [ "Registers / SM"; string_of_int cfg.registers_per_sm ];
      [ "Register Banks"; string_of_int cfg.register_banks ];
      [ "Register Bank Width"; Printf.sprintf "%d bits" cfg.register_bank_width_bits ];
      [ "Entries / Bank"; string_of_int cfg.entries_per_bank ];
      [ "Operand Collectors"; string_of_int cfg.operand_collectors ];
      [ "L1 cache"; Printf.sprintf "%d KB" (cfg.l1_bytes / 1024) ];
      [ "Shared memory"; Printf.sprintf "%d KB" (cfg.shared_mem_bytes / 1024) ];
    ]

let print_table3 () =
  Tab.section "Table 3: reduced-precision floating-point formats";
  let fmts = Gpr_fp.Format_.all in
  Tab.print
    ~header:("Bits, Total" :: List.map (fun f -> string_of_int f.Gpr_fp.Format_.total_bits) fmts)
    [
      "Exponent bits" :: List.map (fun f -> string_of_int f.Gpr_fp.Format_.exp_bits) fmts;
      "Mantissa bits" :: List.map (fun f -> string_of_int f.Gpr_fp.Format_.man_bits) fmts;
    ];
  print_endline "(all configurations also include a sign bit)"

(* ------------------------------------------------------------------ *)
(* Table 4: kernel summary. *)

type table4_row = {
  t4_name : string;
  t4_metric : string;
  t4_paper_regs : int;
  t4_measured_regs : int;
  t4_warps_per_block : int;
  t4_group : int;
}

let table4_data () =
  pmap
    (fun (w : Workload.t) ->
       let c = Compress.analyze w in
       {
         t4_name = w.name;
         t4_metric = Q.metric_name w.metric;
         t4_paper_regs = w.paper_regs;
         t4_measured_regs = c.baseline.pressure;
         t4_warps_per_block = Workload.warps_per_block w;
         t4_group = w.group;
       })
    Registry.all

let print_table4 () =
  Tab.section "Table 4: evaluated kernels";
  Tab.print
    ~header:[ "Name"; "Quality metric"; "Regs/thread (paper)";
              "Regs/thread (measured)"; "Warps per block"; "Group" ]
    (List.map
       (fun r ->
          [ r.t4_name; r.t4_metric; string_of_int r.t4_paper_regs;
            string_of_int r.t4_measured_regs;
            string_of_int r.t4_warps_per_block; string_of_int r.t4_group ])
       (table4_data ()))

(* ------------------------------------------------------------------ *)
(* Figure 8: the range-analysis worked example. *)

let print_fig8 () =
  Tab.section "Figure 8: static range analysis worked example";
  let open Gpr_isa in
  let open Gpr_isa.Types in
  let b = Builder.create ~name:"fig8" in
  let open Builder in
  let out = global_buffer b S32 "out" in
  let k = var b S32 "k" and i = var b S32 "i" and j = var b S32 "j" in
  assign b k (ci 0);
  while_ b (fun () -> ilt b ~$k (ci 50))
    (fun () ->
       assign b i (ci 0);
       assign b j ~$k;
       while_ b (fun () -> ilt b ~$i ~$j)
         (fun () ->
            st b out (ci 0) ~$k;
            assign b i ~$(iadd b ~$i (ci 1)));
       assign b k ~$(iadd b ~$k (ci 1)));
  st b out (ci 1) ~$k;
  let kernel = finish b in
  let t = Gpr_analysis.Range.analyze kernel ~launch:(launch_1d ~block:32 ~grid:1) in
  let row (name, (v : vreg)) =
    [ name;
      Gpr_util.Interval.to_string (Gpr_analysis.Range.var_range t v.id);
      string_of_int (Gpr_analysis.Range.var_bitwidth t v.id) ]
  in
  Tab.print ~header:[ "Variable"; "Range"; "Bits (signed)" ]
    (List.map row [ ("k", k); ("i", i); ("j", j) ]);
  print_endline "(paper: k=[0,50], i=[0,50], j=[0,49], 6 bits unsigned)"

(* ------------------------------------------------------------------ *)
(* Width report: the bit-precise reduced product (known-bits x
   congruence x demanded-bits) against intervals alone, per kernel. *)

type width_row = {
  wr_name : string;
  wr_int_vars : int;         (* integer variables in the kernel *)
  wr_interval_narrow : int;  (* narrow (< 32 bit) under intervals *)
  wr_product_narrow : int;   (* narrow under the reduced product *)
  wr_bits_saved : int;       (* sum of per-variable width reductions *)
}

let width_report_data () =
  let module Wd = Gpr_analysis.Width in
  let open Gpr_isa.Types in
  pmap
    (fun (w : Workload.t) ->
       let wt = Wd.analyze w.kernel ~launch:w.launch in
       let int_vars = ref 0 and saved = ref 0 in
       let seen = Hashtbl.create 64 in
       Array.iter
         (fun blk ->
            Array.iter
              (fun ins ->
                 match defs ins with
                 | Some (d : vreg)
                   when (d.ty = S32 || d.ty = U32)
                        && not (Hashtbl.mem seen d.id) ->
                   Hashtbl.replace seen d.id ();
                   incr int_vars;
                   if d.id < Array.length wt.Wd.var_bits then
                     saved :=
                       !saved
                       + (Wd.interval_bitwidth wt d.id
                          - Wd.var_bitwidth wt d.id)
                 | _ -> ())
              blk.instrs)
         w.kernel.k_blocks;
       {
         wr_name = w.name;
         wr_int_vars = !int_vars;
         wr_interval_narrow = Wd.interval_narrow_int_count wt w.kernel;
         wr_product_narrow = Wd.narrow_int_count wt w.kernel;
         wr_bits_saved = !saved;
       })
    Registry.all

let print_width_report () =
  Tab.section
    "Width report: narrow integers, intervals vs bit-precise product";
  let rows = width_report_data () in
  Tab.print
    ~header:[ "Kernel"; "Int vars"; "Narrow (intervals)";
              "Narrow (product)"; "Delta"; "Bits saved" ]
    (List.map
       (fun r ->
          [ r.wr_name; string_of_int r.wr_int_vars;
            string_of_int r.wr_interval_narrow;
            string_of_int r.wr_product_narrow;
            string_of_int (r.wr_product_narrow - r.wr_interval_narrow);
            string_of_int r.wr_bits_saved ])
       rows);
  print_endline
    "(product widths are the storage authority; the delta is what\n\
    \ known-bits, congruence and demanded-bits buy beyond Fig. 8's\n\
    \ interval analysis)"

(* ------------------------------------------------------------------ *)
(* Figure 9: register pressure under the six configurations. *)

type fig9_row = {
  f9_name : string;
  f9_original : int;
  f9_int_only : int;
  f9_float_perfect : int;
  f9_float_high : int;
  f9_both_perfect : int;
  f9_both_high : int;
}

let fig9_data () =
  pmap
    (fun (w : Workload.t) ->
       let c = Compress.analyze w in
       {
         f9_name = w.name;
         f9_original = c.baseline.pressure;
         f9_int_only = c.int_only.pressure;
         f9_float_perfect = c.perfect.alloc_float_only.pressure;
         f9_float_high = c.high.alloc_float_only.pressure;
         f9_both_perfect = c.perfect.alloc_both.pressure;
         f9_both_high = c.high.alloc_both.pressure;
       })
    Registry.all

let print_fig9 () =
  Tab.section "Figure 9: register pressure (registers per thread)";
  Tab.print
    ~header:[ "Kernel"; "Original"; "Narrow ints"; "Floats (perfect)";
              "Floats (high)"; "Ints+floats (perfect)"; "Ints+floats (high)" ]
    (List.map
       (fun r ->
          [ r.f9_name; string_of_int r.f9_original; string_of_int r.f9_int_only;
            string_of_int r.f9_float_perfect; string_of_int r.f9_float_high;
            string_of_int r.f9_both_perfect; string_of_int r.f9_both_high ])
       (fig9_data ()))

(* ------------------------------------------------------------------ *)
(* Figure 10: occupancy (active thread blocks per SM). *)

type fig10_row = {
  f10_name : string;
  f10_blocks_orig : int;
  f10_blocks_perfect : int;
  f10_blocks_high : int;
  f10_limiter_high : string;
}

let fig10_data () =
  pmap
    (fun (w : Workload.t) ->
       let c = Compress.analyze w in
       let occ alloc = Compress.occupancy c alloc in
       let o = occ c.baseline in
       let p = occ c.perfect.alloc_both in
       let h = occ c.high.alloc_both in
       {
         f10_name = w.name;
         f10_blocks_orig = o.Occ.blocks_per_sm;
         f10_blocks_perfect = p.Occ.blocks_per_sm;
         f10_blocks_high = h.Occ.blocks_per_sm;
         f10_limiter_high = Occ.limiter_to_string h.Occ.limiter;
       })
    Registry.all

let print_fig10 () =
  Tab.section "Figure 10: active thread blocks per SM";
  Tab.print
    ~header:[ "Kernel"; "Original"; "Indirection (perfect)";
              "Indirection (high)"; "Limiter (high)" ]
    (List.map
       (fun r ->
          [ r.f10_name; string_of_int r.f10_blocks_orig;
            string_of_int r.f10_blocks_perfect;
            string_of_int r.f10_blocks_high; r.f10_limiter_high ])
       (fig10_data ()))

(* ------------------------------------------------------------------ *)
(* Figure 11: IPC increase. *)

type fig11_row = {
  f11_name : string;
  f11_ipc_base : float;
  f11_ipc_perfect : float;
  f11_ipc_high : float;
  f11_incr_perfect_pct : float;
  f11_incr_high_pct : float;
}

(* Per-(kernel, configuration) fan-out: the three simulated
   configurations of each kernel use three different traces (plain,
   quantised-perfect, quantised-high), so they parallelise without
   duplicating any memoised work once the analyses are warm. *)
let fig11_data () =
  let cs = analyzed_all () in
  let ipcs =
    pmap
      (fun (c, which) ->
         match which with
         | `Base -> (Simulate.baseline c).Gpr_sim.Sim.gpu_ipc
         | `Perfect -> (Simulate.proposed c Q.Perfect).Gpr_sim.Sim.gpu_ipc
         | `High -> (Simulate.proposed c Q.High).Gpr_sim.Sim.gpu_ipc)
      (List.concat_map
         (fun c -> [ (c, `Base); (c, `Perfect); (c, `High) ])
         cs)
  in
  let rec rows cs ipcs =
    match cs, ipcs with
    | [], [] -> []
    | c :: cs', base :: p :: h :: ipcs' ->
      let incr x = 100.0 *. ((x /. base) -. 1.0) in
      {
        f11_name = c.Compress.w.name;
        f11_ipc_base = base;
        f11_ipc_perfect = p;
        f11_ipc_high = h;
        f11_incr_perfect_pct = incr p;
        f11_incr_high_pct = incr h;
      }
      :: rows cs' ipcs'
    | _ -> assert false
  in
  rows cs ipcs

let fig11_geomeans rows =
  ( Stats.geomean_ratio (List.map (fun r -> r.f11_incr_perfect_pct) rows),
    Stats.geomean_ratio (List.map (fun r -> r.f11_incr_high_pct) rows) )

let print_fig11 () =
  Tab.section "Figure 11: IPC increase over the baseline register file";
  let rows = fig11_data () in
  Tab.print
    ~header:[ "Kernel"; "IPC base"; "IPC perfect"; "IPC high";
              "Increase (perfect)"; "Increase (high)" ]
    (List.map
       (fun r ->
          [ r.f11_name; Tab.fp ~digits:1 r.f11_ipc_base;
            Tab.fp ~digits:1 r.f11_ipc_perfect; Tab.fp ~digits:1 r.f11_ipc_high;
            Tab.pct r.f11_incr_perfect_pct; Tab.pct r.f11_incr_high_pct ])
       rows);
  let gp, gh = fig11_geomeans rows in
  Printf.printf "Geometric mean: %s (perfect), %s (high)   [paper: 15.75%%, 18.6%%]\n"
    (Tab.pct gp) (Tab.pct gh)

(* ------------------------------------------------------------------ *)
(* Figure 12: writeback-delay sensitivity. *)

type fig12_row = { f12_name : string; f12_ipc_by_delay : (int * float) list }

let fig12_delays = [ 0; 2; 4; 8 ]

let fig12_data () =
  let cs = analyzed_all () in
  (* Warm the quantised trace of each kernel once, in parallel, so the
     per-(kernel, delay) jobs below re-simulate without re-executing. *)
  let _ = pmap (fun c -> Simulate.warm slice c Q.High) cs in
  let ipcs =
    pmap
      (fun (c, d) ->
         (Simulate.proposed ~writeback_delay:d c Q.High).Gpr_sim.Sim.gpu_ipc)
      (List.concat_map (fun c -> List.map (fun d -> (c, d)) fig12_delays) cs)
  in
  let n = List.length fig12_delays in
  List.mapi
    (fun i c ->
       let mine =
         List.filteri (fun j _ -> j / n = i) ipcs
         |> List.map2 (fun d ipc -> (d, ipc)) fig12_delays
       in
       { f12_name = c.Compress.w.name; f12_ipc_by_delay = mine })
    cs

let print_fig12 () =
  Tab.section "Figure 12: IPC vs writeback delay (high quality)";
  Tab.print
    ~header:("Kernel" :: List.map (fun d -> Printf.sprintf "%d cycles" d) fig12_delays)
    (List.map
       (fun r ->
          r.f12_name
          :: List.map (fun (_, ipc) -> Tab.fp ~digits:1 ipc) r.f12_ipc_by_delay)
       (fig12_data ()))

(* ------------------------------------------------------------------ *)
(* Backend comparison: any set of registered register-file schemes on
   any registry subset.  Schemes that consume a precision assignment
   (slice) use the high quality threshold. *)

type backend_row = {
  b_kernel : string;
  b_backend : string;
  b_regs : int;
  b_spill_bytes : int;
  b_blocks : int;
  b_occupancy : float;
  b_ipc : float;
  b_ipc_vs_baseline_pct : float;
  b_stalls : Gpr_obs.Stall.breakdown;
}

let backend_comparison ?names (backends : Gpr_backend.Backend.t list) =
  let ws =
    match names with
    | None -> Registry.all
    | Some ns ->
      List.map
        (fun n ->
           match Registry.by_name n with
           | Some w -> w
           | None -> failwith ("unknown workload " ^ n))
        ns
  in
  let cs = pmap Compress.analyze ws in
  (* Baseline IPC first (also fanned out): every row reports its IPC
     change against the conventional register file. *)
  let bases = pmap (fun c -> (Simulate.baseline c).Gpr_sim.Sim.gpu_ipc) cs in
  let pairs =
    List.concat_map
      (fun (c, base) -> List.map (fun b -> (c, base, b)) backends)
      (List.combine cs bases)
  in
  pmap
    (fun ((c : Compress.t), base, b) ->
       let res, occ = Simulate.footprint b c Q.High in
       let st = Simulate.backend b c Q.High in
       {
         b_kernel = c.w.name;
         b_backend = Gpr_backend.Backend.id b;
         b_regs = res.Gpr_backend.Backend.alloc.Gpr_alloc.Alloc.pressure;
         b_spill_bytes = Gpr_backend.Backend.spill_bytes_per_thread res;
         b_blocks = occ.Occ.blocks_per_sm;
         b_occupancy = occ.Occ.occupancy;
         b_ipc = st.Gpr_sim.Sim.gpu_ipc;
         b_ipc_vs_baseline_pct =
           100.0 *. ((st.Gpr_sim.Sim.gpu_ipc /. base) -. 1.0);
         b_stalls = Gpr_sim.Sim.breakdown st;
       })
    pairs

let stall_header =
  "Stall% "
  ^ String.concat "/" (List.map Gpr_obs.Stall.short_name Gpr_obs.Stall.all)

let print_backend_comparison ?names backends =
  Tab.section "Backend comparison: occupancy and IPC per register-file scheme";
  Tab.print
    ~header:[ "Kernel"; "Backend"; "Regs/thread"; "Spill B/thread";
              "Blocks/SM"; "Occupancy"; "IPC"; "IPC vs baseline";
              "Issue%"; stall_header ]
    (List.map
       (fun r ->
          let total = Gpr_obs.Stall.total_slots r.b_stalls in
          let issue_pct =
            if total = 0 then 0.0
            else 100.0 *. float_of_int r.b_stalls.Gpr_obs.Stall.bd_issued
                 /. float_of_int total
          in
          [ r.b_kernel; r.b_backend; string_of_int r.b_regs;
            string_of_int r.b_spill_bytes; string_of_int r.b_blocks;
            Tab.pct (100.0 *. r.b_occupancy); Tab.fp ~digits:1 r.b_ipc;
            Tab.pct r.b_ipc_vs_baseline_pct;
            Tab.fp ~digits:1 issue_pct;
            Gpr_obs.Stall.pct_string r.b_stalls ])
       (backend_comparison ?names backends));
  print_endline
    "(schemes that consume a precision assignment use the high threshold;\n\
    \ stall columns attribute every scheduler issue slot: issued + stalls\n\
    \ = cycles x schedulers)"

(* ------------------------------------------------------------------ *)
(* Sec. 6.4 / 6.5 / 7. *)

let print_breakdown (b : Gpr_area.Area.breakdown) =
  Tab.print
    ~header:[ "Structure"; "Transistors" ]
    [
      [ "Value extractors"; string_of_int b.value_extractors ];
      [ "Value converters"; string_of_int b.value_converters ];
      [ "Indirection tables (x2)"; string_of_int b.indirection_tables ];
      [ "Value truncators"; string_of_int b.value_truncators ];
      [ "Collector-unit extensions"; string_of_int b.cu_extensions ];
      [ "Total per SM"; string_of_int b.total_per_sm ];
      [ "Total chip"; string_of_int b.total_chip ];
      [ "Fraction of chip budget"; Tab.pct ~digits:2 (100.0 *. b.fraction_of_chip) ];
    ]

let print_area () =
  Tab.section "Sec. 6.4: area overhead (Fermi GTX 480)";
  print_breakdown Gpr_area.Area.fermi;
  print_endline
    "(paper: ~1.8M per SM, ~27M total, under 1% of the 3.1B-transistor chip)"

let print_power () =
  Tab.section "Sec. 6.5: power overhead";
  let p = Gpr_area.Area.power Gpr_area.Area.fermi in
  Printf.printf
    "Static power overhead tracks area: %s of chip.\n\
     Worst-case dynamic factor on a register read (double fetch): %.1fx.\n\
     Comparison point, doubling the register file (2x bitline length): %.1fx per read.\n\
     Double fetches only occur on split operands, which the compiler controls.\n"
    (Tab.pct ~digits:2 (100.0 *. p.static_overhead_fraction))
    p.double_fetch_read_energy_factor
    p.doubled_regfile_read_energy_factor

let print_volta () =
  Tab.section "Sec. 7: scaling to Volta V100";
  print_breakdown Gpr_area.Area.volta;
  print_endline
    "(paper: ~1.4M per processing block, 5.6M per SM, ~470M total, just over 2%)"

(* ------------------------------------------------------------------ *)
(* Ablations: design choices the paper calls out, swept on a three-
   kernel subset (one latency-bound, one memory-bound, one shared-
   memory/barrier-bound). *)

let ablation_kernels = [ "Hotspot"; "CFD"; "IMGVF" ]

let print_ablation_scheduler () =
  Tab.section "Ablation: warp scheduler policy (GTO vs LRR, baseline RF)";
  let rows =
    pmap
      (fun name ->
         let c = analyze name in
         let ipc scheduler =
           (snd (Simulate.on_machine { cfg with scheduler } baseline c Q.High))
             .gpu_ipc
         in
         let gto = ipc Gpr_arch.Config.Gto and lrr = ipc Gpr_arch.Config.Lrr in
         [ name; Tab.fp ~digits:1 gto; Tab.fp ~digits:1 lrr;
           Tab.pct (100.0 *. ((gto /. lrr) -. 1.0)) ])
      ablation_kernels
  in
  Tab.print ~header:[ "Kernel"; "GTO IPC"; "LRR IPC"; "GTO vs LRR" ] rows

let print_ablation_banks () =
  Tab.section
    "Ablation: register/indirection bank count (proposed RF, high quality)";
  let rows =
    pmap
      (fun name ->
         let c = analyze name in
         let ipc register_banks =
           (snd (Simulate.on_machine { cfg with register_banks } slice c Q.High))
             .gpu_ipc
         in
         name :: List.map (fun b -> Tab.fp ~digits:1 (ipc b)) [ 4; 8; 16; 32 ])
      ablation_kernels
  in
  Tab.print ~header:[ "Kernel"; "4 banks"; "8 banks"; "16 banks"; "32 banks" ]
    rows

let print_ablation_split () =
  Tab.section
    "Ablation: split placements (fragmentation vs double fetches, high quality)";
  let rows =
    pmap
      (fun name ->
         let c = analyze name in
         let data = Compress.threshold_data c Gpr_quality.Quality.High in
         let w = Option.get (Registry.by_name name) in
         let width =
           Gpr_backend.Backend_slice.width_fn ~narrow_ints:true
             ~narrow_floats:(Some data.Compress.assignment) ~width:c.width
         in
         let no_split =
           Gpr_alloc.Alloc.run ~allow_split:false w.kernel ~width_of:width
         in
         [ name;
           string_of_int data.Compress.alloc_both.pressure;
           string_of_int data.Compress.alloc_both.split_count;
           string_of_int no_split.pressure ])
      ablation_kernels
  in
  Tab.print
    ~header:[ "Kernel"; "Pressure (split ok)"; "Splits used";
              "Pressure (no split)" ]
    rows

let print_volta_sim () =
  Tab.section "Sec. 7 extension: proposed register file on Volta V100";
  let on_volta b c =
    let occ, st = Simulate.on_machine Gpr_arch.Config.volta_v100 b c Q.High in
    (occ.Occ.blocks_per_sm, st.Gpr_sim.Sim.gpu_ipc)
  in
  let rows =
    pmap
      (fun name ->
         let c = analyze name in
         let ob, base = on_volta baseline c in
         let op, prop = on_volta slice c in
         [ name; string_of_int ob; string_of_int op; Tab.fp ~digits:1 base;
           Tab.fp ~digits:1 prop;
           Tab.pct (100.0 *. ((prop /. base) -. 1.0)) ])
      ablation_kernels
  in
  Tab.print
    ~header:[ "Kernel"; "Blocks (base)"; "Blocks (prop)"; "IPC base";
              "IPC proposed"; "Change" ]
    rows;
  print_endline
    "(Volta's larger register file leaves more headroom, so gains shrink\n\
    \ relative to Fermi — consistent with the paper's Sec. 7 expectation\n\
    \ that register shortage persists but is milder per thread)"

(* ------------------------------------------------------------------ *)
(* Cross-scheme Pareto: IPC x area x energy x fault coverage.  One row
   per registered scheme, aggregated over the whole kernel registry, so
   the trade-off every backend buys is visible on a single line. *)

type pareto_row = {
  p_scheme : string;
  p_ipc_geomean_pct : float;
  p_area_fraction : float;
  p_energy_nj : float;
  p_edp : float;
  p_gated_pct : float;
  p_fault_absorbed : float option;
}

let pareto_data ?(fault_coverage = []) (backends : Gpr_backend.Backend.t list)
    =
  let cs = analyzed_all () in
  let bases = pmap (fun c -> (Simulate.baseline c).Gpr_sim.Sim.gpu_ipc) cs in
  let pairs =
    List.concat_map
      (fun b -> List.map (fun (c, base) -> (b, c, base)) (List.combine cs bases))
      backends
  in
  let cells =
    pmap
      (fun (b, c, base) ->
         let st = Simulate.backend b c Q.High in
         let e = Simulate.backend_energy b c Q.High in
         ( Gpr_backend.Backend.id b,
           100.0 *. ((st.Gpr_sim.Sim.gpu_ipc /. base) -. 1.0),
           e ))
      pairs
  in
  List.map
    (fun b ->
       let id = Gpr_backend.Backend.id b in
       let mine = List.filter (fun (i, _, _) -> i = id) cells in
       let es = List.map (fun (_, _, e) -> e) mine in
       let mean f = Stats.mean (List.map f es) in
       let module S = (val b : Gpr_backend.Backend.Scheme) in
       {
         p_scheme = id;
         p_ipc_geomean_pct =
           Stats.geomean_ratio (List.map (fun (_, p, _) -> p) mine);
         p_area_fraction = (S.area cfg).Gpr_backend.Backend.ar_fraction_of_chip;
         p_energy_nj = mean (fun e -> e.Gpr_area.Energy.e_total_nj);
         p_edp = mean (fun e -> e.Gpr_area.Energy.e_edp);
         p_gated_pct =
           100.0 *. mean (fun e -> e.Gpr_area.Energy.e_gated_fraction);
         p_fault_absorbed = List.assoc_opt id fault_coverage;
       })
    backends

let print_pareto ?fault_coverage backends =
  Tab.section
    "Cross-scheme Pareto: IPC x area x energy x fault coverage (geomean/mean \
     over the registry)";
  Tab.print
    ~header:[ "Scheme"; "IPC vs baseline"; "Area overhead"; "Energy (nJ)";
              "EDP (nJ*cyc)"; "Gated capacity"; "Faults absorbed" ]
    (List.map
       (fun r ->
          [ r.p_scheme;
            Tab.pct r.p_ipc_geomean_pct;
            Tab.pct ~digits:2 (100.0 *. r.p_area_fraction);
            Tab.fp ~digits:1 r.p_energy_nj;
            Tab.fp ~digits:0 r.p_edp;
            Tab.pct r.p_gated_pct;
            (match r.p_fault_absorbed with
             | Some n -> Tab.fp ~digits:1 n
             | None -> "-") ])
       (pareto_data ?fault_coverage backends));
  print_endline
    "(energy and EDP are relative-model figures -- only the ratios between\n\
    \ schemes carry meaning; faults absorbed come from `gpr check --faults`\n\
    \ and are omitted when the campaign was not run)"

let print_ablations () =
  print_ablation_scheduler ();
  print_ablation_banks ();
  print_ablation_split ();
  print_volta_sim ()

let sections =
  [
    ("table2", print_table2);
    ("table3", print_table3);
    ("fig8", print_fig8);
    ("widths", print_width_report);
    ("table4", print_table4);
    ("table1", print_table1);
    ("fig9", print_fig9);
    ("fig10", print_fig10);
    ("fig11", print_fig11);
    ("fig12", print_fig12);
    ("area", print_area);
    ("power", print_power);
    ("volta", print_volta);
    ("ablations", print_ablations);
  ]

let print_all () = List.iter (fun (_, print) -> print ()) sections
