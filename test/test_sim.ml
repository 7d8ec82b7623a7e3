(* Timing-simulator tests: latency hiding, scoreboard serialisation,
   writeback-delay sensitivity, barrier progress, cache model, and the
   proposed-path overheads (conversions, double fetches). *)

open Gpr_isa
open Gpr_isa.Types
module E = Gpr_exec.Exec
module T = Gpr_exec.Trace
module Sim = Gpr_sim.Sim
module A = Gpr_alloc.Alloc

let cfg = Gpr_arch.Config.fermi_gtx480

(* ---------------------------------------------------------------- *)
(* Synthetic traces *)

let item ?(warp = 0) ?(block = 0) ?(unit_ = Spu) ?(srcs = []) ?dst
    ?(dst_float = false) ?mem pc =
  {
    T.t_warp = warp;
    t_block_id = block;
    t_pc = pc;
    t_unit = unit_;
    t_srcs = srcs;
    t_dst = dst;
    t_dst_float = dst_float;
    t_active = 32;
    t_mem = mem;
  }

let mk_trace ?(warps_per_block = 1) ?(num_blocks = 1) items =
  {
    T.items = Array.of_list items;
    warps_per_block;
    num_blocks;
    thread_instructions = List.fold_left (fun a (i : T.item) -> a + i.t_active) 0 items;
  }

(* An allocation covering registers 0..n-1 at full width. *)
let full_alloc n =
  let placements = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    Hashtbl.replace placements v
      { A.reg0 = v; mask0 = 0xff; reg1 = -1; mask1 = 0; slices = 8; bits = 32;
        signed = true; is_float = false }
  done;
  { A.pressure = n; placements; num_arch_regs = n; peak_slices = n * 8;
    split_count = 0 }

let run ?(waves = 1) ?(blocks = 1) ?(mode = Sim.Baseline) ?alloc trace =
  let alloc = match alloc with Some a -> a | None -> full_alloc 64 in
  Sim.run ~waves cfg ~trace ~alloc ~blocks_per_sm:blocks ~mode

let test_dependent_chain_serialises () =
  (* r(i+1) depends on r(i): each instruction waits for the previous
     writeback; cycles must scale with the chain length. *)
  let n = 32 in
  let chain =
    List.init n (fun i ->
        item ~srcs:(if i = 0 then [] else [ i - 1 ]) ~dst:i i)
  in
  let dep = run (mk_trace chain) in
  let indep = List.init n (fun i -> item ~dst:i i) in
  let ind = run (mk_trace indep) in
  Alcotest.(check bool) "dependency costs cycles" true
    (dep.Sim.cycles > ind.Sim.cycles + (n * (cfg.spu_latency - 1)) / 2);
  Alcotest.(check int) "same work" dep.Sim.warp_instructions
    ind.Sim.warp_instructions

let test_more_warps_hide_latency () =
  (* The same dependent chain in many warps: IPC should rise with the
     number of resident warps. *)
  let chain w =
    List.init 24 (fun i ->
        item ~warp:w ~srcs:(if i = 0 then [] else [ i - 1 ]) ~dst:i i)
  in
  let one = run (mk_trace (chain 0)) in
  let eight =
    run
      (mk_trace ~warps_per_block:8
         (List.concat_map chain (List.init 8 Fun.id)))
  in
  Alcotest.(check bool) "8 warps faster per instr" true
    (eight.Sim.sm_ipc > 3.0 *. one.Sim.sm_ipc)

let test_writeback_delay_monotone () =
  let chain =
    List.init 24 (fun i ->
        item ~srcs:(if i = 0 then [] else [ i - 1 ]) ~dst:i i)
  in
  let trace = mk_trace chain in
  let cycles d =
    (run ~mode:(Sim.Proposed { writeback_delay = d }) trace).Sim.cycles
  in
  let cs = List.map cycles [ 0; 2; 4; 8 ] in
  let rec nondecr = function
    | a :: (b :: _ as r) -> a <= b && nondecr r
    | _ -> true
  in
  Alcotest.(check bool) "monotone in writeback delay" true (nondecr cs);
  Alcotest.(check bool) "strictly grows overall" true
    (List.nth cs 3 > List.hd cs)

let test_proposed_overhead_at_same_occupancy () =
  let chain =
    List.init 32 (fun i ->
        item ~srcs:(if i = 0 then [] else [ i - 1 ]) ~dst:i i)
  in
  let trace = mk_trace chain in
  let b = run trace in
  let p = run ~mode:(Sim.Proposed { writeback_delay = 3 }) trace in
  Alcotest.(check bool) "proposed not faster at equal occupancy" true
    (p.Sim.cycles >= b.Sim.cycles)

let test_conversions_counted () =
  (* Narrow float sources must pass through the value converter. *)
  let placements = Hashtbl.create 4 in
  Hashtbl.replace placements 0
    { A.reg0 = 0; mask0 = 0xf; reg1 = -1; mask1 = 0; slices = 4; bits = 16;
      signed = false; is_float = true };
  let alloc =
    { A.pressure = 1; placements; num_arch_regs = 1; peak_slices = 4;
      split_count = 0 }
  in
  let items = List.init 6 (fun i -> item ~srcs:[ 0 ] i) in
  let s =
    run ~alloc ~mode:(Sim.Proposed { writeback_delay = 3 })
      (mk_trace (item ~dst:0 99 :: items))
  in
  Alcotest.(check int) "six conversions" 6 s.Sim.conversions;
  let sbase = run ~alloc (mk_trace (item ~dst:0 99 :: items)) in
  Alcotest.(check int) "baseline never converts" 0 sbase.Sim.conversions

let test_double_fetch_counted () =
  let placements = Hashtbl.create 4 in
  Hashtbl.replace placements 0
    { A.reg0 = 0; mask0 = 0x3; reg1 = 1; mask1 = 0x3; slices = 4; bits = 16;
      signed = true; is_float = false };
  let alloc =
    { A.pressure = 2; placements; num_arch_regs = 1; peak_slices = 4;
      split_count = 1 }
  in
  let items = List.init 4 (fun i -> item ~srcs:[ 0 ] i) in
  let s =
    run ~alloc ~mode:(Sim.Proposed { writeback_delay = 3 })
      (mk_trace (item ~dst:0 99 :: items))
  in
  Alcotest.(check int) "double fetches" 4 s.Sim.double_fetches;
  let sb = run ~alloc (mk_trace (item ~dst:0 99 :: items)) in
  Alcotest.(check int) "baseline single fetch" 0 sb.Sim.double_fetches

let test_barrier_completes () =
  (* Two warps with interleaved barriers must make progress. *)
  let w warp =
    [ item ~warp ~dst:0 0; item ~warp ~unit_:Sync 1; item ~warp ~dst:1 2;
      item ~warp ~unit_:Sync 3; item ~warp ~dst:2 4 ]
  in
  let s = run (mk_trace ~warps_per_block:2 (w 0 @ w 1)) in
  Alcotest.(check int) "all issued" 10 s.Sim.warp_instructions;
  Alcotest.(check bool) "finished quickly" true (s.Sim.cycles < 10_000)

let test_waves_scale_work () =
  let items = List.init 16 (fun i -> item ~dst:i i) in
  let one = run ~waves:1 (mk_trace items) in
  let four = run ~waves:4 (mk_trace items) in
  Alcotest.(check int) "4x thread instructions"
    (4 * one.Sim.thread_instructions) four.Sim.thread_instructions

let test_memory_latency_and_caches () =
  (* Same address repeatedly: first access misses, later ones hit. *)
  let mem = { T.m_space = Global; m_addresses = Array.init 32 (fun l -> l * 4) } in
  let loads = List.init 8 (fun i -> item ~dst:i ~unit_:Ldst ~mem i) in
  let s = run (mk_trace loads) in
  Alcotest.(check bool) "l1 mostly hits after warmup" true
    (s.Sim.l1_hit_rate > 0.8);
  (* Scattered addresses (one line per lane) serialise the LD/ST unit. *)
  let scat = { T.m_space = Global; m_addresses = Array.init 32 (fun l -> l * 128) } in
  let sloads = List.init 8 (fun i -> item ~dst:i ~unit_:Ldst ~mem:scat i) in
  let s2 = run (mk_trace sloads) in
  Alcotest.(check bool) "scatter slower than coalesced" true
    (s2.Sim.cycles > s.Sim.cycles)

let test_texture_accesses_tracked () =
  let mem = { T.m_space = Texture; m_addresses = Array.init 32 (fun l -> l * 128) } in
  let loads = List.init 4 (fun i -> item ~dst:i ~unit_:Ldst ~mem i) in
  let s = run (mk_trace loads) in
  Alcotest.(check int) "texture line accesses" (4 * 32) s.Sim.tex_accesses

let test_sfu_throughput_bound () =
  (* Independent SFU ops: bound by the 8-cycle SFU initiation interval. *)
  let n = 32 in
  let sfu = List.init n (fun i -> item ~unit_:Sfu ~dst:i i) in
  let s = run (mk_trace sfu) in
  Alcotest.(check bool) "at least II x n cycles" true (s.Sim.cycles >= 8 * (n - 1));
  let spu = List.init n (fun i -> item ~dst:i i) in
  let s2 = run (mk_trace spu) in
  Alcotest.(check bool) "spu stream faster" true (s2.Sim.cycles < s.Sim.cycles)

(* ---------------------------------------------------------------- *)
(* Stall attribution: every scheduler slot of every cycle is accounted
   for exactly once, so
   issued_slots + sum of stall_* = cycles x warp_schedulers.
   Each test also runs under ~check:true, which enforces the same
   identity inside the model. *)

module Stall = Gpr_obs.Stall

let run_checked ?(waves = 1) ?(blocks = 1) ?(mode = Sim.Baseline) ?alloc trace =
  let alloc = match alloc with Some a -> a | None -> full_alloc 64 in
  Sim.run ~check:true ~waves cfg ~trace ~alloc ~blocks_per_sm:blocks ~mode

let check_identity name (s : Sim.stats) =
  Alcotest.(check int)
    (name ^ ": slots = cycles x schedulers")
    (s.Sim.cycles * cfg.warp_schedulers)
    (Stall.total_slots (Sim.breakdown s));
  Alcotest.(check int)
    (name ^ ": issued slots = warp instructions")
    s.Sim.warp_instructions s.Sim.issued_slots

let test_stall_identity_scoreboard () =
  let chain =
    List.init 32 (fun i ->
        item ~srcs:(if i = 0 then [] else [ i - 1 ]) ~dst:i i)
  in
  let s = run_checked (mk_trace chain) in
  check_identity "chain" s;
  Alcotest.(check bool) "dependent chain stalls on the scoreboard" true
    (s.Sim.stall_scoreboard > 0);
  Alcotest.(check int) "no spill stalls outside Spill mode" 0
    s.Sim.stall_spill_port

let test_stall_identity_barrier () =
  (* Warp 0 parks at a barrier while warp 1 grinds through a dependent
     chain: warp 0's scheduler loses its slots to the barrier wait. *)
  let w0 = [ item ~warp:0 ~unit_:Sync 0; item ~warp:0 ~dst:40 1 ] in
  let w1 =
    List.init 24 (fun i ->
        item ~warp:1 ~srcs:(if i = 0 then [] else [ i - 1 ]) ~dst:i (i + 2))
    @ [ item ~warp:1 ~unit_:Sync 26 ]
  in
  let s = run_checked (mk_trace ~warps_per_block:2 (w0 @ w1)) in
  check_identity "barrier" s;
  Alcotest.(check bool) "barrier wait attributed" true (s.Sim.stall_barrier > 0)

let test_stall_identity_spill_port () =
  (* Register 0 lives in the spill space; every write makes dependents
     wait out the spill write-through, which must be attributed to the
     spill port, not the plain scoreboard. *)
  let spilled = Hashtbl.create 4 in
  Hashtbl.replace spilled 0 ();
  let items =
    List.concat
      (List.init 6 (fun i ->
           [ item ~dst:0 (2 * i); item ~srcs:[ 0 ] ~dst:(i + 1) ((2 * i) + 1) ]))
  in
  let s =
    run_checked ~mode:(Sim.Spill { latency = 40; spilled }) (mk_trace items)
  in
  check_identity "spill" s;
  Alcotest.(check bool) "spill traffic happened" true (s.Sim.spill_stores > 0);
  Alcotest.(check bool) "spill-port stalls attributed" true
    (s.Sim.stall_spill_port > 0)

let test_stall_identity_empty_trace () =
  let s = run_checked (mk_trace []) in
  check_identity "empty" s;
  Alcotest.(check int) "degenerate run is one cycle" 1 s.Sim.cycles;
  Alcotest.(check int) "all slots idle"
    (s.Sim.cycles * cfg.warp_schedulers)
    s.Sim.stall_empty

let test_stall_identity_all_modes () =
  (* One mixed trace through all three register-file models, multiple
     waves and blocks: the identity is structural, not mode-specific. *)
  let mem = { T.m_space = Global; m_addresses = Array.init 32 (fun l -> l * 4) } in
  let body w =
    List.init 16 (fun i ->
        if i mod 5 = 4 then item ~warp:w ~unit_:Ldst ~mem ~dst:i (16 * w + i)
        else item ~warp:w ~srcs:(if i = 0 then [] else [ i - 1 ]) ~dst:i
            (16 * w + i))
  in
  let trace = mk_trace ~warps_per_block:4 (List.concat_map body [ 0; 1; 2; 3 ]) in
  let spilled = Hashtbl.create 4 in
  Hashtbl.replace spilled 1 ();
  List.iter
    (fun (label, mode) ->
      let s = run_checked ~waves:3 ~blocks:2 ~mode trace in
      check_identity label s)
    [
      ("baseline", Sim.Baseline);
      ("proposed", Sim.Proposed { writeback_delay = 3 });
      ("spill", Sim.Spill { latency = 20; spilled });
    ]

(* ---------------------------------------------------------------- *)
(* Cache unit tests *)

let test_cache_basics () =
  let c = Gpr_sim.Cache.create ~capacity_bytes:1024 ~line_bytes:128 ~assoc:2 in
  Alcotest.(check bool) "first miss" false (Gpr_sim.Cache.access c 0);
  Alcotest.(check bool) "then hit" true (Gpr_sim.Cache.access c 64);
  Alcotest.(check int) "hits" 1 (Gpr_sim.Cache.hits c);
  Alcotest.(check int) "misses" 1 (Gpr_sim.Cache.misses c)

let test_cache_lru_eviction () =
  (* 2 sets x 2 ways of 128B: three lines mapping to one set evict LRU. *)
  let c = Gpr_sim.Cache.create ~capacity_bytes:512 ~line_bytes:128 ~assoc:2 in
  ignore (Gpr_sim.Cache.access c 0);      (* set 0 *)
  ignore (Gpr_sim.Cache.access c 256);    (* set 0 *)
  ignore (Gpr_sim.Cache.access c 512);    (* set 0: evicts addr 0 *)
  Alcotest.(check bool) "0 evicted" false (Gpr_sim.Cache.access c 0);
  Alcotest.(check bool) "512 retained" true (Gpr_sim.Cache.access c 512)

let test_cache_hit_rate_reset () =
  let c = Gpr_sim.Cache.create ~capacity_bytes:1024 ~line_bytes:128 ~assoc:4 in
  ignore (Gpr_sim.Cache.access c 0);
  ignore (Gpr_sim.Cache.access c 0);
  Alcotest.(check (float 1e-9)) "50%" 0.5 (Gpr_sim.Cache.hit_rate c);
  Gpr_sim.Cache.reset_stats c;
  Alcotest.(check (float 1e-9)) "reset -> 1.0 (vacuous)" 1.0
    (Gpr_sim.Cache.hit_rate c)

(* ---------------------------------------------------------------- *)
(* Differential equivalence: the flat engine against the reference
   engine (a single-tenant [Sim_multi] run), through the shared harness
   in sim_oracle.ml, on the full workload registry under every
   registered register-file backend and on generated kernels via a
   QCheck property (seed count scaled by GPR_SIM_EQ_COUNT; CI runs
   500). *)

module W = Gpr_workloads.Workload
module Backend = Gpr_backend.Backend
module Oracle = Sim_oracle

let fast_tests = Oracle.fast_tests

let agree label ~trace ~alloc ~demand ~mode ~waves =
  ignore (Oracle.agree label ~trace ~alloc ~demand ~mode ~waves)

let test_registry_equivalence () = Oracle.registry agree

let eq_count =
  match Sys.getenv_opt "GPR_SIM_EQ_COUNT" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 40)
  | None -> if fast_tests then 10 else 40

(* The name predates the reference engine's move into Sim_multi; it
   stays so the suite's printed test names stay stable. *)
let prop_engines_agree =
  QCheck.Test.make ~name:"fast engine = Sim_ref on generated kernels"
    ~count:eq_count
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      Oracle.generated seed agree;
      true)

(* ---------------------------------------------------------------- *)
(* Idle fast-forward edge cases: schedules engineered so the fast
   engine's event-jump path (replaying frozen stall causes across
   skipped cycles) is the dominant regime.  Each case must (a) agree
   with the reference engine byte-for-byte and (b) satisfy the slot
   identity, which ~check:true also enforces inside both engines.  One
   block is resident: the demand claims all of the shared memory. *)

let agree_checked label ?(waves = 1) ?(mode = Sim.Baseline) trace =
  let demand =
    Oracle.demand_for_blocks ~regs:64
      ~warps_per_block:trace.T.warps_per_block 1
  in
  let s =
    Oracle.agree label ~trace ~alloc:(full_alloc 64) ~demand ~mode ~waves
  in
  check_identity label s;
  s

let test_ffwd_empty_trace () =
  let s = agree_checked "ffwd-empty" (mk_trace []) in
  Alcotest.(check int) "one cycle" 1 s.Sim.cycles

let test_ffwd_single_warp_barrier () =
  (* A lone warp slamming into back-to-back barriers: every Sync must
     release immediately (nobody else to wait for), with the dependent
     chains between barriers driving long idle stretches that the
     fast-forward jumps over. *)
  let items =
    List.concat
      (List.init 8 (fun r ->
           [
             item ~dst:(2 * r) (3 * r);
             item ~srcs:[ 2 * r ] ~dst:((2 * r) + 1) ((3 * r) + 1);
             item ~unit_:Sync ((3 * r) + 2);
           ]))
  in
  let s = agree_checked "ffwd-barrier-1warp" (mk_trace items) in
  Alcotest.(check int) "all issued" 24 s.Sim.warp_instructions;
  Alcotest.(check bool) "idle cycles were skipped over" true
    (s.Sim.idle_cycles > 0)

let test_ffwd_deadlock_adjacent_barrier () =
  (* Warp 1 retires without ever reaching a Sync while warp 0 waits at
     one: the barrier must release for warp 0 anyway (exited warps
     cannot hold a block hostage), in both engines identically. *)
  let w0 =
    [ item ~warp:0 ~dst:0 0; item ~warp:0 ~unit_:Sync 1;
      item ~warp:0 ~srcs:[ 0 ] ~dst:1 2 ]
  in
  let w1 = [ item ~warp:1 ~dst:8 3 ] in
  let s =
    agree_checked "ffwd-deadlock-adjacent"
      (mk_trace ~warps_per_block:2 (w0 @ w1))
  in
  Alcotest.(check int) "all issued" 4 s.Sim.warp_instructions;
  Alcotest.(check bool) "bounded" true (s.Sim.cycles < 10_000)

let test_ffwd_same_cycle_releases () =
  (* Two SPU writes issued by different schedulers on the same cycle
     retire on the same cycle; a reader of both then wakes exactly
     once.  Repeated so several scoreboard releases collide per run —
     the retire heap must drain same-cycle events in the reference
     engine's LIFO bucket order. *)
  let round r =
    [
      item ~warp:0 ~dst:(3 * r) (10 * r);
      item ~warp:1 ~dst:((3 * r) + 1) ((10 * r) + 1);
      item ~warp:0
        ~srcs:[ 3 * r; (3 * r) + 1 ]
        ~dst:((3 * r) + 2)
        ((10 * r) + 2);
      item ~warp:1 ~srcs:[ (3 * r) + 2 ] ((10 * r) + 3);
    ]
  in
  let items = List.concat (List.init 6 round) in
  let s =
    agree_checked "ffwd-same-cycle-releases"
      (mk_trace ~warps_per_block:2 items)
  in
  Alcotest.(check bool) "scoreboard stalls present" true
    (s.Sim.stall_scoreboard > 0)

let test_ffwd_spill_port_saturation () =
  (* Every register lives in the spill space behind a slow, serialising
     port: long latencies force deep idle stretches whose frozen cause
     must replay as Spill_port, not leak into Scoreboard or Empty. *)
  let spilled = Hashtbl.create 8 in
  for r = 0 to 7 do
    Hashtbl.replace spilled r ()
  done;
  let items =
    List.concat
      (List.init 8 (fun i ->
           let r = i mod 8 in
           [
             item ~dst:r (2 * i);
             item ~srcs:[ r ] ~dst:((r + 1) mod 8) ((2 * i) + 1);
           ]))
  in
  let s =
    agree_checked "ffwd-spill-saturation"
      ~mode:(Sim.Spill { latency = 200; spilled })
      ~waves:2 (mk_trace items)
  in
  Alcotest.(check bool) "spill port saturated" true
    (s.Sim.stall_spill_port > 0);
  Alcotest.(check bool) "fast-forward engaged" true (s.Sim.idle_cycles > 0);
  Alcotest.(check bool) "spill traffic" true
    (s.Sim.spill_loads > 0 && s.Sim.spill_stores > 0)

(* ---------------------------------------------------------------- *)
(* Retire horizons past the retire ring's initial 1024 buckets, pinned
   to the reference engine.  With a DRAM latency of 4 x 1024 cycles a
   miss retires more than a ring turn ahead of the events around it:
   on real kernels pushes collide and the ring grows; a lone warp's
   single far retire collides with nothing, so the idle fast-forward's
   one-turn bucket scan comes up empty and falls back to the least
   bucket cycle. *)

let long_horizon_cfg = { cfg with dram_latency = 4 * 1024 }

let agree_long_horizon label ~trace ~alloc ~demand ~mode ~waves =
  ignore
    (Oracle.agree ~cfg:long_horizon_cfg label ~trace ~alloc ~demand ~mode
       ~waves)

let test_ring_registry () =
  Oracle.registry ~only:[ "Hotspot" ] agree_long_horizon

let test_ring_generated () = Oracle.generated 1 agree_long_horizon

let test_ring_lone_far_retire () =
  let mem = { T.m_space = Global; m_addresses = Array.init 32 (fun l -> l * 4) } in
  let trace =
    mk_trace
      [ item ~unit_:Ldst ~mem ~dst:0 0; item ~srcs:[ 0 ] ~dst:1 1;
        item ~srcs:[ 1 ] 2 ]
  in
  let demand = Oracle.demand_for_blocks ~regs:64 ~warps_per_block:1 1 in
  let s =
    Oracle.agree ~cfg:long_horizon_cfg "lone-far-retire" ~trace
      ~alloc:(full_alloc 64) ~demand ~mode:Sim.Baseline ~waves:1
  in
  Alcotest.(check bool) "waited out the DRAM latency" true
    (s.Sim.cycles > long_horizon_cfg.dram_latency)

(* ---------------------------------------------------------------- *)
(* The packing memo: keyed by the trace's physical identity and the L1
   line size, never observable in the stats. *)

(* Hotspot's trace with its baseline allocation and demand. *)
let hotspot_case () =
  let w = Option.get (Gpr_workloads.Registry.by_name "Hotspot") in
  let trace = W.trace w ~quantize:None in
  let width = Gpr_analysis.Width.analyze w.kernel ~launch:w.launch in
  let scheme = Gpr_backend.Registry.find_exn "baseline" in
  let module S = (val scheme : Backend.Scheme) in
  let res = S.analyze ~kernel:w.kernel ~width ~precision:None in
  let demand =
    Backend.demand cfg res ~warps_per_block:(W.warps_per_block w)
      ~shared_bytes_per_block:(W.shared_bytes_per_block w)
  in
  (trace, res.Backend.alloc, demand, Backend.sim_mode scheme res)

let test_memo_line_size () =
  (* The same physical trace under two line sizes: a memo that ignored
     the line size would replay the first run's cache lines. *)
  let trace, alloc, demand, mode = hotspot_case () in
  List.iter
    (fun line ->
      ignore
        (Oracle.agree
           ~cfg:{ cfg with l1_line_bytes = line }
           (Printf.sprintf "Hotspot/%dB lines" line)
           ~trace ~alloc ~demand ~mode ~waves:1))
    [ 128; 32; 128 ]

let flat_stats ~trace ~alloc ~demand ~mode =
  match Oracle.flat ~trace ~alloc ~demand ~mode ~waves:1 () with
  | Ok s -> s
  | Error m -> Alcotest.failf "invariant violated: %s" m

let test_memo_structural_copy () =
  let trace, alloc, demand, mode = hotspot_case () in
  let copy = { trace with T.items = Array.copy trace.T.items } in
  let first = flat_stats ~trace ~alloc ~demand ~mode in
  Oracle.check_same "copy" (flat_stats ~trace:copy ~alloc ~demand ~mode) first;
  Oracle.check_same "original again" (flat_stats ~trace ~alloc ~demand ~mode)
    first

let test_memo_two_domains () =
  (* Each domain packs into its own slot; runs overlap in time. *)
  let trace, alloc, demand, mode = hotspot_case () in
  let expect = flat_stats ~trace ~alloc ~demand ~mode in
  let worker () = List.init 3 (fun _ -> flat_stats ~trace ~alloc ~demand ~mode) in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  List.iter
    (fun d ->
      List.iter (fun s -> Oracle.check_same "domain" s expect) (Domain.join d))
    [ d1; d2 ]

(* ---------------------------------------------------------------- *)
(* Run reuse: a run whose derived inputs equal the last run's on the
   same trace returns that run's stats record.  A hit is observable as
   physical equality with an earlier result (a loop always builds a
   fresh record), and every answer must equal [Sim.run_loop]'s. *)

module Metrics = Gpr_obs.Metrics

let fresh label (s : Sim.stats) ~seen =
  if List.exists (fun x -> x == s) seen then
    Alcotest.failf "%s: answered from a kept run" label

let hit label (s : Sim.stats) (kept : Sim.stats) =
  if s != kept then Alcotest.failf "%s: not answered from the kept run" label

(* Hotspot's trace with its slice allocation, mode and occupancy. *)
let hotspot_slice () =
  let w = Option.get (Gpr_workloads.Registry.by_name "Hotspot") in
  let trace = W.trace w ~quantize:None in
  let width = Gpr_analysis.Width.analyze w.kernel ~launch:w.launch in
  let scheme = Gpr_backend.Registry.find_exn "slice" in
  let module S = (val scheme : Backend.Scheme) in
  let res = S.analyze ~kernel:w.kernel ~width ~precision:None in
  let occ =
    Backend.occupancy cfg res ~warps_per_block:(W.warps_per_block w)
      ~shared_bytes_per_block:(W.shared_bytes_per_block w)
  in
  (trace, res.Backend.alloc, Backend.sim_mode scheme res,
   occ.Gpr_arch.Occupancy.blocks_per_sm)

let sim_counters () =
  List.filter_map
    (function
      | Metrics.Counter { name; count }
        when String.starts_with ~prefix:"sim." name ->
        Some (name, count)
      | _ -> None)
    (Metrics.snapshot ())

let test_reuse_repeat () =
  let trace, alloc, mode, blocks = hotspot_slice () in
  let go () = Sim.run ~waves:1 cfg ~trace ~alloc ~blocks_per_sm:blocks ~mode in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let c0 = sim_counters () in
  let first = go () in
  let c1 = sim_counters () in
  let again = go () in
  let c2 = sim_counters () in
  Metrics.set_enabled was;
  hit "repeat" again first;
  let delta a b = List.map2 (fun (n, x) (_, y) -> (n, y - x)) a b in
  Alcotest.(check (list (pair string int)))
    "a repeat adds the loop's counter amounts" (delta c0 c1) (delta c1 c2);
  Alcotest.(check bool) "the loop ran once" true
    (List.assoc "sim.cycles" (delta c0 c1) = first.Sim.cycles);
  Oracle.check_same "repeat = loop" again
    (Sim.run_loop ~waves:1 cfg ~trace ~alloc ~blocks_per_sm:blocks ~mode)

(* One call's worth of [Sim.run] arguments. *)
type call = {
  c_cfg : Gpr_arch.Config.t;
  c_waves : int;
  c_blocks : int;
  c_mode : Sim.regfile_mode;
  c_alloc : A.t;
  c_faults : Gpr_regfile.Fault.t list;
}

(* [alloc] with register [r]'s placement moved to another register. *)
let moved_placement (alloc : A.t) r =
  let placements = Hashtbl.copy alloc.A.placements in
  let p = Option.get (A.lookup alloc r) in
  Hashtbl.replace placements r { p with A.reg0 = p.A.reg0 + 1 };
  { alloc with A.placements }

let test_reuse_key_parts () =
  let trace, slice_alloc, _, _ = hotspot_slice () in
  let spilled regs =
    let t = Hashtbl.create 4 in
    List.iter (fun r -> Hashtbl.replace t r ()) regs;
    t
  in
  (* Two registers the trace reads; the allocation places the first. *)
  let srcs =
    Array.to_list trace.T.items
    |> List.concat_map (fun (it : T.item) -> it.T.t_srcs)
  in
  let r = List.find (fun r -> A.lookup slice_alloc r <> None) srcs in
  let r' = List.find (fun r' -> r' <> r) srcs in
  let proposed =
    { c_cfg = cfg; c_waves = 1; c_blocks = 2;
      c_mode = Sim.Proposed { writeback_delay = 3 }; c_alloc = slice_alloc;
      c_faults = [] }
  in
  let spill =
    { proposed with c_mode = Sim.Spill { latency = 20; spilled = spilled [ r ] };
                    c_alloc = full_alloc 64 }
  in
  let cases =
    [
      (proposed, "cfg field",
       { proposed with c_cfg = { cfg with l2_hit_latency = cfg.l2_hit_latency + 40 } });
      (proposed, "waves", { proposed with c_waves = 2 });
      (proposed, "blocks", { proposed with c_blocks = 3 });
      (proposed, "writeback delay",
       { proposed with c_mode = Sim.Proposed { writeback_delay = 4 } });
      (proposed, "one placement",
       { proposed with c_alloc = moved_placement slice_alloc r });
      (proposed, "dead bank",
       { proposed with c_faults = [ Gpr_regfile.Fault.Dead_bank 3 ] });
      (spill, "spill latency",
       { spill with c_mode = Sim.Spill { latency = 21; spilled = spilled [ r ] } });
      (spill, "spilled set",
       { spill with
         c_mode = Sim.Spill { latency = 20; spilled = spilled [ r; r' ] } });
    ]
  in
  let go c =
    Sim.run ~waves:c.c_waves ~faults:c.c_faults c.c_cfg ~trace ~alloc:c.c_alloc
      ~blocks_per_sm:c.c_blocks ~mode:c.c_mode
  in
  let loop c =
    Sim.run_loop ~waves:c.c_waves ~faults:c.c_faults c.c_cfg ~trace
      ~alloc:c.c_alloc ~blocks_per_sm:c.c_blocks ~mode:c.c_mode
  in
  (* The slot keeps the last run only: a changed run must not return
     any earlier answer, a repeat of it is a hit, and the base after it
     is a fresh run again. *)
  let seen = ref [] in
  List.iter
    (fun (base, label, changed) ->
      let base_stats = go base in
      hit (label ^ ": base repeat") (go base) base_stats;
      let s = go changed in
      fresh label s ~seen:(base_stats :: !seen);
      Oracle.check_same label s (loop changed);
      hit (label ^ " again") (go changed) s;
      let base_again = go base in
      fresh (label ^ ": base after it") base_again
        ~seen:(s :: base_stats :: !seen);
      Oracle.check_same (label ^ ": base after it") base_again base_stats;
      seen := base_again :: s :: base_stats :: !seen)
    cases

let test_reuse_rrcd_after_slice () =
  let slice = Gpr_backend.Registry.find_exn "slice" in
  let rrcd = Gpr_backend.Registry.find_exn "rrcd" in
  List.iter
    (fun (w : W.t) ->
      let trace = W.trace w ~quantize:None in
      let width = Gpr_analysis.Width.analyze w.kernel ~launch:w.launch in
      let go scheme =
        let module S = (val scheme : Backend.Scheme) in
        let res = S.analyze ~kernel:w.kernel ~width ~precision:None in
        let occ =
          Backend.occupancy cfg res ~warps_per_block:(W.warps_per_block w)
            ~shared_bytes_per_block:(W.shared_bytes_per_block w)
        in
        Sim.run ~waves:1 cfg ~trace ~alloc:res.Backend.alloc
          ~blocks_per_sm:occ.Gpr_arch.Occupancy.blocks_per_sm
          ~mode:(Backend.sim_mode scheme res)
      in
      let s = go slice in
      hit (w.name ^ ": rrcd after slice") (go rrcd) s)
    Gpr_workloads.Registry.all

let test_reuse_check_profile () =
  let trace, alloc, mode, blocks = hotspot_slice () in
  let go ?check ?profile () =
    Sim.run ?check ?profile ~waves:1 cfg ~trace ~alloc ~blocks_per_sm:blocks
      ~mode
  in
  let kept = go () in
  let checked = go ~check:true () in
  fresh "check" checked ~seen:[ kept ];
  Oracle.check_same "check" checked kept;
  let ch = Gpr_obs.Chrome.create () in
  let profiled = go ~profile:ch () in
  fresh "profile" profiled ~seen:[ kept; checked ];
  Oracle.check_same "profile" profiled kept;
  Alcotest.(check bool) "the profiled run emitted its spans" true
    (Gpr_obs.Chrome.num_events ch > 0);
  (* A checked or profiled run is still the last run of the trace. *)
  hit "plain run after check and profile" (go ()) profiled

(* Simulate a trace nothing else refers to, leaving only a weak
   pointer to it. *)
let[@inline never] simulate_unreferenced weak =
  let trace = mk_trace (List.init 16 (fun i -> item ~dst:i i)) in
  Weak.set weak 0 (Some trace);
  ignore (Sys.opaque_identity (run trace));
  ignore (Sys.opaque_identity (run trace))

let test_reuse_slot_weak () =
  let weak = Weak.create 1 in
  simulate_unreferenced weak;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "the slot does not keep the trace alive" false
    (Weak.check weak 0)

(* The reuse differential on generated kernels: every answer equals the
   loop's, and an allocation equal to the last run's (a copy, as rrcd's
   is of slice's) is answered from it.  Seeds scale with
   GPR_SIM_EQ_COUNT like the equivalence property. *)
let reuse_agrees label ~trace ~alloc ~demand ~mode ~waves =
  let blocks_per_sm =
    (Gpr_arch.Occupancy.of_demand cfg demand
       ~warps_per_block:trace.T.warps_per_block)
      .Gpr_arch.Occupancy.blocks_per_sm
  in
  let go alloc = Sim.run ~waves cfg ~trace ~alloc ~blocks_per_sm ~mode in
  let first = go alloc in
  Oracle.check_same (label ^ ": run = loop") first
    (Sim.run_loop ~waves cfg ~trace ~alloc ~blocks_per_sm ~mode);
  hit (label ^ ": equal allocation")
    (go { alloc with A.placements = Hashtbl.copy alloc.A.placements })
    first

let prop_reuse_agrees =
  QCheck.Test.make ~name:"reuse = loop on generated kernels" ~count:eq_count
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      Oracle.generated seed reuse_agrees;
      true)

(* ---------------------------------------------------------------- *)
(* Perf regression (tier 2; skipped under GPR_FAST_TESTS=1): re-time
   the CI smoke subset (Hotspot + DWT2D) per backend with both engines
   (the flat one through [Sim.run_loop], so every call runs cycles).
   Two gates:
   - machine-independent: the flat engine must stay >= 2.5x faster than
     the reference engine (a single-tenant Sim_multi run) on the same
     inputs (the committed BENCH_sim.json records >= 5x over the full
     registry on the baseline host);
   - throughput (only on the host that produced the committed
     BENCH_sim.json): per-scheme cycles per reference slice must not
     regress more than 30% against the committed numbers for these
     kernels.  Each kernel's time counts in units of
     [Gpr_util.Stats.reference_slice], timed right beside it, so host
     load that stretches CPU time (the suites dune runs in parallel, a
     busy sibling hardware thread) cancels out of the ratio. *)

module Json = Gpr_obs.Json

let smoke_names = [ "Hotspot"; "DWT2D" ]

(* Per-scheme (cycles, fast seconds, ref seconds, fast reference
   units) over the smoke set, at the same wave count and with the same
   statistic as BENCH_sim.json: after one untimed call, each engine's
   fastest of [rounds] calls per kernel in process CPU time (dune runs
   the other suites in parallel, and wall time would charge their share
   of the CPUs to the engine under test), and the fast time divided by
   the fastest of the reference slices interleaved with that kernel's
   calls. *)
let measure_smoke ~waves ~rounds =
  let kernels =
    List.filter_map Gpr_workloads.Registry.by_name smoke_names
  in
  Alcotest.(check int) "smoke kernels found" (List.length smoke_names)
    (List.length kernels);
  let cases =
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
                ignore
                  (Gpr_sim.Sim_multi.single ~waves cfg ~trace ~alloc ~demand
                     ~mode)
              in
              let cycles = (fast ()).Sim.cycles in
              slow ();
              (cycles, (fun () -> ignore (fast ())), slow))
            kernels ))
      Gpr_backend.Registry.all
  in
  let best =
    Gpr_util.Stats.best_cpu_times ~rounds
      (Array.of_list
         (List.concat_map
            (fun (_, rows) ->
              List.concat_map
                (fun (_, fast, slow) ->
                  [ fast; slow; Gpr_util.Stats.reference_slice ])
                rows)
            cases))
  in
  let next = ref 0 in
  let take () =
    incr next;
    best.(!next - 1)
  in
  List.map
    (fun (id, rows) ->
      List.fold_left
        (fun (id, c, f, s, u) (cycles, _, _) ->
          let fs = take () in
          let rs = take () in
          let refs = take () in
          (id, c + cycles, f +. fs, s +. rs, u +. (fs /. refs)))
        (id, 0, 0.0, 0.0, 0.0) rows)
    cases

let json_float = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* Committed per-scheme cycles per reference slice restricted to the
   smoke kernels: recomputed from the per-kernel rows, not the scheme
   totals, so the comparison is like-for-like. *)
let committed_smoke_rate json scheme =
  match Json.member "schemes" json with
  | Some (Json.Arr schemes) ->
    List.find_map
      (fun sj ->
        match Json.member "scheme" sj with
        | Some (Json.Str id) when id = scheme -> (
          match Json.member "kernels" sj with
          | Some (Json.Arr rows) ->
            let cycles = ref 0 and units = ref 0.0 and found = ref 0 in
            List.iter
              (fun row ->
                match Json.member "kernel" row with
                | Some (Json.Str k) when List.mem k smoke_names -> (
                  match
                    ( Json.member "cycles" row,
                      json_float (Json.member "seconds" row),
                      json_float (Json.member "reference_seconds" row) )
                  with
                  | Some (Json.Int c), Some s, Some r when r > 0.0 ->
                    incr found;
                    cycles := !cycles + c;
                    units := !units +. (s /. r)
                  | _ -> ())
                | _ -> ())
              rows;
            if !found = List.length smoke_names && !units > 0.0 then
              Some (float_of_int !cycles /. !units)
            else None
          | _ -> None)
        | _ -> None)
      schemes
  | _ -> None

let test_sim_throughput_regression () =
  if fast_tests then ()
  else begin
    let json =
      match Json.parse_file "../BENCH_sim.json" with
      | Ok j -> Some j
      | Error _ | (exception Sys_error _) -> None
    in
    let waves =
      match Option.bind json (Json.member "waves") with
      | Some (Json.Int w) -> w
      | _ -> 6
    in
    let rounds =
      match Option.bind json (Json.member "rounds") with
      | Some (Json.Int r) -> r
      | _ -> 5
    in
    let measured = measure_smoke ~waves ~rounds in
    (* Gate 1: the flat engine earns its keep on any machine. *)
    List.iter
      (fun (id, _, fast, slow, _) ->
        let speedup = if fast > 0.0 then slow /. fast else 0.0 in
        if speedup < 2.5 then
          Alcotest.failf
            "%s: flat engine only %.2fx faster than the reference engine on \
             the smoke subset (need >= 2.5x with the incremental issuable \
             set)"
            id speedup)
      measured;
    (* Gate 2: throughput vs the committed baseline, in reference
       units, only meaningful on the machine that produced it. *)
    match json with
    | None -> () (* no committed baseline: gate 1 already ran *)
    | Some json ->
      let same_host =
        match Json.member "host" json with
        | Some (Json.Str h) -> h = Unix.gethostname ()
        | _ -> false
      in
      if same_host then
        List.iter
          (fun (id, cycles, _, _, units) ->
            match committed_smoke_rate json id with
            | None -> ()
            | Some committed ->
              let rate =
                if units > 0.0 then float_of_int cycles /. units else 0.0
              in
              if rate < 0.7 *. committed then
                Alcotest.failf
                  "%s: %.2f kcyc per reference slice is %.2f of the \
                   committed %.2f (a >30%% regression)"
                  id (rate /. 1e3) (rate /. committed) (committed /. 1e3))
          measured
  end

(* ---------------------------------------------------------------- *)
(* End-to-end on a real kernel: occupancy helps a latency-bound kernel. *)

let test_occupancy_improves_latency_bound_kernel () =
  let b = Builder.create ~name:"lat" in
  let open Builder in
  let x = global_buffer b F32 "x" in
  let y = global_buffer b F32 "y" in
  let i = global_thread_id_x b in
  (* A pointer-chase-flavoured dependent chain of loads. *)
  let v0 = ld b x ~$i in
  let v1 = ld b x ~$(iand b ~$(ftoi b ~$(fmul b ~$v0 (cf 1000.0))) (ci 1023)) in
  let v2 = ld b x ~$(iand b ~$(ftoi b ~$(fmul b ~$v1 (cf 1000.0))) (ci 1023)) in
  st b y ~$i ~$v2;
  let kernel = finish b in
  let data =
    [ ("x", E.F_data (Gpr_workloads.Inputs.qfloats ~seed:5 ~n:1024));
      ("y", E.F_data (Array.make 1024 0.0)) ]
  in
  let bindings = E.bindings_for kernel ~data () in
  let trace =
    Option.get
      (E.run kernel ~launch:(launch_1d ~block:64 ~grid:16) ~params:[||]
         ~bindings { E.default_config with collect_trace = true })
  in
  let alloc = A.baseline kernel in
  let ipc blocks =
    (Sim.run ~waves:4 cfg ~trace ~alloc ~blocks_per_sm:blocks
       ~mode:Sim.Baseline).Sim.sm_ipc
  in
  Alcotest.(check bool) "4 blocks beat 1" true (ipc 4 > 1.5 *. ipc 1)

let () =
  Alcotest.run "sim"
    [
      ( "pipeline",
        [
          Alcotest.test_case "dependent chain" `Quick test_dependent_chain_serialises;
          Alcotest.test_case "latency hiding" `Quick test_more_warps_hide_latency;
          Alcotest.test_case "writeback monotone" `Quick test_writeback_delay_monotone;
          Alcotest.test_case "proposed overhead" `Quick
            test_proposed_overhead_at_same_occupancy;
          Alcotest.test_case "sfu bound" `Quick test_sfu_throughput_bound;
        ] );
      ( "proposed-path",
        [
          Alcotest.test_case "conversions" `Quick test_conversions_counted;
          Alcotest.test_case "double fetches" `Quick test_double_fetch_counted;
        ] );
      ( "sync+waves",
        [
          Alcotest.test_case "barrier completes" `Quick test_barrier_completes;
          Alcotest.test_case "waves scale" `Quick test_waves_scale_work;
        ] );
      ( "stall-attribution",
        [
          Alcotest.test_case "scoreboard chain" `Quick
            test_stall_identity_scoreboard;
          Alcotest.test_case "barrier wait" `Quick test_stall_identity_barrier;
          Alcotest.test_case "spill port" `Quick test_stall_identity_spill_port;
          Alcotest.test_case "empty trace" `Quick
            test_stall_identity_empty_trace;
          Alcotest.test_case "all modes" `Quick test_stall_identity_all_modes;
        ] );
      ( "memory",
        [
          Alcotest.test_case "latency + caches" `Quick test_memory_latency_and_caches;
          Alcotest.test_case "texture tracked" `Quick test_texture_accesses_tracked;
          Alcotest.test_case "cache basics" `Quick test_cache_basics;
          Alcotest.test_case "cache lru" `Quick test_cache_lru_eviction;
          Alcotest.test_case "cache reset" `Quick test_cache_hit_rate_reset;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "registry pins (all backends)" `Quick
            test_registry_equivalence;
          QCheck_alcotest.to_alcotest prop_engines_agree;
        ] );
      ( "fast-forward",
        [
          Alcotest.test_case "empty trace" `Quick test_ffwd_empty_trace;
          Alcotest.test_case "single-warp barriers" `Quick
            test_ffwd_single_warp_barrier;
          Alcotest.test_case "deadlock-adjacent barrier" `Quick
            test_ffwd_deadlock_adjacent_barrier;
          Alcotest.test_case "same-cycle releases" `Quick
            test_ffwd_same_cycle_releases;
          Alcotest.test_case "spill-port saturation" `Quick
            test_ffwd_spill_port_saturation;
        ] );
      ( "retire-ring",
        [
          Alcotest.test_case "long horizon registry" `Quick test_ring_registry;
          Alcotest.test_case "long horizon generated" `Quick
            test_ring_generated;
          Alcotest.test_case "lone far retire" `Quick
            test_ring_lone_far_retire;
        ] );
      ( "pack-memo",
        [
          Alcotest.test_case "line size in key" `Quick test_memo_line_size;
          Alcotest.test_case "structural copy" `Quick test_memo_structural_copy;
          Alcotest.test_case "two domains" `Quick test_memo_two_domains;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "repeat" `Quick test_reuse_repeat;
          Alcotest.test_case "key parts" `Quick test_reuse_key_parts;
          Alcotest.test_case "rrcd after slice" `Quick
            test_reuse_rrcd_after_slice;
          Alcotest.test_case "check and profile" `Quick
            test_reuse_check_profile;
          Alcotest.test_case "slot weak" `Quick test_reuse_slot_weak;
          QCheck_alcotest.to_alcotest prop_reuse_agrees;
        ] );
      ( "perf",
        [
          Alcotest.test_case "throughput regression (tier 2)" `Slow
            test_sim_throughput_regression;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "occupancy helps" `Quick
            test_occupancy_improves_latency_bound_kernel ] );
    ]
