(* Fault model and injection campaign: seeded placement determinism and
   prefix stability, fault-free runs byte-identical to the plain
   simulator in both engines, flat-vs-reference agreement under faults,
   unchanged per-kernel work under faults when two kernels share the
   SM, the RRCD redirection safety property (never placed on a faulty
   slice, dead entry or dead bank), and campaign determinism. *)

open Gpr_isa.Types
module T = Gpr_exec.Trace
module Sim = Gpr_sim.Sim
module Multi = Gpr_sim.Sim_multi
module A = Gpr_alloc.Alloc
module Fault = Gpr_regfile.Fault
module Rrcd = Gpr_backend.Backend_rrcd

let cfg = Gpr_arch.Config.fermi_gtx480
let banks = cfg.register_banks

(* ---------------------------------------------------------------- *)
(* Seeded placement *)

let test_place_deterministic () =
  let a = Fault.place ~seed:7 ~count:10 ~banks ~regs:16 in
  let b = Fault.place ~seed:7 ~count:10 ~banks ~regs:16 in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  let c = Fault.place ~seed:8 ~count:10 ~banks ~regs:16 in
  Alcotest.(check bool) "different seed, different stream" true (a <> c);
  Alcotest.(check int) "count respected" 10 (List.length a);
  Alcotest.(check int) "distinct faults" 10
    (List.length (List.sort_uniq compare a))

let test_place_prefix_stable () =
  let full = Fault.place ~seed:3 ~count:12 ~banks ~regs:16 in
  for k = 0 to 12 do
    let p = Fault.place ~seed:3 ~count:k ~banks ~regs:16 in
    Alcotest.(check bool)
      (Printf.sprintf "count %d is a prefix of count 12" k)
      true
      (p = List.filteri (fun i _ -> i < k) full)
  done

(* ---------------------------------------------------------------- *)
(* Timing model: no-fault runs are byte-identical; faulted runs agree
   with the reference engine (a single-tenant [Sim_multi] run). *)

let item ?(warp = 0) ?(srcs = []) ?dst pc =
  {
    T.t_warp = warp;
    t_block_id = 0;
    t_pc = pc;
    t_unit = Spu;
    t_srcs = srcs;
    t_dst = dst;
    t_dst_float = false;
    t_active = 32;
    t_mem = None;
  }

let mk_trace ?(warps_per_block = 2) items =
  {
    T.items = Array.of_list items;
    warps_per_block;
    num_blocks = 1;
    thread_instructions =
      List.fold_left (fun a (i : T.item) -> a + i.t_active) 0 items;
  }

let full_alloc n =
  let placements = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    Hashtbl.replace placements v
      { A.reg0 = v; mask0 = 0xff; reg1 = -1; mask1 = 0; slices = 8; bits = 32;
        signed = true; is_float = false }
  done;
  { A.pressure = n; placements; num_arch_regs = n; peak_slices = n * 8;
    split_count = 0 }

let trace =
  let w warp =
    List.init 12 (fun i ->
        item ~warp ~srcs:(if i = 0 then [] else [ (i - 1) mod 8 ]) ~dst:(i mod 8) i)
  in
  mk_trace (w 0 @ w 1)

(* Two resident blocks: shared memory binds, as [blocks_per_sm:2]. *)
let two_blocks () =
  Sim_oracle.demand_for_blocks ~regs:8 ~warps_per_block:2 2

let test_no_faults_identical () =
  List.iter
    (fun mode ->
      let plain =
        Sim.run cfg ~trace ~alloc:(full_alloc 8) ~blocks_per_sm:2 ~mode
      in
      let empty =
        Sim.run ~faults:[] cfg ~trace ~alloc:(full_alloc 8) ~blocks_per_sm:2
          ~mode
      in
      Alcotest.(check bool) "~faults:[] is the identity" true (plain = empty);
      ignore
        (Sim_oracle.judge "Sim_multi ~faults:[] = fault-free Sim.run"
           (Sim_oracle.flat ~trace ~alloc:(full_alloc 8)
              ~demand:(two_blocks ()) ~mode ~waves:6 ())
           (Sim_oracle.guarded (fun () ->
                Multi.single ~check:true ~faults:[] cfg ~trace
                  ~alloc:(full_alloc 8) ~demand:(two_blocks ()) ~mode))))
    [ Sim.Baseline; Sim.Proposed { writeback_delay = 3 } ]

let fault_sets =
  [
    [ Fault.Dead_bank 0 ];
    [ Fault.Dead_bank 3; Fault.Dead_bank 5 ];
    Fault.place ~seed:11 ~count:6 ~banks ~regs:16;
  ]

let test_faulted_engines_agree () =
  (* A dead bank redirects its traffic in both engines; the flat and
     reference models must keep producing identical stats. *)
  List.iter
    (fun faults ->
      ignore
        (Sim_oracle.agree ~faults "faulted" ~trace ~alloc:(full_alloc 8)
           ~demand:(two_blocks ()) ~mode:Sim.Baseline ~waves:6))
    fault_sets

let test_faulted_tenants_keep_work () =
  (* Two kernels share the SM and its banks: a dead bank moves their
     fetch traffic, which changes the timing but never the blocks each
     kernel launches or the instructions it retires. *)
  let demand =
    { Gpr_arch.Occupancy.d_regs_per_thread = 8;
      d_shared_bytes_per_block = cfg.shared_mem_bytes / 4 }
  in
  let tenant label mode =
    Multi.make_tenant ~waves:3 cfg ~label ~trace ~alloc:(full_alloc 8) ~demand
      ~mode
  in
  let tenants =
    [ tenant "base" Sim.Baseline;
      tenant "prop" (Sim.Proposed { writeback_delay = 3 }) ]
  in
  let clean = Multi.run ~check:true cfg tenants in
  List.iter
    (fun faults ->
      let faulted = Multi.run ~check:true ~faults cfg tenants in
      Alcotest.(check bool) "dead banks reach the shared file" true
        (faulted.Multi.r_stats <> clean.Multi.r_stats);
      Array.iteri
        (fun k (c : Multi.tenant_stats) ->
          let f = faulted.Multi.r_tenants.(k) in
          let label what = Printf.sprintf "%s: %s" c.Multi.ts_label what in
          Alcotest.(check int) (label "blocks launched")
            c.Multi.ts_blocks_launched f.Multi.ts_blocks_launched;
          Alcotest.(check int) (label "warp instructions")
            c.Multi.ts_warp_instructions f.Multi.ts_warp_instructions;
          Alcotest.(check int) (label "thread instructions")
            c.Multi.ts_thread_instructions f.Multi.ts_thread_instructions)
        clean.Multi.r_tenants)
    fault_sets

(* ---------------------------------------------------------------- *)
(* RRCD redirection safety *)

let hotspot = Option.get (Gpr_workloads.Registry.by_name "Hotspot")

let hotspot_alloc =
  lazy
    (let width =
       Gpr_analysis.Width.analyze hotspot.kernel ~launch:hotspot.launch
     in
     Rrcd.slice_alloc ~kernel:hotspot.kernel ~width ~precision:None)

let prop_rrcd_avoids_faulty_slices =
  QCheck.Test.make ~name:"rrcd never places on a faulty slice/entry/bank"
    ~count:200
    QCheck.(pair small_int (int_range 0 24))
    (fun (seed, count) ->
      let faults = Fault.place ~seed ~count ~banks ~regs:64 in
      let alloc = Lazy.force hotspot_alloc in
      let alloc', ok = Rrcd.redirect alloc ~banks ~faults in
      if not ok then QCheck.assume_fail ()
      else begin
        let c = Fault.compile ~banks ~regs:64 faults in
        Hashtbl.iter
          (fun v (p : A.placement) ->
            let clean reg mask = mask land Fault.bad_slices c reg = 0 in
            if not (clean p.reg0 p.mask0) then
              QCheck.Test.fail_reportf
                "v%d placed on faulty slices of r%d (mask %#x, bad %#x)" v
                p.reg0 p.mask0
                (Fault.bad_slices c p.reg0);
            if p.reg1 >= 0 && not (clean p.reg1 p.mask1) then
              QCheck.Test.fail_reportf
                "v%d split onto faulty slices of r%d" v p.reg1;
            (* Dead banks are fully bad-sliced, but assert directly too. *)
            if Fault.dead_bank c (p.reg0 mod banks)
               || (p.reg1 >= 0 && Fault.dead_bank c (p.reg1 mod banks))
            then QCheck.Test.fail_reportf "v%d placed on a dead bank" v)
          alloc'.A.placements;
        (* The redirection preserves each variable's storage shape. *)
        Hashtbl.iter
          (fun v (p : A.placement) ->
            let q = Hashtbl.find alloc'.A.placements v in
            if q.A.slices <> p.A.slices || q.A.bits <> p.A.bits then
              QCheck.Test.fail_reportf "v%d changed width in redirection" v)
          alloc.A.placements;
        true
      end)

let test_rrcd_empty_faults_identity () =
  let alloc = Lazy.force hotspot_alloc in
  let alloc', ok = Rrcd.redirect alloc ~banks ~faults:[] in
  Alcotest.(check bool) "no faults: placeable" true ok;
  Alcotest.(check bool) "no faults: allocation untouched" true (alloc' == alloc)

(* ---------------------------------------------------------------- *)
(* Campaign *)

let test_campaign_deterministic_and_ordered () =
  let run name =
    Gpr_check.Faults.run_scheme ~seed:1 ~cases:4 ~max_faults:4 ~banks name
  in
  let s1 = run "slice" and s2 = run "slice" in
  Alcotest.(check bool) "campaign is deterministic" true (s1 = s2);
  let base = run "baseline" and rrcd = run "rrcd" in
  Alcotest.(check bool) "rrcd absorbs at least as much as slice" true
    (rrcd.Gpr_check.Faults.fr_absorbed_mean
    >= s1.Gpr_check.Faults.fr_absorbed_mean);
  Alcotest.(check bool) "slice absorbs at least as much as baseline" true
    (s1.Gpr_check.Faults.fr_absorbed_mean
    >= base.Gpr_check.Faults.fr_absorbed_mean)

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)
  in
  Alcotest.run "faults"
    [
      ( "place",
        [
          Alcotest.test_case "deterministic" `Quick test_place_deterministic;
          Alcotest.test_case "prefix-stable" `Quick test_place_prefix_stable;
        ] );
      ( "sim",
        [
          Alcotest.test_case "no faults is identity" `Quick
            test_no_faults_identical;
          Alcotest.test_case "engines agree under faults" `Quick
            test_faulted_engines_agree;
          Alcotest.test_case "tenants keep their work" `Quick
            test_faulted_tenants_keep_work;
        ] );
      ( "rrcd",
        [
          Alcotest.test_case "empty faults identity" `Quick
            test_rrcd_empty_faults_identity;
        ] );
      qsuite "rrcd-props" [ prop_rrcd_avoids_faulty_slices ];
      ( "campaign",
        [
          Alcotest.test_case "deterministic + ordered" `Quick
            test_campaign_deterministic_and_ordered;
        ] );
    ]
