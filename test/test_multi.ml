(* Concurrent-kernel SM tests: singleton-set equivalence against the
   flat engine (registry kernels x backends x policies, plus generated
   kernels), multi-tenant invariants and fairness, dispatch
   policies, and the combined-limit admission edges of
   [Gpr_arch.Occupancy]. *)

module Sim = Gpr_sim.Sim
module Multi = Gpr_sim.Sim_multi
module Occ = Gpr_arch.Occupancy
module W = Gpr_workloads.Workload
module Backend = Gpr_backend.Backend

let cfg = Gpr_arch.Config.fermi_gtx480
let fast_tests = Sim_oracle.fast_tests

(* A lone tenant must reproduce [Sim.run] byte-for-byte under every
   policy (policies cannot differ when only one kernel is pending), and
   own the whole run.  fifo is skipped: its lone tenant is exactly
   [Multi.single], which test_sim's equivalence group pins. *)
let assert_singleton_matches label ~trace ~alloc ~demand ~mode ~waves =
  let fast = Sim_oracle.flat ~trace ~alloc ~demand ~mode ~waves () in
  let tenant =
    Multi.make_tenant ~waves cfg ~label ~trace ~alloc ~demand ~mode
  in
  List.iter
    (fun policy ->
      let module P = (val policy : Multi.POLICY) in
      let label =
        Printf.sprintf "%s (policy=%s, waves=%d)" label P.id waves
      in
      let multi =
        Sim_oracle.guarded (fun () ->
            Multi.run ~check:true ~policy cfg [ tenant ])
      in
      let s =
        Sim_oracle.judge label fast
          (Result.map (fun m -> m.Multi.r_stats) multi)
      in
      let m = Result.get_ok multi in
      let t = m.Multi.r_tenants.(0) in
      Alcotest.(check int)
        (label ^ ": tenant issued slots") s.Sim.issued_slots
        t.Multi.ts_issued_slots;
      Alcotest.(check int)
        (label ^ ": tenant thread instructions") s.Sim.thread_instructions
        t.Multi.ts_thread_instructions;
      Alcotest.(check int)
        (label ^ ": co-residency is zero for one kernel") 0
        m.Multi.r_co_resident_cycles;
      Alcotest.(check (float 1e-9)) (label ^ ": fairness trivially 1") 1.0
        m.Multi.r_fairness)
    (List.filter (fun p -> p != Multi.fifo) Multi.policies)

let test_registry_singleton () = Sim_oracle.registry assert_singleton_matches

let singleton_count =
  match Sys.getenv_opt "GPR_SIM_EQ_COUNT" with
  | Some s -> ( try max 1 (int_of_string s / 4) with _ -> 10)
  | None -> if fast_tests then 4 else 10

let prop_singleton_agrees =
  QCheck.Test.make ~name:"run_multi singleton = Sim.run on generated kernels"
    ~count:singleton_count
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      Sim_oracle.generated seed assert_singleton_matches;
      true)

(* ---------------------------------------------------------------- *)
(* Multi-tenant runs: invariants, attribution, fairness. *)

let tenant_of (w : W.t) (scheme : Backend.t) ~waves =
  let module S = (val scheme) in
  let trace = W.trace w ~quantize:None in
  let width = Gpr_analysis.Width.analyze w.kernel ~launch:w.launch in
  let res = S.analyze ~kernel:w.kernel ~width ~precision:None in
  let demand =
    Backend.demand cfg res
      ~warps_per_block:(W.warps_per_block w)
      ~shared_bytes_per_block:(W.shared_bytes_per_block w)
  in
  Multi.make_tenant ~waves cfg ~label:w.name ~trace ~alloc:res.Backend.alloc
    ~demand ~mode:(Backend.sim_mode scheme res)

let pair_kernels () =
  let by_name n = Option.get (Gpr_workloads.Registry.by_name n) in
  (by_name "Hotspot", by_name "DWT2D")

let test_pair_invariants () =
  let a, b = pair_kernels () in
  List.iter
    (fun (scheme : Backend.t) ->
      let module S = (val scheme) in
      let ta = tenant_of a scheme ~waves:2 in
      let tb = tenant_of b scheme ~waves:2 in
      List.iter
        (fun policy ->
          let module P = (val policy : Multi.POLICY) in
          (* check:true enforces the per-kernel and aggregate identities
             inside the engine; here we re-check the user-visible
             surface. *)
          let r = Multi.run ~check:true ~policy cfg [ ta; tb ] in
          let label = Printf.sprintf "%s/%s" S.id P.id in
          Alcotest.(check int)
            (label ^ ": both kernels fully launched")
            (ta.Multi.t_blocks + tb.Multi.t_blocks)
            r.Multi.r_admissions;
          Alcotest.(check int)
            (label ^ ": per-kernel issued slots tile the aggregate")
            r.Multi.r_stats.Sim.issued_slots
            (Array.fold_left
               (fun acc t -> acc + t.Multi.ts_issued_slots)
               0 r.Multi.r_tenants);
          Alcotest.(check int)
            (label ^ ": per-kernel thread instructions tile the aggregate")
            r.Multi.r_stats.Sim.thread_instructions
            (Array.fold_left
               (fun acc t -> acc + t.Multi.ts_thread_instructions)
               0 r.Multi.r_tenants);
          let share =
            Array.fold_left
              (fun acc t -> acc +. t.Multi.ts_issue_share)
              0.0 r.Multi.r_tenants
          in
          Alcotest.(check bool)
            (label ^ ": issue shares sum to 1")
            true
            (abs_float (share -. 1.0) < 1e-9);
          Alcotest.(check bool)
            (label ^ ": kernels actually co-resided")
            true
            (r.Multi.r_co_resident_cycles > 0);
          Alcotest.(check bool)
            (label ^ ": fairness within [1/n, 1]")
            true
            (r.Multi.r_fairness >= 0.5 -. 1e-9
            && r.Multi.r_fairness <= 1.0 +. 1e-9);
          Alcotest.(check bool)
            (label ^ ": peak residency within SM block slots")
            true
            (r.Multi.r_peak_resident_blocks <= cfg.max_blocks);
          Alcotest.(check bool)
            (label ^ ": peak warps within SM warp slots")
            true
            (r.Multi.r_peak_resident_warps <= cfg.max_warps))
        Multi.policies)
    Gpr_backend.Registry.all

(* Each kernel's co-scheduled instruction replay must match its
   isolated run: co-residency changes timing, never the work. *)
let test_pair_replay_matches_isolated () =
  let a, b = pair_kernels () in
  let scheme = (module Gpr_backend.Backend_baseline : Backend.Scheme) in
  let ta = tenant_of a scheme ~waves:2 in
  let tb = tenant_of b scheme ~waves:2 in
  let r = Multi.run ~check:true cfg [ ta; tb ] in
  List.iteri
    (fun i t ->
      let iso = Multi.run ~check:true cfg [ t ] in
      let co = r.Multi.r_tenants.(i) in
      let alone = iso.Multi.r_tenants.(0) in
      Alcotest.(check int)
        (t.Multi.t_label ^ ": same warp instructions as isolated")
        alone.Multi.ts_warp_instructions co.Multi.ts_warp_instructions;
      Alcotest.(check int)
        (t.Multi.t_label ^ ": same thread instructions as isolated")
        alone.Multi.ts_thread_instructions co.Multi.ts_thread_instructions;
      Alcotest.(check int)
        (t.Multi.t_label ^ ": same blocks launched as isolated")
        alone.Multi.ts_blocks_launched co.Multi.ts_blocks_launched)
    [ ta; tb ]

let test_policies_admit_same_total () =
  let a, b = pair_kernels () in
  let scheme = (module Gpr_backend.Backend_slice : Backend.Scheme) in
  let ta = tenant_of a scheme ~waves:2 in
  let tb = tenant_of b scheme ~waves:2 in
  let totals =
    List.map
      (fun policy ->
        (Multi.run ~check:true ~policy cfg [ ta; tb ]).Multi.r_admissions)
      Multi.policies
  in
  Alcotest.(check (list int))
    "every policy eventually launches every block"
    [ ta.Multi.t_blocks + tb.Multi.t_blocks;
      ta.Multi.t_blocks + tb.Multi.t_blocks;
      ta.Multi.t_blocks + tb.Multi.t_blocks ]
    totals

let test_find_policy () =
  List.iter
    (fun name ->
      match Multi.find_policy name with
      | Some (module P : Multi.POLICY) ->
        Alcotest.(check string) "round-trips" name P.id
      | None -> Alcotest.failf "policy %s not found" name)
    Multi.policy_names;
  Alcotest.(check bool) "unknown policy rejected" true
    (Multi.find_policy "sjf" = None);
  Alcotest.(check bool) "case-insensitive" true
    (Multi.find_policy "FIFO" <> None)

let test_binpack_prefers_fat_blocks () =
  let mk t arrival regs =
    { Multi.p_tenant = t; p_arrival = arrival; p_regs = regs; p_warps = 1 }
  in
  let module B = (val Multi.binpack : Multi.POLICY) in
  match B.pick ~free_regs:4096 ~last:(-1) [ mk 0 0 512; mk 1 1 2048 ] with
  | Some p -> Alcotest.(check int) "picks the fattest fit" 1 p.Multi.p_tenant
  | None -> Alcotest.fail "binpack refused a fitting candidate"

let test_empty_tenant_set_rejected () =
  Alcotest.check_raises "empty set"
    (Invalid_argument "Sim_multi.run: empty tenant set") (fun () ->
      ignore (Multi.run cfg []))

(* ---------------------------------------------------------------- *)
(* Combined-limit admission edges (Occupancy.usage / fits). *)

let demand regs shared =
  { Occ.d_regs_per_thread = regs; d_shared_bytes_per_block = shared }

let test_usage_mixed_binding_limits () =
  (* Kernel A is register-bound, kernel B is shared-memory-bound (as a
     spilling scheme's slots would make it): the combined admission
     must respect whichever limit binds first for each mix. *)
  let wpb = 8 in
  let a = Occ.block_usage cfg (demand 40 0) ~warps_per_block:wpb in
  let b = Occ.block_usage cfg (demand 1 16_384) ~warps_per_block:wpb in
  (* A alone: registers bind. *)
  let occ_a = Occ.of_demand cfg (demand 40 0) ~warps_per_block:wpb in
  Alcotest.(check bool) "A register-bound" true
    (occ_a.Occ.limiter = Occ.Registers);
  (* B alone: shared memory binds. *)
  let occ_b = Occ.of_demand cfg (demand 1 16_384) ~warps_per_block:wpb in
  Alcotest.(check bool) "B shared-bound" true
    (occ_b.Occ.limiter = Occ.Shared_memory);
  (* Greedy single-kernel admission through [fits] reaches exactly the
     isolated occupancy for both. *)
  let greedy u =
    let rec go used n =
      if Occ.fits cfg used u then go (Occ.add_usage used u) (n + 1) else n
    in
    go Occ.no_usage 0
  in
  Alcotest.(check int) "greedy A = occupancy A" occ_a.Occ.blocks_per_sm
    (greedy a);
  Alcotest.(check int) "greedy B = occupancy B" occ_b.Occ.blocks_per_sm
    (greedy b);
  (* Mixed: one B block consumes half the shared memory; As still fit
     until registers run out, and one more B fills the shared side. *)
  let used = Occ.add_usage Occ.no_usage b in
  Alcotest.(check bool) "A fits next to B" true (Occ.fits cfg used a);
  Alcotest.(check bool) "second B still fits" true (Occ.fits cfg used b);
  let used3 = Occ.add_usage (Occ.add_usage used b) b in
  Alcotest.(check bool) "third B exceeds shared memory" false
    (Occ.fits cfg used3 b)

let test_usage_zero_block_admission () =
  (* A block that alone exceeds the SM: compute raises, fits refuses
     even an empty SM — the two views agree on inadmissibility. *)
  let d = demand ((cfg.registers_per_sm / 32) + 1) 0 in
  Alcotest.(check bool) "fits refuses on an empty SM" false
    (Occ.fits cfg Occ.no_usage (Occ.block_usage cfg d ~warps_per_block:1));
  (match Occ.of_demand cfg d ~warps_per_block:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_demand accepted an impossible block");
  Alcotest.check_raises "block_usage rejects zero warps"
    (Invalid_argument "Occupancy.block_usage: no warps") (fun () ->
      ignore (Occ.block_usage cfg (demand 1 0) ~warps_per_block:0))

let prop_admitted_sets_within_limits =
  (* Any greedily-admitted mixed set stays within every SM limit. *)
  QCheck.Test.make ~name:"admitted sets never exceed the combined limits"
    ~count:(if fast_tests then 50 else 200)
    QCheck.(
      list_of_size (Gen.int_range 1 8)
        (triple (int_range 1 64) (int_range 0 24_576) (int_range 1 16)))
    (fun kernels ->
      let usages =
        List.map
          (fun (regs, shared, wpb) ->
            Occ.block_usage cfg (demand regs shared) ~warps_per_block:wpb)
          kernels
      in
      (* Round-robin admission until nothing fits. *)
      let used = ref Occ.no_usage in
      let admitted = ref 0 in
      let continue = ref true in
      while !continue do
        continue := false;
        List.iter
          (fun u ->
            if Occ.fits cfg !used u then begin
              used := Occ.add_usage !used u;
              incr admitted;
              continue := true
            end)
          usages
      done;
      let u = !used in
      u.Occ.u_registers <= cfg.registers_per_sm
      && u.Occ.u_shared_bytes <= cfg.shared_mem_bytes
      && u.Occ.u_warps <= cfg.max_warps
      && u.Occ.u_blocks <= cfg.max_blocks
      && u.Occ.u_blocks = !admitted)

(* ---------------------------------------------------------------- *)
(* Fairness index. *)

let test_jain_index () =
  let open Gpr_obs.Fair in
  (* No tenant issued anything: there is no allocation to rate, so the
     0.0 sentinel (outside Jain's [1/n, 1] range) marks the degenerate
     case instead of the old misleading "perfectly fair" 1.0. *)
  Alcotest.(check (float 1e-9)) "empty is degenerate" 0.0 (jain []);
  Alcotest.(check (float 1e-9)) "all-zero is degenerate" 0.0 (jain [ 0.0; 0.0 ]);
  Alcotest.(check bool) "degenerate sentinel" true (degenerate (jain []));
  Alcotest.(check bool) "proper values not degenerate" false
    (degenerate (jain [ 4.0; 1.0 ]));
  Alcotest.(check (float 1e-9)) "even split" 1.0 (jain [ 3.0; 3.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "monopoly" 0.25 (jain [ 1.0; 0.0; 0.0; 0.0 ]);
  Alcotest.(check (float 1e-9)) "textbook 4:1" 0.735294117647058854
    (jain [ 4.0; 1.0 ]);
  Alcotest.check_raises "negative share rejected"
    (Invalid_argument "Fair.jain: negative share") (fun () ->
      ignore (jain [ 1.0; -1.0 ]))

let () =
  Alcotest.run "multi"
    [
      ( "singleton",
        [
          Alcotest.test_case "registry pins (all backends x policies)" `Quick
            test_registry_singleton;
          QCheck_alcotest.to_alcotest prop_singleton_agrees;
        ] );
      ( "co-scheduling",
        [
          Alcotest.test_case "pair invariants (backends x policies)" `Quick
            test_pair_invariants;
          Alcotest.test_case "replay matches isolated" `Quick
            test_pair_replay_matches_isolated;
          Alcotest.test_case "policies admit same total" `Quick
            test_policies_admit_same_total;
          Alcotest.test_case "empty set rejected" `Quick
            test_empty_tenant_set_rejected;
        ] );
      ( "policies",
        [
          Alcotest.test_case "find_policy" `Quick test_find_policy;
          Alcotest.test_case "binpack prefers fat blocks" `Quick
            test_binpack_prefers_fat_blocks;
        ] );
      ( "admission",
        [
          Alcotest.test_case "mixed binding limits" `Quick
            test_usage_mixed_binding_limits;
          Alcotest.test_case "zero-block admission" `Quick
            test_usage_zero_block_admission;
          QCheck_alcotest.to_alcotest prop_admitted_sets_within_limits;
        ] );
      ("fairness", [ Alcotest.test_case "jain" `Quick test_jain_index ]);
    ]
