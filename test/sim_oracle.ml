(* Differential oracle shared by the simulator suites: the flat engine
   ([Sim.run]) against the reference engine (a single-tenant
   [Sim_multi] run, [Sim_multi.single]) on the same inputs.
   [Stdlib.compare] over the whole stats record pins every field
   byte-equal — cycles, IPCs, hit rates, all six stall counters, spill
   traffic.  The inputs come from the workload registry under every
   registered backend and from generated kernels. *)

open Gpr_isa.Types
module E = Gpr_exec.Exec
module T = Gpr_exec.Trace
module Sim = Gpr_sim.Sim
module Multi = Gpr_sim.Sim_multi
module A = Gpr_alloc.Alloc
module Occ = Gpr_arch.Occupancy
module W = Gpr_workloads.Workload
module Backend = Gpr_backend.Backend
module Gen = Gpr_check.Gen

let cfg = Gpr_arch.Config.fermi_gtx480
let fast_tests = Sys.getenv_opt "GPR_FAST_TESTS" = Some "1"

let stats_fields (s : Sim.stats) =
  [
    ("cycles", string_of_int s.cycles);
    ("thread_instructions", string_of_int s.thread_instructions);
    ("warp_instructions", string_of_int s.warp_instructions);
    ("sm_ipc", Printf.sprintf "%h" s.sm_ipc);
    ("gpu_ipc", Printf.sprintf "%h" s.gpu_ipc);
    ("issued_per_cycle", Printf.sprintf "%h" s.issued_per_cycle);
    ("l1_hit_rate", Printf.sprintf "%h" s.l1_hit_rate);
    ("tex_hit_rate", Printf.sprintf "%h" s.tex_hit_rate);
    ("l2_hit_rate", Printf.sprintf "%h" s.l2_hit_rate);
    ("tex_accesses", string_of_int s.tex_accesses);
    ("double_fetches", string_of_int s.double_fetches);
    ("conversions", string_of_int s.conversions);
    ("issued_slots", string_of_int s.issued_slots);
    ("stall_scoreboard", string_of_int s.stall_scoreboard);
    ("stall_no_cu", string_of_int s.stall_no_cu);
    ("stall_bank_conflict", string_of_int s.stall_bank_conflict);
    ("stall_spill_port", string_of_int s.stall_spill_port);
    ("stall_barrier", string_of_int s.stall_barrier);
    ("stall_empty", string_of_int s.stall_empty);
    ("bank_conflicts", string_of_int s.bank_conflicts);
    ("idle_cycles", string_of_int s.idle_cycles);
    ("spill_loads", string_of_int s.spill_loads);
    ("spill_stores", string_of_int s.spill_stores);
  ]

(* Fail with every differing field unless the two records are
   byte-equal. *)
let check_same label (fast : Sim.stats) (reference : Sim.stats) =
  if Stdlib.compare fast reference <> 0 then begin
    let diffs =
      List.concat
        (List.map2
           (fun (n, a) (_, b) ->
             if a = b then []
             else [ Printf.sprintf "%s: fast=%s ref=%s" n a b ])
           (stats_fields fast) (stats_fields reference))
    in
    Alcotest.failf "%s: engines diverge on %s" label (String.concat "; " diffs)
  end

let guarded f = try Ok (f ()) with Sim.Invariant_violation m -> Error m

(* The flat engine under ~check:true, at the demand's occupancy.
   [cfg] defaults to the GTX 480. *)
let flat ?(cfg = cfg) ?faults ~trace ~alloc ~demand ~mode ~waves () =
  let blocks_per_sm =
    (Occ.of_demand cfg demand ~warps_per_block:trace.T.warps_per_block)
      .Occ.blocks_per_sm
  in
  guarded (fun () ->
      Sim.run ~check:true ~waves ?faults cfg ~trace ~alloc ~blocks_per_sm
        ~mode)

(* Demand byte-equal stats from two runs, failing on any invariant
   violation.  Returns the fast stats so callers can pile further
   assertions on top. *)
let judge label fast reference =
  match (fast, reference) with
  | Ok f, Ok r ->
    check_same label f r;
    f
  | Error mf, Error mr ->
    if mf <> mr then
      Alcotest.failf "%s: different violations: fast=%S ref=%S" label mf mr
    else Alcotest.failf "%s: both engines violate: %s" label mf
  | Error m, Ok _ ->
    Alcotest.failf "%s: only the fast engine violates: %s" label m
  | Ok _, Error m ->
    Alcotest.failf "%s: only the reference engine violates: %s" label m

(* The flat engine against the reference engine on the same inputs. *)
let agree ?(cfg = cfg) ?faults label ~trace ~alloc ~demand ~mode ~waves =
  judge
    (Printf.sprintf "%s (waves=%d)" label waves)
    (flat ~cfg ?faults ~trace ~alloc ~demand ~mode ~waves ())
    (guarded (fun () ->
         Multi.single ~check:true ~waves ?faults cfg ~trace ~alloc ~demand
           ~mode))

(* A demand that admits exactly [blocks] resident blocks because
   shared memory binds: for the hand-built cases whose block count is
   the point of the test. *)
let demand_for_blocks ~regs ~warps_per_block blocks =
  let d =
    {
      Occ.d_regs_per_thread = max 1 regs;
      d_shared_bytes_per_block = cfg.shared_mem_bytes / blocks;
    }
  in
  Alcotest.(check int)
    (Printf.sprintf "demand admits %d blocks" blocks)
    blocks
    (Occ.of_demand cfg d ~warps_per_block).Occ.blocks_per_sm;
  d

type case =
  string ->
  trace:T.t ->
  alloc:A.t ->
  demand:Occ.demand ->
  mode:Sim.regfile_mode ->
  waves:int ->
  unit

(* Every registry kernel under every registered backend (baseline /
   slice / rrcd / spill), each at its own demand and sim mode exactly
   as `gpr report --backend` maps it, at one wave.  Under
   GPR_FAST_TESTS=1 only the 2-kernel CI smoke subset runs; [only]
   restricts the kernels to the named ones. *)
let registry ?only (f : case) =
  let kernels =
    match only with
    | Some names ->
      List.filter (fun (w : W.t) -> List.mem w.name names)
        Gpr_workloads.Registry.all
    | None when fast_tests ->
      List.filter
        (fun (w : W.t) -> w.name = "Hotspot" || w.name = "DWT2D")
        Gpr_workloads.Registry.all
    | None -> Gpr_workloads.Registry.all
  in
  Alcotest.(check bool) "registry non-empty" true (kernels <> []);
  List.iter
    (fun (w : W.t) ->
      let trace = W.trace w ~quantize:None in
      let width = Gpr_analysis.Width.analyze w.kernel ~launch:w.launch in
      List.iter
        (fun (scheme : Backend.t) ->
          let module S = (val scheme) in
          let res = S.analyze ~kernel:w.kernel ~width ~precision:None in
          let demand =
            Backend.demand cfg res
              ~warps_per_block:(W.warps_per_block w)
              ~shared_bytes_per_block:(W.shared_bytes_per_block w)
          in
          f
            (Printf.sprintf "%s/%s" w.name S.id)
            ~trace ~alloc:res.Backend.alloc ~demand
            ~mode:(Backend.sim_mode scheme res)
            ~waves:1)
        Gpr_backend.Registry.all)
    kernels

(* One generated kernel through all three register-file modes at two
   wave counts; a seed whose kernel does not execute is skipped. *)
let generated seed (f : case) =
  match
    (try
       let case = Gen.generate seed in
       let data = case.Gen.data () in
       let bindings =
         E.bindings_for case.Gen.kernel ~data ~shared:case.Gen.shared ()
       in
       E.run case.Gen.kernel ~launch:case.Gen.launch ~params:case.Gen.params
         ~bindings
         { E.default_config with collect_trace = true; max_steps = Some 500_000 }
       |> Option.map (fun t -> (case, t))
     with _ -> None)
  with
  | None -> ()
  | Some (case, trace) ->
    let wt =
      Gpr_analysis.Width.analyze case.Gen.kernel ~launch:case.Gen.launch
    in
    let width_of (r : vreg) =
      match r.ty with
      | Pred | F32 -> 32
      | S32 | U32 -> Gpr_analysis.Width.var_bitwidth wt r.id
    in
    let shared_bytes =
      4 * List.fold_left (fun acc (_, n) -> acc + n) 0 case.Gen.shared
    in
    let demand_of regs spill_bytes =
      {
        Occ.d_regs_per_thread = max 1 regs;
        d_shared_bytes_per_block =
          shared_bytes + (spill_bytes * 32 * trace.T.warps_per_block);
      }
    in
    let alloc_base = A.baseline case.Gen.kernel in
    let alloc_comp = A.run case.Gen.kernel ~width_of in
    let module Sp = Gpr_backend.Backend_spill in
    let res = Sp.analyze ~kernel:case.Gen.kernel ~width:wt ~precision:None in
    List.iter
      (fun waves ->
        f
          (Printf.sprintf "gen%d/baseline" seed)
          ~trace ~alloc:alloc_base
          ~demand:(demand_of alloc_base.A.pressure 0)
          ~mode:Sim.Baseline ~waves;
        f
          (Printf.sprintf "gen%d/proposed" seed)
          ~trace ~alloc:alloc_comp
          ~demand:(demand_of alloc_comp.A.pressure 0)
          ~mode:(Sim.Proposed { writeback_delay = 3 })
          ~waves;
        f
          (Printf.sprintf "gen%d/spill" seed)
          ~trace ~alloc:res.Backend.alloc
          ~demand:
            (demand_of res.Backend.alloc.A.pressure
               (Backend.spill_bytes_per_thread res))
          ~mode:(Backend.sim_mode (module Sp) res)
          ~waves)
      [ 1; 6 ]
