open Gpr_isa.Types
module E = Gpr_exec.Exec
module I = Gpr_util.Interval
module Range = Gpr_analysis.Range
module Width = Gpr_analysis.Width
module KB = Gpr_analysis.Knownbits
module CG = Gpr_analysis.Congruence
module Alloc = Gpr_alloc.Alloc
module Ind = Gpr_regfile.Indirection
module Dp = Gpr_regfile.Datapath
module F = Gpr_fp.Format_
module Backend = Gpr_backend.Backend
module Sim = Gpr_sim.Sim
module Multi = Gpr_sim.Sim_multi
module Occ = Gpr_arch.Occupancy

type mode = Exact | Narrow

type failure =
  | Range_violation of {
      pc : int;
      reg : vreg;
      value : int;
      range : I.t;
    }
  | Storage_violation of {
      pc : int;
      reg : vreg;
      value : int;
      roundtrip : int;
      bits : int;
    }
  | Alloc_violation of string
  | Output_mismatch of {
      mode : mode;
      buffer : string;
      index : int;
      expected : string;
      got : string;
    }
  | Exec_failure of string
  | Sim_violation of string
  | Width_violation of string
  | Lint_unsound of { event : string; diags : int }

exception Check_failed of failure

let mode_name = function Exact -> "exact" | Narrow -> "narrow"

let category = function
  | Range_violation _ -> "range"
  | Storage_violation _ -> "storage"
  | Alloc_violation _ -> "alloc"
  | Output_mismatch { mode; _ } -> "output-" ^ mode_name mode
  | Exec_failure _ -> "exec"
  | Sim_violation _ -> "sim"
  | Width_violation _ -> "width"
  | Lint_unsound _ -> "lint"

let to_string = function
  | Range_violation { pc; reg; value; range } ->
    Printf.sprintf
      "range violation: pc %d wrote %%%s%d = %d outside static range %s" pc
      reg.name reg.id value (I.to_string range)
  | Storage_violation { pc; reg; value; roundtrip; bits } ->
    Printf.sprintf
      "storage violation: pc %d wrote %%%s%d = %d but its %d-bit slices read \
       back %d"
      pc reg.name reg.id value bits roundtrip
  | Alloc_violation s -> "allocation violation: " ^ s
  | Output_mismatch { mode; buffer; index; expected; got } ->
    Printf.sprintf "output mismatch (%s mode): %s[%d] = %s, reference %s"
      (mode_name mode) buffer index got expected
  | Exec_failure s -> "executor failure: " ^ s
  | Sim_violation s -> "simulator invariant: " ^ s
  | Width_violation s -> "width analysis violation: " ^ s
  | Lint_unsound { event; diags } ->
    Printf.sprintf
      "lint unsound: dynamic monitor fired (%s) on a kernel the static \
       verifier passed as monitor-clean (%d static diagnostics)"
      event diags

let fail f = raise (Check_failed f)

(* Executor faults (out-of-bounds, step budget, binding mismatches) and
   library invariant errors become a distinct failure class so the
   shrinker never confuses them with an oracle violation. *)
let guard f =
  try f () with
  | Check_failed _ as e -> raise e
  | Failure msg -> fail (Exec_failure msg)
  | Invalid_argument msg -> fail (Exec_failure ("invalid argument: " ^ msg))

(* ------------------------------------------------------------------ *)
(* Static allocation invariants *)

let check_alloc_static (alloc : Alloc.t) =
  if not (Alloc.fits_arch_table alloc) then
    fail
      (Alloc_violation
         (Printf.sprintf "%d architectural registers exceed the 256-entry table"
            alloc.num_arch_regs));
  let storages = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _ (p : Alloc.placement) ->
       Hashtbl.replace storages (p.reg0, p.mask0, p.reg1, p.mask1) p)
    alloc.placements;
  let distinct = Hashtbl.fold (fun _ p acc -> p :: acc) storages [] in
  let pieces (p : Alloc.placement) =
    (p.reg0, p.mask0) :: (if p.reg1 >= 0 then [ (p.reg1, p.mask1) ] else [])
  in
  List.iter
    (fun (p : Alloc.placement) ->
       let pop = Gpr_util.Bits.popcount in
       if pop p.mask0 + (if p.reg1 >= 0 then pop p.mask1 else 0) <> p.slices
       then
         fail
           (Alloc_violation
              (Printf.sprintf "mask popcount disagrees with %d slices" p.slices));
       if Gpr_util.Bits.slices_of_bits p.bits <> p.slices then
         fail
           (Alloc_violation
              (Printf.sprintf "%d bits need %d slices, placement has %d" p.bits
                 (Gpr_util.Bits.slices_of_bits p.bits) p.slices));
       if p.is_float && F.of_total_bits p.bits = None then
         fail
           (Alloc_violation
              (Printf.sprintf "float placement width %d is not a Table 3 format"
                 p.bits));
       if Ind.entry_bits p > 32 then
         fail (Alloc_violation "indirection entry exceeds 32 bits"))
    distinct;
  (* Slices are never reused over time (the table is static), so every
     pair of distinct storage placements must be slice-disjoint. *)
  let rec pairs = function
    | [] -> ()
    | p :: rest ->
      List.iter
        (fun q ->
           List.iter
             (fun (r, m) ->
                List.iter
                  (fun (r', m') ->
                     if r = r' && m land m' <> 0 then
                       fail
                         (Alloc_violation
                            (Printf.sprintf
                               "two placements overlap in register %d (masks \
                                %#x / %#x)"
                               r m m')))
                  (pieces q))
             (pieces p))
        rest;
      pairs rest
  in
  pairs distinct

(* ------------------------------------------------------------------ *)

let dst_of_pc kernel =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun bi blk ->
       Array.iteri
         (fun ii ins ->
            match defs ins with
            | Some d ->
              Hashtbl.replace tbl (E.static_pc kernel ~block:bi ~idx:ii) d
            | None -> ())
         blk.instrs)
    kernel.k_blocks;
  tbl

let float_bits_eq a b =
  Int32.bits_of_float a = Int32.bits_of_float b
  || (Float.is_nan a && Float.is_nan b)

let compare_outputs mode ref_data packed_data =
  List.iter2
    (fun (name, a) (name', b) ->
       assert (name = name');
       let mismatch index expected got =
         fail (Output_mismatch { mode; buffer = name; index; expected; got })
       in
       match (a, b) with
       | E.I_data x, E.I_data y ->
         Array.iteri
           (fun i v ->
              if v <> y.(i) then mismatch i (string_of_int v) (string_of_int y.(i)))
           x
       | E.F_data x, E.F_data y ->
         Array.iteri
           (fun i v ->
              if not (float_bits_eq v y.(i)) then
                mismatch i
                  (Printf.sprintf "%h" v)
                  (Printf.sprintf "%h" y.(i)))
           x
       | _ -> mismatch 0 "storage kind" "storage kind")
    ref_data packed_data

let default_analyze k ~launch = Width.analyze k ~launch

(* The storage contract under demanded-width packing: a write must
   survive its slices in the low [demanded] bits — the only bits any
   later read can observe. *)
let demanded_of (wt : Width.t) (d : vreg) =
  if d.id < Array.length wt.Width.demanded then max 1 wt.Width.demanded.(d.id)
  else 32

(* A spill slot is one 32-bit shared-memory word: reloads recover the
   low 32 bits, extended per the destination's signedness. *)
let spill_roundtrip (d : vreg) iv =
  let low = iv land Gpr_util.Bits.mask 32 in
  match d.ty with
  | S32 -> Gpr_util.Bits.sign_extend ~width:32 low
  | U32 | F32 | Pred -> Gpr_util.Bits.zero_extend ~width:32 low

(* Where a case's registers live: the allocation, the registers kept in
   spill slots instead, and the caller's own static checks, which run
   after the structural audit. *)
type packing = {
  alloc : Alloc.t;
  spilled : (int, unit) Hashtbl.t;
  audit : unit -> unit;
}

let resident alloc = { alloc; spilled = Backend.no_spills (); audit = ignore }

(* Integer widths from the reduced product, everything else at 32 bits. *)
let int_widths wt (r : vreg) =
  match r.ty with
  | Pred | F32 -> 32
  | S32 | U32 -> Width.var_bitwidth wt r.id

(* The plain-vs-packed harness every differential oracle runs:
   analysis → allocation ([pack]) → static audit → reference run →
   packed run → bit-identical outputs.

   The reference run quantises each float definition exactly as its
   allocated storage will (placements may be wider than requested when
   an architectural name is shared, so the format comes from the
   placement, not from the requested width): a per-pc format table for
   the narrow placements, f32 rounding in the write hook for the rest.
   It validates every integer write: against its interval, then
   [on_ref].  Forward soundness is checked on the reference run, where
   the executed values are the ones the static analysis abstracts; the
   packed run may legitimately differ from them in bits no consumer
   demands (demanded-width storage truncates dead high parts).

   The packed run round-trips every write through its storage: the
   indirection table and the TVT/TVE datapath for a placement, where
   the low demanded bits must survive, or a 32-bit spill slot. *)
let packed_vs_plain ?(on_ref = fun _ _ _ _ -> ()) ~analyze ~pack ~max_steps
    mode (case : Gen.case) =
  guard @@ fun () ->
  let kernel = case.kernel in
  let wt = analyze kernel ~launch:case.launch in
  let rt = wt.Width.range in
  let { alloc; spilled; audit } = pack wt in
  check_alloc_static alloc;
  audit ();
  let table = Ind.create alloc in
  let formats = Array.make (E.count_static_instrs kernel) F.f32 in
  Hashtbl.iter
    (fun pc (d : vreg) ->
       match Ind.lookup table d.id with
       | Some p when p.is_float -> formats.(pc) <- Dp.format_of_placement p
       | _ -> ())
    (dst_of_pc kernel);
  let on_ref_write pc (d : vreg) v =
    match v with
    | E.P_int iv when d.ty = S32 || d.ty = U32 ->
      (match Range.var_range rt d.id with
       | I.Bot -> ()
       | range ->
         if not (I.contains range iv) then
           fail (Range_violation { pc; reg = d; value = iv; range }));
      on_ref wt pc d iv;
      v
    | E.P_float fv when formats.(pc).F.total_bits = 32 -> E.P_float (F.quantize F.f32 fv)
    | _ -> v
  in
  let on_write pc (d : vreg) v =
    match v with
    | E.P_int iv ->
      (match Ind.lookup table d.id with
       | Some p when not p.is_float ->
         let r0, r1 = Dp.store_int p iv in
         let back = Dp.load_int p ~r0 ~r1 in
         if (back lxor iv) land Gpr_util.Bits.mask (demanded_of wt d) <> 0 then
           fail
             (Storage_violation
                { pc; reg = d; value = iv; roundtrip = back; bits = p.bits });
         E.P_int back
       | Some _ -> v
       | None ->
         if Hashtbl.mem spilled d.id then begin
           let back = spill_roundtrip d iv in
           if back <> iv then
             fail
               (Storage_violation
                  { pc; reg = d; value = iv; roundtrip = back; bits = 32 });
           E.P_int back
         end
         else v)
    | E.P_float fv ->
      (match Ind.lookup table d.id with
       | Some p when p.is_float ->
         let r0, r1 = Dp.store_float p fv in
         E.P_float (Dp.load_float p ~r0 ~r1)
       | _ -> E.P_float (F.quantize F.f32 fv))
  in
  let run config =
    let data = case.data () in
    let bindings = E.bindings_for kernel ~data ~shared:case.shared () in
    ignore
      (E.run kernel ~launch:case.launch ~params:case.params ~bindings
         { config with E.max_steps = Some max_steps });
    data
  in
  let ref_data =
    run
      { E.default_config with
        quantize = Some formats; on_write = Some on_ref_write }
  in
  let packed_data = run { E.default_config with on_write = Some on_write } in
  compare_outputs mode ref_data packed_data

let check ?(analyze = default_analyze) ?(max_steps = 2_000_000) mode
    (case : Gen.case) =
  let width_of wt (r : vreg) =
    match (r.ty, mode) with
    | F32, Narrow -> (F.of_level (case.float_level r)).F.total_bits
    | _ -> int_widths wt r
  in
  packed_vs_plain ~analyze ~max_steps mode case ~pack:(fun wt ->
      resident (Alloc.run case.kernel ~width_of:(width_of wt)))

(* ------------------------------------------------------------------ *)
(* Width-analysis oracle: validates all four ingredients of the
   [Gpr_analysis.Width] reduced product against one execution.

   (a) dominance — the product is never wider than the intervals;
   (b) forward membership — on the reference run every executed
       integer definition lies in its interval, its known-bits pattern
       set and its congruence class;
   (c) storage — a packed run at the product widths round-trips every
       write through the real indirection/datapath, and the low
       demanded bits always survive;
   (d) end-to-end — the packed outputs are byte-identical, i.e. the
       demanded-bits truncation is unobservable. *)

let check_width ?(max_steps = 2_000_000) (case : Gen.case) =
  let dominance (wt : Width.t) =
    Array.iteri
      (fun v wb ->
         let ib = wt.Width.range.Range.var_bits.(v) in
         if wb > ib then
           fail
             (Width_violation
                (Printf.sprintf
                   "%%%d: product width %d exceeds interval width %d" v wb ib)))
      wt.Width.var_bits
  in
  let on_ref wt pc (d : vreg) iv =
    (match Width.known_bits wt d.id with
     | KB.Bot -> ()
     | kbv ->
       if not (KB.mem iv kbv) then
         fail
           (Width_violation
              (Printf.sprintf "pc %d wrote %%%s%d = %d outside known bits %s"
                 pc d.name d.id iv (KB.to_string kbv))));
    match Width.congruence wt d.id with
    | CG.Bot -> ()
    | cgv ->
      if not (CG.mem iv cgv) then
        fail
          (Width_violation
             (Printf.sprintf "pc %d wrote %%%s%d = %d outside congruence %s" pc
                d.name d.id iv (CG.to_string cgv)))
  in
  packed_vs_plain ~on_ref ~analyze:default_analyze ~max_steps Exact case
    ~pack:(fun wt ->
      dominance wt;
      resident (Alloc.run case.kernel ~width_of:(int_widths wt)))

(* ------------------------------------------------------------------ *)

(* Static/dynamic soundness parity (the lint stage of the fuzzer): the
   static verifier's barrier and shared-race passes over-approximate,
   so a kernel they pass as clean must execute without a single dynamic
   monitor event.  The converse direction is deliberately one-sided —
   the monitor confirming a statically-reported hazard is agreement. *)
let check_lint ?(max_steps = 2_000_000) (case : Gen.case) =
  guard @@ fun () ->
  let diags = Gpr_lint.Lint.lint case.kernel ~launch:case.launch in
  let clean = Gpr_lint.Lint.monitor_clean diags in
  let events = ref [] in
  let data = case.data () in
  let bindings = E.bindings_for case.kernel ~data ~shared:case.shared () in
  ignore
    (E.run ~check:true case.kernel ~launch:case.launch ~params:case.params
       ~bindings
       {
         E.default_config with
         max_steps = Some max_steps;
         on_monitor = Some (fun ev -> events := ev :: !events);
       });
  match (clean, List.rev !events) with
  | _, [] | false, _ -> ()
  | true, ev :: _ ->
    fail
      (Lint_unsound
         {
           event = Gpr_exec.Trace.monitor_event_to_string ev;
           diags = List.length diags;
         })

(* ------------------------------------------------------------------ *)
(* Scheme-generic oracles: plain-vs-backend for any registered
   register-file scheme, not just slice.  [analyze] runs with
   [precision:None] (the tuner needs workload data a fuzz case does not
   carry), so floats stay 32-bit everywhere; the reference run
   quantises float definitions to f32 accordingly. *)

(* Every live range must be either resident (has a placement) or
   spilled — never both, never neither.  Execution alone would not
   catch a dropped register: an unplaced, unspilled write silently
   passes through [on_write] unchanged. *)
let check_backend_coverage kernel (res : Backend.resources) =
  let live = Gpr_analysis.Liveness.compute kernel in
  List.iter
    (fun (v, _, _) ->
       let placed = Alloc.lookup res.Backend.alloc v <> None in
       let spilled = Hashtbl.mem res.Backend.spilled v in
       if placed && spilled then
         fail
           (Alloc_violation
              (Printf.sprintf "%%%d is both resident and spilled" v));
       if (not placed) && not spilled then
         fail
           (Alloc_violation
              (Printf.sprintf "%%%d is neither resident nor spilled" v)))
    (Gpr_analysis.Liveness.intervals live)

let check_backend ?(max_steps = 2_000_000) (b : Backend.t) (case : Gen.case) =
  let module S = (val b : Backend.Scheme) in
  let kernel = case.kernel in
  packed_vs_plain ~analyze:default_analyze ~max_steps Exact case
    ~pack:(fun wt ->
      let res = S.analyze ~kernel ~width:wt ~precision:None in
      let audit () =
        check_backend_coverage kernel res;
        if Hashtbl.length res.Backend.spilled > 0 && res.Backend.spill_slots <= 0
        then
          fail
            (Alloc_violation
               (Printf.sprintf "%d spilled registers but %d spill slots"
                  (Hashtbl.length res.Backend.spilled) res.Backend.spill_slots))
      in
      { alloc = res.Backend.alloc; spilled = res.Backend.spilled; audit })

(* ------------------------------------------------------------------ *)
(* Timing-model oracles *)

let cfg = Gpr_arch.Config.fermi_gtx480

(* The case's dynamic warp trace, on fresh inputs. *)
let trace_of ~max_steps (c : Gen.case) =
  let data = c.data () in
  let bindings = E.bindings_for c.kernel ~data ~shared:c.shared () in
  E.run c.kernel ~launch:c.launch ~params:c.params ~bindings
    { E.default_config with collect_trace = true; max_steps = Some max_steps }

let trace_exn ~max_steps c =
  match trace_of ~max_steps c with
  | Some t -> t
  | None -> fail (Exec_failure "trace collection returned no trace")

let shared_bytes (c : Gen.case) =
  4 * List.fold_left (fun acc (_, n) -> acc + n) 0 c.shared

(* Blocks per SM at [alloc]'s register pressure and the case's shared
   memory. *)
let register_occupancy (c : Gen.case) trace (alloc : Alloc.t) =
  (Occ.compute cfg ~regs_per_thread:(max 1 alloc.pressure)
     ~warps_per_block:trace.Gpr_exec.Trace.warps_per_block
     ~shared_bytes_per_block:(shared_bytes c))
    .Occ.blocks_per_sm

(* [Sim.run] with its self-checks armed; an invariant violation becomes
   a [Sim_violation] carrying [context msg]. *)
let sim_checked ?(context = Fun.id) ?(waves = 2) cfg ~trace ~alloc
    ~blocks_per_sm ~mode =
  try Sim.run ~check:true ~waves cfg ~trace ~alloc ~blocks_per_sm ~mode
  with Sim.Invariant_violation msg -> fail (Sim_violation (context msg))

(* [Sim.run] at [demand]'s occupancy, pinned byte-equal to the
   reference engine — a lone tenant of [Sim_multi] — on the same
   inputs.  [audit] sees the stats before the reference engine runs;
   [violates] and [diverges] word the reference engine's failures. *)
let sim_pinned ?context ?(audit = ignore) ~violates ~diverges ~waves cfg
    ~trace ~alloc ~demand ~mode =
  let blocks_per_sm =
    (Occ.of_demand cfg demand
       ~warps_per_block:trace.Gpr_exec.Trace.warps_per_block)
      .Occ.blocks_per_sm
  in
  let s = sim_checked ?context ~waves cfg ~trace ~alloc ~blocks_per_sm ~mode in
  audit s;
  let r =
    try Multi.single ~check:true ~waves cfg ~trace ~alloc ~demand ~mode
    with Sim.Invariant_violation msg -> fail (Sim_violation (violates msg))
  in
  if Stdlib.compare s r <> 0 then
    fail (Sim_violation (diverges s.Sim.cycles r.Sim.cycles));
  s

let check_sim_backend ?(max_steps = 2_000_000) (b : Backend.t)
    (case : Gen.case) =
  guard @@ fun () ->
  let module S = (val b : Backend.Scheme) in
  let kernel = case.kernel in
  let trace = trace_exn ~max_steps case in
  let wt = Width.analyze kernel ~launch:case.launch in
  let res = S.analyze ~kernel ~width:wt ~precision:None in
  let alloc_base = Alloc.baseline kernel in
  let occ_base = register_occupancy case trace alloc_base in
  let occ_s =
    (Backend.occupancy cfg res
       ~warps_per_block:trace.Gpr_exec.Trace.warps_per_block
       ~shared_bytes_per_block:(shared_bytes case))
      .Occ.blocks_per_sm
  in
  (* A register-only scheme can never lose occupancy to the baseline;
     a spilling scheme may (its slots consume shared memory), so the
     invariant only binds when nothing is spilled. *)
  if res.Backend.spill_slots = 0 && occ_s < occ_base then
    fail
      (Sim_violation
         (Printf.sprintf "%s occupancy %d blocks/SM below baseline %d" S.id
            occ_s occ_base));
  ignore
    (sim_checked cfg ~trace ~alloc:alloc_base ~blocks_per_sm:occ_base
       ~mode:Sim.Baseline);
  ignore
    (sim_checked cfg ~trace ~alloc:res.Backend.alloc ~blocks_per_sm:occ_s
       ~mode:(Backend.sim_mode b res))

let check_sim ?(max_steps = 2_000_000) (case : Gen.case) =
  guard @@ fun () ->
  let kernel = case.kernel in
  let trace = trace_exn ~max_steps case in
  let wt = Width.analyze kernel ~launch:case.launch in
  let alloc_base = Alloc.baseline kernel in
  let alloc_comp = Alloc.run kernel ~width_of:(int_widths wt) in
  let occ_base = register_occupancy case trace alloc_base
  and occ_comp = register_occupancy case trace alloc_comp in
  if occ_comp < occ_base then
    fail
      (Sim_violation
         (Printf.sprintf
            "compressed occupancy %d blocks/SM below baseline %d" occ_comp
            occ_base));
  ignore
    (sim_checked cfg ~trace ~alloc:alloc_base ~blocks_per_sm:occ_base
       ~mode:Sim.Baseline);
  ignore
    (sim_checked cfg ~trace ~alloc:alloc_comp ~blocks_per_sm:occ_comp
       ~mode:(Sim.Proposed { writeback_delay = 3 }))

(* Observability oracle: the simulator's internal slot accounting is
   audited by [~check:true], but the *reported* stats record could
   still lie (field assembled from the wrong ref, a cause dropped from
   [breakdown], ...).  Recompute the identity from the returned record
   alone, across all three register-file modes; then pin the flat
   engine byte-equal to the reference engine (a single-tenant
   [Sim_multi] run) on the same inputs, and fuzz the idle fast-forward
   replay specifically with a stretched machine (long latencies, slow
   spill port, one resident block) whose runs are dominated by
   frozen-cause idle stretches rather than the dense cycle-by-cycle
   path. *)
let check_obs ?(max_steps = 2_000_000) (case : Gen.case) =
  guard @@ fun () ->
  let kernel = case.kernel in
  let trace = trace_exn ~max_steps case in
  let wt = Width.analyze kernel ~launch:case.launch in
  let wpb = trace.Gpr_exec.Trace.warps_per_block in
  let demand_of regs spill_bytes =
    {
      Occ.d_regs_per_thread = max 1 regs;
      d_shared_bytes_per_block = shared_bytes case + (spill_bytes * 32 * wpb);
    }
  in
  let audit label (s : Sim.stats) =
    let bd = Sim.breakdown s in
    let slots = Gpr_obs.Stall.total_slots bd in
    let expected = s.cycles * cfg.warp_schedulers in
    if slots <> expected then
      fail
        (Sim_violation
           (Printf.sprintf
              "%s: stall attribution %d slots over %d cycles x %d schedulers \
               (= %d)"
              label slots s.cycles cfg.warp_schedulers expected));
    if s.issued_slots <> s.warp_instructions then
      fail
        (Sim_violation
           (Printf.sprintf "%s: %d issued slots but %d warp instructions"
              label s.issued_slots s.warp_instructions))
  in
  let run ?(cfg = cfg) ?(waves = 2) label alloc demand mode =
    ignore
      (sim_pinned ~audit:(audit label)
         ~violates:
           (Printf.sprintf "%s: only the reference engine violates: %s" label)
         ~diverges:
           (Printf.sprintf
              "%s: fast engine diverges from the reference engine (%d vs %d \
               cycles)"
              label)
         ~waves cfg ~trace ~alloc ~demand ~mode)
  in
  let alloc_base = Alloc.baseline kernel in
  let alloc_comp = Alloc.run kernel ~width_of:(int_widths wt) in
  run "baseline" alloc_base (demand_of alloc_base.Alloc.pressure 0)
    Sim.Baseline;
  run "proposed" alloc_comp (demand_of alloc_comp.Alloc.pressure 0)
    (Sim.Proposed { writeback_delay = 3 });
  (* The spill scheme exercises the spill-port cause. *)
  let module Sp = Gpr_backend.Backend_spill in
  let res = Sp.analyze ~kernel ~width:wt ~precision:None in
  run "spill" res.Backend.alloc
    (demand_of res.Backend.alloc.Alloc.pressure
       (Backend.spill_bytes_per_thread res))
    (Backend.sim_mode (module Sp) res);
  (* Fast-forward-heavy schedule: one resident block, one wave, and a
     machine whose latencies dwarf the issue rate, so nearly every
     cycle is skipped by the idle fast-forward and its frozen stall
     cause replayed.  Run under the spill mode so the replayed causes
     include the spill port, the cause most entangled with retire
     timing.  The block claims all of the SM's shared memory, which
     pins the occupancy to one block. *)
  let stretched =
    {
      cfg with
      Gpr_arch.Config.spu_latency = 64;
      sfu_latency = 96;
      shared_latency = 180;
      l1_hit_latency = 200;
      l2_hit_latency = 600;
      dram_latency = 1200;
    }
  in
  let one_block =
    {
      (demand_of res.Backend.alloc.Alloc.pressure 0) with
      Occ.d_shared_bytes_per_block = cfg.shared_mem_bytes;
    }
  in
  let occ = Occ.of_demand stretched one_block ~warps_per_block:wpb in
  if occ.Occ.blocks_per_sm <> 1 then
    fail
      (Sim_violation
         (Printf.sprintf "ffwd-heavy: demand admits %d blocks, not 1"
            occ.Occ.blocks_per_sm));
  run ~cfg:stretched ~waves:1 "ffwd-heavy" res.Backend.alloc one_block
    (Backend.sim_mode (module Sp) res)

(* ------------------------------------------------------------------ *)
(* Concurrent-kernel co-scheduling oracle. *)

let check_coloc ?(max_steps = 2_000_000) (b : Backend.t) (case : Gen.case) =
  guard @@ fun () ->
  let module S = (val b : Backend.Scheme) in
  (* A tenant at the scheme's demand, budgeted for two waves of its
     isolated occupancy — the same workload its isolated reference run
     replays. *)
  let tenant_of label (c : Gen.case) trace =
    let wt = Width.analyze c.kernel ~launch:c.launch in
    let res = S.analyze ~kernel:c.kernel ~width:wt ~precision:None in
    let demand =
      Backend.demand cfg res
        ~warps_per_block:trace.Gpr_exec.Trace.warps_per_block
        ~shared_bytes_per_block:(shared_bytes c)
    in
    Multi.make_tenant ~waves:2 cfg ~label ~trace ~alloc:res.Backend.alloc
      ~demand ~mode:(Backend.sim_mode b res)
  in
  (* Isolated reference for one tenant; also pins the singleton
     identity: the tenant alone must reproduce [Sim.run] byte for
     byte. *)
  let isolated
      { Multi.t_label = label; t_trace = trace; t_alloc = alloc;
        t_mode = mode; t_demand = demand; _ } =
    sim_pinned
      ~context:(fun msg -> label ^ ": " ^ msg)
      ~violates:(fun msg -> label ^ " (singleton run_multi): " ^ msg)
      ~diverges:
        (Printf.sprintf
           "%s: singleton run_multi diverges from Sim.run (%d vs %d cycles)"
           label)
      ~waves:2 cfg ~trace ~alloc ~demand ~mode
  in
  let trace = trace_exn ~max_steps case in
  let t0 = tenant_of "k0" case trace in
  let s0 = isolated t0 in
  (* The co-tenant is generated from a seed derived from the case's,
     so shrinking the case never perturbs its companion; a companion
     that does not execute degrades to co-scheduling the case with
     itself, which still exercises the multi-tenant dispatcher. *)
  let companion = Gen.generate (case.seed lxor 0x2b992d) in
  let t1 =
    match trace_of ~max_steps companion with
    | Some tr when Array.length tr.Gpr_exec.Trace.items > 0 ->
      tenant_of "k1" companion tr
    | Some _ | None | (exception _) -> tenant_of "k1" case trace
  in
  let s1 = isolated t1 in
  List.iter
    (fun policy ->
      let module P = (val policy : Multi.POLICY) in
      let r =
        match Multi.run ~check:true ~policy cfg [ t0; t1 ] with
        | r -> r
        | exception Sim.Invariant_violation msg ->
          fail (Sim_violation (Printf.sprintf "coloc/%s: %s" P.id msg))
      in
      (* Per-kernel replay identity: co-residency may change the
         timing, never the retired instruction stream. *)
      let expect label (iso : Sim.stats) (ts : Multi.tenant_stats) =
        if ts.Multi.ts_warp_instructions <> iso.Sim.warp_instructions then
          fail
            (Sim_violation
               (Printf.sprintf
                  "coloc/%s: %s issued %d warp instructions co-scheduled \
                   but %d isolated"
                  P.id label ts.Multi.ts_warp_instructions
                  iso.Sim.warp_instructions));
        if ts.Multi.ts_thread_instructions <> iso.Sim.thread_instructions
        then
          fail
            (Sim_violation
               (Printf.sprintf
                  "coloc/%s: %s executed %d thread instructions \
                   co-scheduled but %d isolated"
                  P.id label ts.Multi.ts_thread_instructions
                  iso.Sim.thread_instructions))
      in
      expect "k0" s0 r.Multi.r_tenants.(0);
      expect "k1" s1 r.Multi.r_tenants.(1);
      (* Aggregate conservation over the kernel set. *)
      if
        r.Multi.r_stats.Sim.warp_instructions
        <> s0.Sim.warp_instructions + s1.Sim.warp_instructions
      then
        fail
          (Sim_violation
             (Printf.sprintf
                "coloc/%s: aggregate warp instructions %d <> %d + %d" P.id
                r.Multi.r_stats.Sim.warp_instructions s0.Sim.warp_instructions
                s1.Sim.warp_instructions)))
    Multi.policies
