open Gpr_workloads
module Q = Gpr_quality.Quality
module P = Gpr_precision.Precision
module Sim = Gpr_sim.Sim
module Multi = Gpr_sim.Sim_multi
module Backend = Gpr_backend.Backend
module Occ = Gpr_arch.Occupancy
module Fp = Gpr_engine.Fingerprint
module Store = Gpr_engine.Store
module Memo = Gpr_engine.Memo

let cfg = Gpr_arch.Config.fermi_gtx480
let cfg_fp = lazy (Fp.to_hex (Fp.config cfg))

(* Every memo is keyed by content fingerprint (workload ⊕ arch config
   ⊕ scheme id+version ⊕ variant), never by workload name, so two
   schemes never share an entry.  Traces and seats live in memory only
   (traces are large and cheap relative to the tuner); stats, energy
   and co-scheduling results are also persisted to the optional
   on-disk store, so a warm run re-executes neither the kernel nor the
   timing model. *)
let traces : Gpr_exec.Trace.t Memo.t = Memo.create ()

let store : Store.t option ref = ref None
let set_store s = store := s

let scheme_key b = Fp.to_hex (Backend.fingerprint b)
let baseline_scheme : Backend.t = (module Gpr_backend.Backend_baseline)
let slice_scheme : Backend.t = (module Gpr_backend.Backend_slice)

(* The plain trace, or the one quantised at a threshold's assignment. *)
let trace_for (c : Compress.t) threshold =
  let variant =
    match threshold with
    | None -> "plain"
    | Some th -> "quant-" ^ Q.threshold_name th
  in
  Memo.get traces (Fp.to_hex c.fingerprint ^ "/" ^ variant) (fun () ->
      Workload.trace c.w
        ~quantize:
          (Option.map
             (fun th -> P.quantizer (Compress.threshold_data c th).assignment)
             threshold))

(* ------------------------------------------------------------------ *)
(* The seat: everything one timing run of a kernel under a scheme at a
   threshold needs, built at most once per process per triple.  The
   trace is handed out on demand (through its own memo), so a seat
   that only answers occupancy questions never executes the kernel. *)

type seat = {
  res : Backend.resources;
  demand : Occ.demand;
  occ : Occ.result;  (** on the Fermi configuration *)
  mode : Sim.regfile_mode;  (** at the scheme's own writeback delay *)
  trace : unit -> Gpr_exec.Trace.t;
}

(* The static framework already holds the baseline and slice schemes'
   allocations: [Compress] runs the slice scheme's own width policy
   beside the tuner.  Their seats reuse them instead of re-running the
   allocator; every other scheme runs its [analyze]. *)
let resources b (c : Compress.t) threshold =
  let module S = (val b : Backend.Scheme) in
  let is s = Fp.equal (Backend.fingerprint b) (Backend.fingerprint s) in
  let data () = Compress.threshold_data c threshold in
  if is baseline_scheme then Backend.plain_resources c.baseline
  else if is slice_scheme then Backend.plain_resources (data ()).alloc_both
  else
    S.analyze ~kernel:c.w.kernel ~width:c.width
      ~precision:
        (if S.needs_precision then Some (data ()).assignment else None)

let seats : seat Memo.t = Memo.create ()

let seat b (c : Compress.t) threshold =
  Memo.get seats
    (String.concat "/"
       [ Fp.to_hex c.fingerprint; scheme_key b; Q.threshold_name threshold ])
    (fun () ->
      let module S = (val b : Backend.Scheme) in
      let res = resources b c threshold in
      let warps_per_block = Workload.warps_per_block c.w in
      let demand =
        Backend.demand cfg res ~warps_per_block
          ~shared_bytes_per_block:(Workload.shared_bytes_per_block c.w)
      in
      let quantized = if S.needs_precision then Some threshold else None in
      { res; demand; occ = Occ.of_demand cfg demand ~warps_per_block;
        mode = Backend.sim_mode b res;
        trace = (fun () -> trace_for c quantized) })

let footprint b c threshold =
  let s = seat b c threshold in
  (s.res, s.occ)

let warm b c threshold = ignore ((seat b c threshold).trace ())

(* The one place a seat becomes a timing run.  [blocks] and [mode]
   override the seat's own Fermi occupancy and sim mode. *)
let run_seat ?check ?profile ?(machine = cfg) ?blocks ?mode s =
  Sim.run ?check ?profile machine ~trace:(s.trace ()) ~alloc:s.res.alloc
    ~blocks_per_sm:(Option.value blocks ~default:s.occ.blocks_per_sm)
    ~mode:(Option.value mode ~default:s.mode)

(* The in-memory memo in front of the on-disk store.  Stats are cheap
   to recompute only when the trace is warm; on a cold store-backed run
   we want to skip the kernel re-execution too, so both lookups happen
   before the seat is built. *)
let persisted memo ~kind key compute =
  Memo.get memo key (fun () ->
      Store.memoize !store ~kind ~key:(Fp.of_strings [ kind; key ]) compute)

let stats_memo : Sim.stats Memo.t = Memo.create ()

let stats_for (c : Compress.t) variant compute =
  persisted stats_memo ~kind:"stats"
    (Printf.sprintf "%s/%s/%s" (Fp.to_hex c.fingerprint) (Lazy.force cfg_fp)
       variant)
    compute

let backend ?writeback_delay b c threshold =
  let variant =
    Printf.sprintf "backend/%s/%s/wb%s" (scheme_key b)
      (Q.threshold_name threshold)
      (match writeback_delay with None -> "-" | Some d -> string_of_int d)
  in
  stats_for c variant (fun () ->
      let s = seat b c threshold in
      run_seat
        ?mode:
          (Option.map
             (fun d -> Backend.sim_mode ~writeback_delay:d b s.res)
             writeback_delay)
        s)

let baseline c = backend baseline_scheme c Q.High
let proposed ?writeback_delay c threshold =
  backend ?writeback_delay slice_scheme c threshold

let artificial c threshold =
  let variant =
    Printf.sprintf "artificial/%s/%s" (scheme_key slice_scheme)
      (Q.threshold_name threshold)
  in
  stats_for c variant (fun () ->
      let blocks = (seat slice_scheme c threshold).occ.blocks_per_sm in
      run_seat ~blocks (seat baseline_scheme c threshold))

(* Ablations change the machine, so occupancy is re-derived on it from
   the seat's admission demand; nothing is memoised. *)
let on_machine machine b (c : Compress.t) threshold =
  let s = seat b c threshold in
  let occ =
    Occ.of_demand machine s.demand
      ~warps_per_block:(Workload.warps_per_block c.w)
  in
  (occ, run_seat ~machine ~blocks:occ.blocks_per_sm s)

(* Profiling deliberately bypasses the stats memo: a trace can only be
   recorded by actually running the timing model.  The run is
   self-checking so a profile doubles as an attribution audit. *)
let profile_backend ~profile b c threshold =
  run_seat ~check:true ~profile (seat b c threshold)

(* ------------------------------------------------------------------ *)
(* Energy: derived from the seat and the memoised timing stats, then
   itself memoised ("energy" entries; the engine fingerprint bump to
   /6 covers the new payload kind). *)

let energy_memo : Gpr_area.Energy.report Memo.t = Memo.create ()

let backend_energy b (c : Compress.t) threshold =
  let module S = (val b : Backend.Scheme) in
  (* Energy and coloc keys keep the "wb-" (no writeback override)
     suffix they were first stored under, so existing stores match. *)
  let key =
    Printf.sprintf "energy/%s/%s/%s/%s/wb-" (Fp.to_hex c.fingerprint)
      (Lazy.force cfg_fp) (scheme_key b)
      (Q.threshold_name threshold)
  in
  let compute () =
    let stats = backend b c threshold in
    let s = seat b c threshold in
    (* Warp-level access counts from the functional trace; the extra
       row fetch of every split (double-fetch) placement comes from
       the timing stats. *)
    let reads = ref 0 and writes = ref 0 in
    Array.iter
      (fun (it : Gpr_exec.Trace.item) ->
        reads := !reads + List.length it.t_srcs;
        if it.t_dst <> None then incr writes)
      (s.trace ()).Gpr_exec.Trace.items;
    let reads = !reads + stats.Sim.double_fetches in
    let alloc = s.res.alloc in
    (* Mean occupied slices per distinct storage atom (8 when nothing
       is compressed, i.e. the conventional file). *)
    let atoms = Hashtbl.create 32 in
    Hashtbl.iter
      (fun _ (p : Gpr_alloc.Alloc.placement) ->
        Hashtbl.replace atoms (p.reg0, p.mask0, p.reg1, p.mask1) p.slices)
      alloc.Gpr_alloc.Alloc.placements;
    let avg_slices =
      if Hashtbl.length atoms = 0 then
        float_of_int Gpr_arch.Config.slices_per_register
      else
        float_of_int (Hashtbl.fold (fun _ s acc -> acc + s) atoms 0)
        /. float_of_int (Hashtbl.length atoms)
    in
    (* GREENER gating rides the static placement table, which the
       conventional file does not have: its gating input is the mean
       live share of an allocated register's program span, from the
       compile-time liveness. *)
    let gating =
      if Backend.id b = "baseline" then None
      else
        let live = Gpr_analysis.Liveness.compute c.w.Workload.kernel in
        let ivs = Gpr_analysis.Liveness.intervals live in
        let points = max 1 (Gpr_analysis.Liveness.num_points live) in
        let span =
          List.fold_left (fun acc (_, s, e) -> acc + (e - s + 1)) 0 ivs
        in
        Some
          (float_of_int span /. float_of_int (points * max 1 (List.length ivs)))
    in
    Gpr_area.Energy.estimate cfg ~scheme:(Backend.id b) ~reads
      ~writes:!writes
      ~table_reads:(if S.cost.Backend.uses_indirection then reads else 0)
      ~conversions:stats.Sim.conversions
      ~spill_accesses:(stats.Sim.spill_loads + stats.Sim.spill_stores)
      ~avg_slices ~gating ~resident_warps:s.occ.Occ.warps_per_sm
      ~pressure:alloc.Gpr_alloc.Alloc.pressure ~cycles:stats.Sim.cycles ()
  in
  persisted energy_memo ~kind:"energy" key compute

(* ------------------------------------------------------------------ *)
(* Concurrent-kernel co-scheduling: one SM hosting a kernel *set*
   under a dispatch policy. *)

let coloc_memo : Multi.result Memo.t = Memo.create ()

(* A kernel's tenancy at the co-scheduled SM is its seat: the scheme
   trace and allocation, the admission demand its isolated occupancy
   is computed from, and a fixed block budget of [waves] waves at that
   occupancy — so the co-scheduled run replays exactly the workload of
   [waves] isolated waves. *)
let colocate ?(waves = 6) ?(policy = Multi.fifo) ?check b
    (cs : Compress.t list) threshold =
  let module P = (val policy : Multi.POLICY) in
  let compute () =
    Multi.run ?check ~policy cfg
      (List.map
         (fun (c : Compress.t) ->
           let s = seat b c threshold in
           Multi.make_tenant ~waves cfg ~label:c.w.Workload.name
             ~trace:(s.trace ()) ~alloc:s.res.alloc ~demand:s.demand
             ~mode:s.mode)
         cs)
  in
  match check with
  (* Self-checking runs always execute (the point is the oracle, not
     the answer) and are neither memoised nor persisted. *)
  | Some true -> compute ()
  | _ ->
    (* The key names the kernel *set* in order (dispatch is
       submission-order sensitive), the scheme, the policy and the
       wave count, on top of the architecture. *)
    let key =
      Printf.sprintf "coloc/%s/%s/%s/%s/w%d/wb-"
        (String.concat "+"
           (List.map (fun (c : Compress.t) -> Fp.to_hex c.fingerprint) cs))
        (Lazy.force cfg_fp) (scheme_key b) P.id waves
    in
    persisted coloc_memo ~kind:"coloc" key compute

let clear_cache () =
  Memo.clear traces;
  Memo.clear seats;
  Memo.clear stats_memo;
  Memo.clear energy_memo;
  Memo.clear coloc_memo
