open Gpr_workloads
module Q = Gpr_quality.Quality
module P = Gpr_precision.Precision
module Sim = Gpr_sim.Sim
module Fp = Gpr_engine.Fingerprint
module Store = Gpr_engine.Store

(* Both tables are keyed by content fingerprint (workload ⊕ arch config
   ⊕ variant), never by workload name, and are mutex-guarded so engine
   worker domains can share them.  Computation runs outside the lock:
   racing domains may duplicate work but store identical values.
   Traces are memoised in memory only (they are large and cheap
   relative to the tuner); [Sim.stats] records are additionally
   persisted to the optional on-disk store, so a warm run never
   re-executes a kernel or the timing model. *)
let trace_cache : (string, Gpr_exec.Trace.t) Hashtbl.t = Hashtbl.create 32
let stats_cache : (string, Sim.stats) Hashtbl.t = Hashtbl.create 32

let coloc_cache : (string, Gpr_sim.Sim_multi.result) Hashtbl.t =
  Hashtbl.create 8

let energy_cache : (string, Gpr_area.Energy.report) Hashtbl.t =
  Hashtbl.create 16

let cache_mutex = Mutex.create ()

let store : Store.t option ref = ref None
let set_store s = store := s

let clear_cache () =
  Mutex.lock cache_mutex;
  Hashtbl.reset trace_cache;
  Hashtbl.reset stats_cache;
  Hashtbl.reset coloc_cache;
  Hashtbl.reset energy_cache;
  Mutex.unlock cache_mutex

let cfg = Gpr_arch.Config.fermi_gtx480
let cfg_fp = lazy (Fp.to_hex (Fp.config cfg))

let find_cached tbl key =
  Mutex.lock cache_mutex;
  let r = Hashtbl.find_opt tbl key in
  Mutex.unlock cache_mutex;
  r

let put_cached tbl key v =
  Mutex.lock cache_mutex;
  Hashtbl.replace tbl key v;
  Mutex.unlock cache_mutex

let trace_for (c : Compress.t) quantize_key quantize =
  let key = Fp.to_hex c.fingerprint ^ "/" ^ quantize_key in
  match find_cached trace_cache key with
  | Some t -> t
  | None ->
    let t = Workload.trace c.w ~quantize in
    put_cached trace_cache key t;
    t

let trace_plain (c : Compress.t) = trace_for c "plain" None

let trace_quantized (c : Compress.t) threshold =
  let data = Compress.threshold_data c threshold in
  trace_for c
    ("quant-" ^ Q.threshold_name threshold)
    (Some (P.quantizer data.assignment))

(* Stats are cheap to recompute only when the trace is warm; on a cold
   store-backed run we want to skip the kernel re-execution too, so the
   disk lookup happens before the trace is (lazily) built. *)
let stats_for (c : Compress.t) variant compute =
  let key =
    Printf.sprintf "%s/%s/%s" (Fp.to_hex c.fingerprint) (Lazy.force cfg_fp)
      variant
  in
  match find_cached stats_cache key with
  | Some s -> s
  | None ->
    let fp = Fp.of_strings [ "stats"; key ] in
    let s = Store.memoize !store ~kind:"stats" ~key:fp compute in
    put_cached stats_cache key s;
    s

(* Every simulation memo key names the register-file scheme (id +
   version, via [Fingerprint.scheme]) whose organisation it models:
   two backends must never share a cache entry for the same workload.
   The classic entry points are slice-scheme configurations (baseline
   is the slice pipeline's reference point). *)
let scheme_key (s : Gpr_backend.Backend.t) =
  Fp.to_hex (Gpr_backend.Backend.fingerprint s)

let baseline (c : Compress.t) =
  let variant =
    "baseline/" ^ scheme_key (module Gpr_backend.Backend_baseline)
  in
  stats_for c variant (fun () ->
      let trace = trace_for c "plain" None in
      let occ = Compress.occupancy c c.baseline in
      Sim.run cfg ~trace ~alloc:c.baseline ~blocks_per_sm:occ.blocks_per_sm
        ~mode:Sim.Baseline)

let proposed ?(writeback_delay = 3) (c : Compress.t) threshold =
  let variant =
    Printf.sprintf "proposed/%s/%s/wb%d"
      (scheme_key (module Gpr_backend.Backend_slice))
      (Q.threshold_name threshold) writeback_delay
  in
  stats_for c variant (fun () ->
      let data = Compress.threshold_data c threshold in
      let trace =
        trace_for c
          ("quant-" ^ Q.threshold_name threshold)
          (Some (P.quantizer data.assignment))
      in
      let occ = Compress.occupancy c data.alloc_both in
      Sim.run cfg ~trace ~alloc:data.alloc_both
        ~blocks_per_sm:occ.blocks_per_sm
        ~mode:(Sim.Proposed { writeback_delay }))

let artificial (c : Compress.t) threshold =
  let variant =
    Printf.sprintf "artificial/%s/%s"
      (scheme_key (module Gpr_backend.Backend_slice))
      (Q.threshold_name threshold)
  in
  stats_for c variant (fun () ->
      let data = Compress.threshold_data c threshold in
      let trace = trace_for c "plain" None in
      let occ = Compress.occupancy c data.alloc_both in
      Sim.run cfg ~trace ~alloc:c.baseline ~blocks_per_sm:occ.blocks_per_sm
        ~mode:Sim.Baseline)

(* ------------------------------------------------------------------ *)
(* Generic scheme entry points: any registered backend through the same
   trace/occupancy/simulate plumbing the classic entries use. *)

let backend_resources (b : Gpr_backend.Backend.t) (c : Compress.t) threshold =
  let module S = (val b : Gpr_backend.Backend.Scheme) in
  let precision =
    if S.needs_precision then
      Some (Compress.threshold_data c threshold).Compress.assignment
    else None
  in
  S.analyze ~kernel:c.w.kernel ~width:c.width ~precision

let backend_occupancy (c : Compress.t) (res : Gpr_backend.Backend.resources) =
  Gpr_backend.Backend.occupancy cfg res
    ~warps_per_block:(Workload.warps_per_block c.w)
    ~shared_bytes_per_block:(Workload.shared_bytes_per_block c.w)

let backend ?writeback_delay (b : Gpr_backend.Backend.t) (c : Compress.t)
    threshold =
  let module S = (val b : Gpr_backend.Backend.Scheme) in
  let variant =
    Printf.sprintf "backend/%s/%s/wb%s" (scheme_key b)
      (Q.threshold_name threshold)
      (match writeback_delay with None -> "-" | Some d -> string_of_int d)
  in
  stats_for c variant (fun () ->
      let res = backend_resources b c threshold in
      let trace =
        if S.needs_precision then trace_quantized c threshold
        else trace_plain c
      in
      let occ = backend_occupancy c res in
      Sim.run cfg ~trace ~alloc:res.Gpr_backend.Backend.alloc
        ~blocks_per_sm:occ.Gpr_arch.Occupancy.blocks_per_sm
        ~mode:(Gpr_backend.Backend.sim_mode ?writeback_delay b res))

(* ------------------------------------------------------------------ *)
(* Energy: derived from the memoised trace and timing stats, then
   itself memoised ("energy" entries; the engine fingerprint bump to
   /6 covers the new payload kind). *)

let backend_energy ?writeback_delay (b : Gpr_backend.Backend.t)
    (c : Compress.t) threshold =
  let module S = (val b : Gpr_backend.Backend.Scheme) in
  let key =
    Printf.sprintf "energy/%s/%s/%s/%s/wb%s"
      (Fp.to_hex c.fingerprint) (Lazy.force cfg_fp) (scheme_key b)
      (Q.threshold_name threshold)
      (match writeback_delay with None -> "-" | Some d -> string_of_int d)
  in
  match find_cached energy_cache key with
  | Some r -> r
  | None ->
    let compute () =
      let stats = backend ?writeback_delay b c threshold in
      let res = backend_resources b c threshold in
      let trace =
        if S.needs_precision then trace_quantized c threshold
        else trace_plain c
      in
      (* Warp-level access counts from the functional trace; the extra
         row fetch of every split (double-fetch) placement comes from
         the timing stats. *)
      let reads = ref 0 and writes = ref 0 in
      Array.iter
        (fun (it : Gpr_exec.Trace.item) ->
          reads := !reads + List.length it.t_srcs;
          if it.t_dst <> None then incr writes)
        trace.Gpr_exec.Trace.items;
      let reads = !reads + stats.Sim.double_fetches in
      let alloc = res.Gpr_backend.Backend.alloc in
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
        if Gpr_backend.Backend.id b = "baseline" then None
        else
          let live = Gpr_analysis.Liveness.compute c.w.Workload.kernel in
          let ivs = Gpr_analysis.Liveness.intervals live in
          let points = max 1 (Gpr_analysis.Liveness.num_points live) in
          let span =
            List.fold_left
              (fun acc (_, s, e) -> acc + (e - s + 1))
              0 ivs
          in
          Some
            (float_of_int span
            /. float_of_int (points * max 1 (List.length ivs)))
      in
      let occ = backend_occupancy c res in
      Gpr_area.Energy.estimate cfg ~scheme:(Gpr_backend.Backend.id b)
        ~reads ~writes:!writes
        ~table_reads:(if S.cost.Gpr_backend.Backend.uses_indirection
                      then reads else 0)
        ~conversions:stats.Sim.conversions
        ~spill_accesses:(stats.Sim.spill_loads + stats.Sim.spill_stores)
        ~avg_slices ~gating
        ~resident_warps:occ.Gpr_arch.Occupancy.warps_per_sm
        ~pressure:alloc.Gpr_alloc.Alloc.pressure
        ~cycles:stats.Sim.cycles ()
    in
    let fp = Fp.of_strings [ "energy"; key ] in
    let r = Store.memoize !store ~kind:"energy" ~key:fp compute in
    put_cached energy_cache key r;
    r

(* ------------------------------------------------------------------ *)
(* Concurrent-kernel co-scheduling: one SM hosting a kernel *set*
   under a dispatch policy. *)

module Multi = Gpr_sim.Sim_multi

(* A kernel's seat at the co-scheduled SM: its scheme trace and
   allocation, the admission demand the scheme reports (the same demand
   its isolated occupancy is computed from), and a fixed block budget of
   [waves] waves at its isolated occupancy — so the co-scheduled run
   replays exactly the workload of [waves] isolated waves. *)
let colocate_tenant ?writeback_delay ~waves (b : Gpr_backend.Backend.t)
    (c : Compress.t) threshold =
  let module S = (val b : Gpr_backend.Backend.Scheme) in
  let res = backend_resources b c threshold in
  let trace =
    if S.needs_precision then trace_quantized c threshold else trace_plain c
  in
  let demand =
    Gpr_backend.Backend.demand cfg res
      ~warps_per_block:(Workload.warps_per_block c.Compress.w)
      ~shared_bytes_per_block:(Workload.shared_bytes_per_block c.Compress.w)
  in
  Multi.make_tenant ~waves cfg ~label:c.Compress.w.Workload.name ~trace
    ~alloc:res.Gpr_backend.Backend.alloc ~demand
    ~mode:(Gpr_backend.Backend.sim_mode ?writeback_delay b res)

let colocate ?writeback_delay ?(waves = 6) ?(policy = Multi.fifo) ?check
    (b : Gpr_backend.Backend.t) (cs : Compress.t list) threshold =
  let module P = (val policy : Multi.POLICY) in
  (* The memo key names the kernel *set* in order (dispatch is
     submission-order sensitive), the scheme, the policy, the wave count
     and the writeback override, on top of the architecture. *)
  let key =
    Printf.sprintf "coloc/%s/%s/%s/%s/w%d/wb%s"
      (String.concat "+"
         (List.map (fun (c : Compress.t) -> Fp.to_hex c.fingerprint) cs))
      (Lazy.force cfg_fp) (scheme_key b) P.id waves
      (match writeback_delay with None -> "-" | Some d -> string_of_int d)
  in
  match (check, find_cached coloc_cache key) with
  | None, Some r | Some false, Some r -> r
  | _ ->
    let compute () =
      let tenants =
        List.map
          (fun c -> colocate_tenant ?writeback_delay ~waves b c threshold)
          cs
      in
      Multi.run ?check ~policy cfg tenants
    in
    (* Self-checking runs always execute (the point is the oracle, not
       the answer) and are not persisted. *)
    let r =
      match check with
      | Some true -> compute ()
      | _ ->
        let fp = Fp.of_strings [ "coloc"; key ] in
        Store.memoize !store ~kind:"coloc" ~key:fp compute
    in
    put_cached coloc_cache key r;
    r

(* Profiling deliberately bypasses the stats memo: a trace can only be
   recorded by actually running the timing model.  The run is
   self-checking so a profile doubles as an attribution audit; the
   functional trace memo still applies. *)
let profile_backend ?writeback_delay ~profile (b : Gpr_backend.Backend.t)
    (c : Compress.t) threshold =
  let module S = (val b : Gpr_backend.Backend.Scheme) in
  let res = backend_resources b c threshold in
  let trace =
    if S.needs_precision then trace_quantized c threshold else trace_plain c
  in
  let occ = backend_occupancy c res in
  Sim.run ~check:true ~profile cfg ~trace ~alloc:res.Gpr_backend.Backend.alloc
    ~blocks_per_sm:occ.Gpr_arch.Occupancy.blocks_per_sm
    ~mode:(Gpr_backend.Backend.sim_mode ?writeback_delay b res)
