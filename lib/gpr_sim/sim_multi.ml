(* Concurrent-kernel SM timing model, and the reference engine.

   A plain list/Hashtbl/Map machine for the cycle model of [Sim.run],
   generalised over a set of tenants (kernels): instead of a fixed
   [blocks_per_sm] slot array, a dispatcher admits pending blocks under
   the combined limits of [Gpr_arch.Occupancy.fits].  The per-cycle
   pipeline (memory hierarchy, collector units, bank and indirection
   arbitration with dead-bank remapping, value converter, GTO/LRR
   issue, stall classification, idle fast-forward) is written for
   clarity, not speed.  A lone tenant ([single]) is the oracle the flat
   engine is pinned to: the differential suites and the fuzzer demand
   byte-identical stats from [Sim.run] on the same inputs.

   Warp residency: warp ids are drawn from a sorted free pool of
   [max_warps] slots, a block taking the lowest ids available.  The id
   fixes the bank swizzle and the scheduler assignment, exactly as the
   slot-based id did in the single-kernel engines (for one tenant the
   pool degenerates to the same [slot * warps_per_block + w] layout,
   including across refills).  Scoreboards live per warp, collector
   operands name (warp, arch reg), and placements come from the warp's
   own tenant allocation, so co-resident kernels can never alias. *)

open Gpr_isa.Types
module Trace = Gpr_exec.Trace
module Alloc = Gpr_alloc.Alloc
module Occ = Gpr_arch.Occupancy

type tenant = {
  t_label : string;
  t_trace : Trace.t;
  t_alloc : Alloc.t;
  t_mode : Sim.regfile_mode;
  t_demand : Occ.demand;
  t_blocks : int;
}

type tenant_stats = {
  ts_label : string;
  ts_blocks_launched : int;
  ts_peak_resident : int;
  ts_issued_slots : int;
  ts_warp_instructions : int;
  ts_thread_instructions : int;
  ts_breakdown : Gpr_obs.Stall.breakdown;
  ts_ipc : float;
  ts_issue_share : float;
}

type result = {
  r_stats : Sim.stats;
  r_tenants : tenant_stats array;
  r_policy : string;
  r_peak_resident_blocks : int;
  r_peak_resident_warps : int;
  r_co_resident_cycles : int;
  r_admissions : int;
  r_fairness : float;
}

type pending = {
  p_tenant : int;
  p_arrival : int;
  p_regs : int;
  p_warps : int;
}

module type POLICY = sig
  val id : string
  val describe : string
  val pick : free_regs:int -> last:int -> pending list -> pending option
end

module Fifo : POLICY = struct
  let id = "fifo"
  let describe = "global submission order (backfills past blocked heads)"

  let pick ~free_regs:_ ~last:_ = function
    | [] -> None
    | cands ->
      Some
        (List.fold_left
           (fun a b -> if b.p_arrival < a.p_arrival then b else a)
           (List.hd cands) (List.tl cands))
end

module Rr : POLICY = struct
  let id = "rr"
  let describe = "round-robin over kernels with a fitting head"

  (* First candidate tenant strictly after [last], cyclically. *)
  let pick ~free_regs:_ ~last cands =
    match cands with
    | [] -> None
    | _ ->
      let key c =
        if c.p_tenant > last then c.p_tenant - last
        else c.p_tenant - last + 1_000_000
      in
      Some
        (List.fold_left
           (fun a b -> if key b < key a then b else a)
           (List.hd cands) (List.tl cands))
end

module Binpack : POLICY = struct
  let id = "binpack"
  let describe =
    "pressure-aware: the head whose register demand best fills the free \
     register headroom"

  let pick ~free_regs:_ ~last:_ cands =
    match cands with
    | [] -> None
    | _ ->
      (* Candidates all fit, so "best fills" = largest register
         footprint; ties resolve in submission order. *)
      Some
        (List.fold_left
           (fun a b ->
             if
               b.p_regs > a.p_regs
               || (b.p_regs = a.p_regs && b.p_arrival < a.p_arrival)
             then b
             else a)
           (List.hd cands) (List.tl cands))
end

let fifo : (module POLICY) = (module Fifo)
let rr : (module POLICY) = (module Rr)
let binpack : (module POLICY) = (module Binpack)
let policies = [ fifo; rr; binpack ]

let policy_names =
  List.map (fun (module P : POLICY) -> P.id) policies

let find_policy name =
  List.find_opt
    (fun (module P : POLICY) -> P.id = String.lowercase_ascii name)
    policies

(* ------------------------------------------------------------------ *)

type opnd_stage = S_loc | S_fetch | S_convert | S_done

type opnd = {
  o_arch : int;
  mutable o_stage : opnd_stage;
  mutable o_banks : int list;
  o_convert : bool;
}

type wctx = {
  w_items : Trace.item array;
  mutable w_ptr : int;
  w_tenant : int;
  w_rb : rblock;       (* owning resident block *)
  w_id : int;          (* resident warp slot (bank swizzle, scheduler) *)
  w_age : int;
  mutable w_barrier : bool;
  mutable w_bars_left : int;
  mutable w_outstanding : int;
  w_scoreboard : (int, int) Hashtbl.t;
}

and rblock = {
  rb_tenant : int;
  rb_ids : int list;   (* warp slots held, ascending *)
  mutable rb_warps : wctx list;
  mutable rb_live : bool;
}

type cu = {
  c_warp : wctx;
  c_item : Trace.item;
  mutable c_ops : opnd list;
  c_mem_latency : int;
  c_unit_busy : int;
  c_issue : int;
}

module Imap = Map.Make (Int)

type event = Retire of wctx * int option

let violated fmt =
  Printf.ksprintf (fun s -> raise (Sim.Invariant_violation s)) fmt

let unit_label = function
  | Spu -> "spu"
  | Sfu -> "sfu"
  | Ldst -> "ldst"
  | Sync -> "sync"

let cause_index : Gpr_obs.Stall.cause -> int = function
  | Scoreboard -> 0
  | No_free_cu -> 1
  | Bank_conflict -> 2
  | Spill_port -> 3
  | Barrier -> 4
  | Empty -> 5

let m_admissions = Gpr_obs.Metrics.counter "sim.coloc.admissions"
let m_policy (module P : POLICY) =
  Gpr_obs.Metrics.counter ("sim.coloc.policy." ^ P.id)

let run ?(check = false) ?(faults = []) ?profile ?(policy = fifo)
    (cfg : Gpr_arch.Config.t) (tenants : tenant list) =
  let module P = (val policy : POLICY) in
  let tn = Array.of_list tenants in
  let nt = Array.length tn in
  if nt = 0 then invalid_arg "Sim_multi.run: empty tenant set";
  let tn_delay =
    Array.map
      (fun t ->
        match t.t_mode with
        | Sim.Proposed { writeback_delay } -> writeback_delay
        | Sim.Baseline | Sim.Spill _ -> 0)
      tn
  in
  let tn_proposed =
    Array.map
      (fun t -> match t.t_mode with Sim.Proposed _ -> true | _ -> false)
      tn
  in
  let tn_spilled =
    Array.map
      (fun t ->
        match t.t_mode with
        | Sim.Spill { spilled; _ } -> fun r -> Hashtbl.mem spilled r
        | Sim.Baseline | Sim.Proposed _ -> fun _ -> false)
      tn
  in
  let tn_spill_lat =
    Array.map
      (fun t ->
        match t.t_mode with Sim.Spill { latency; _ } -> latency | _ -> 0)
      tn
  in
  let any_proposed = Array.exists Fun.id tn_proposed in
  let tn_wpb = Array.map (fun t -> t.t_trace.Trace.warps_per_block) tn in
  let tn_usage =
    Array.mapi
      (fun k t -> Occ.block_usage cfg t.t_demand ~warps_per_block:tn_wpb.(k))
      tn
  in
  let spill_free = ref 0 in
  let spill_loads = ref 0 and spill_stores = ref 0 in

  (* --- Per-tenant (block, warp) streams. --- *)
  let tn_streams =
    Array.map
      (fun t ->
        let streams = Hashtbl.create 256 in
        Array.iter
          (fun (it : Trace.item) ->
            let key = (it.Trace.t_block_id, it.Trace.t_warp) in
            let l = try Hashtbl.find streams key with Not_found -> ref [] in
            if not (Hashtbl.mem streams key) then Hashtbl.replace streams key l;
            l := it :: !l)
          t.t_trace.Trace.items;
        streams)
      tn
  in
  let stream_of k block warp =
    match Hashtbl.find_opt tn_streams.(k) (block, warp) with
    | Some l -> Array.of_list (List.rev !l)
    | None -> [||]
  in

  (* --- Cross-kernel pending queues, stamped in submission order
     (tenant-major: kernel 1's blocks before kernel 2's).  Each tenant
     feeds [t_blocks] blocks round-robin from its grid, exactly as the
     single-kernel feeder does. --- *)
  let queues =
    Array.map
      (fun t ->
        ref
          (List.init
             (max 1 t.t_blocks)
             (fun i -> i mod t.t_trace.Trace.num_blocks)))
      tn
  in
  let arrival_base = Array.make nt 0 in
  let _ =
    Array.fold_left
      (fun (k, off) t ->
        arrival_base.(k) <- off;
        (k + 1, off + max 1 t.t_blocks))
      (0, 0) tn
  in
  let consumed = Array.make nt 0 in

  (* --- Memory hierarchy (shared between tenants). --- *)
  let l1 = Cache.create ~capacity_bytes:cfg.l1_bytes ~line_bytes:cfg.l1_line_bytes ~assoc:4 in
  let tex = Cache.create ~capacity_bytes:cfg.tex_bytes ~line_bytes:cfg.l1_line_bytes ~assoc:4 in
  let l2 =
    Cache.create ~capacity_bytes:(cfg.l2_bytes / cfg.num_sms)
      ~line_bytes:cfg.l1_line_bytes ~assoc:8
  in
  let tex_accesses = ref 0 in
  let dram_free = ref 0 in
  let l2_free = ref 0 in

  let mem_latency now (it : Trace.item) =
    match it.Trace.t_mem with
    | None -> (cfg.spu_latency, 1)
    | Some m ->
      (match m.Trace.m_space with
       | Param -> (cfg.spu_latency * 2, 1)
       | Shared ->
         let counts = Array.make 32 0 in
         Array.iter
           (fun a ->
              let b = (a / 4) mod 32 in
              counts.(b) <- counts.(b) + 1)
           m.Trace.m_addresses;
         let factor = Array.fold_left max 1 counts in
         (cfg.shared_latency + factor - 1, factor)
       | Global | Texture ->
         let lines = Hashtbl.create 8 in
         Array.iter
           (fun a -> Hashtbl.replace lines (a / cfg.l1_line_bytes) ())
           m.Trace.m_addresses;
         let ntxn = max 1 (Hashtbl.length lines) in
         let worst = ref 0 in
         Hashtbl.iter
           (fun line () ->
              let addr = line * cfg.l1_line_bytes in
              let l1_hit =
                if m.Trace.m_space = Texture then begin
                  incr tex_accesses;
                  Cache.access tex addr
                end
                else Cache.access l1 addr
              in
              let lat =
                if l1_hit then cfg.l1_hit_latency
                else if Cache.access l2 addr then begin
                  l2_free := max !l2_free now + cfg.l2_line_interval;
                  (!l2_free - now) + cfg.l2_hit_latency
                end
                else begin
                  l2_free := max !l2_free now + cfg.l2_line_interval;
                  dram_free := max !dram_free now + cfg.dram_line_interval;
                  (!dram_free - now) + cfg.dram_latency
                end
              in
              worst := max !worst lat)
           lines;
         (!worst + ntxn - 1, ntxn))
  in

  (* --- Residency state. --- *)
  let age_counter = ref 0 in
  let active_warps : wctx list ref = ref [] in
  let resident : rblock list ref = ref [] in
  let used = ref Occ.no_usage in
  let free_ids = ref (List.init cfg.max_warps Fun.id) in
  let take_ids n =
    let rec go n acc ids =
      if n = 0 then (List.rev acc, ids)
      else
        match ids with
        | [] ->
          (* Unreachable: admission keeps [u_warps <= max_warps]. *)
          violated "warp-slot pool exhausted"
        | id :: rest -> go (n - 1) (id :: acc) rest
    in
    let taken, rest = go n [] !free_ids in
    free_ids := rest;
    taken
  in
  let release_ids ids = free_ids := List.merge compare ids !free_ids in
  let sub_usage (a : Occ.usage) (b : Occ.usage) =
    {
      Occ.u_registers = a.Occ.u_registers - b.Occ.u_registers;
      u_shared_bytes = a.Occ.u_shared_bytes - b.Occ.u_shared_bytes;
      u_warps = a.Occ.u_warps - b.Occ.u_warps;
      u_blocks = a.Occ.u_blocks - b.Occ.u_blocks;
    }
  in

  let warp_done w =
    w.w_ptr >= Array.length w.w_items && w.w_outstanding = 0
  in

  (* Stats. *)
  let double_fetches = ref 0 in
  let conversions = ref 0 in
  let issued_slots = ref 0 in
  let stall_scoreboard = ref 0 in
  let stall_no_cu = ref 0 in
  let stall_bank_conflict = ref 0 in
  let stall_spill_port = ref 0 in
  let stall_barrier = ref 0 in
  let stall_empty = ref 0 in
  let bank_conflicts = ref 0 in
  let bump cause n =
    match (cause : Gpr_obs.Stall.cause) with
    | Scoreboard -> stall_scoreboard := !stall_scoreboard + n
    | No_free_cu -> stall_no_cu := !stall_no_cu + n
    | Bank_conflict -> stall_bank_conflict := !stall_bank_conflict + n
    | Spill_port -> stall_spill_port := !stall_spill_port + n
    | Barrier -> stall_barrier := !stall_barrier + n
    | Empty -> stall_empty := !stall_empty + n
  in
  let idle_cycles = ref 0 in
  let issued_warp_instrs = ref 0 in
  let executed_threads = ref 0 in
  let issued_nonsync = ref 0 in
  let retired = ref 0 in

  (* Per-tenant attribution. *)
  let t_issued = Array.make nt 0 in
  let t_threads = Array.make nt 0 in
  let t_blocks_launched = Array.make nt 0 in
  let t_cur = Array.make nt 0 in
  let t_peak = Array.make nt 0 in
  let t_stalls = Array.make_matrix nt 6 0 in
  let tbump k cause n =
    t_stalls.(k).(cause_index cause) <- t_stalls.(k).(cause_index cause) + n
  in

  (* Co-residency accounting: time-weighted over the spans between
     residency changes. *)
  let cycle = ref 0 in
  let peak_blocks = ref 0 and peak_warps = ref 0 in
  let admissions = ref 0 in
  let co_cycles = ref 0 in
  let co_since = ref 0 in
  let was_co = ref false in
  let residency_changed () =
    let now = !cycle in
    if !was_co then co_cycles := !co_cycles + (now - !co_since);
    co_since := now;
    let seen = Array.make nt false in
    List.iter (fun rb -> seen.(rb.rb_tenant) <- true) !resident;
    let distinct = Array.fold_left (fun a b -> if b then a + 1 else a) 0 seen in
    was_co := distinct >= 2
  in

  let expected_per_tenant =
    if not check then Array.make nt 0
    else
      Array.init nt (fun k ->
          List.fold_left
            (fun acc b ->
              let per_block = ref 0 in
              for w = 0 to tn_wpb.(k) - 1 do
                per_block := !per_block + Array.length (stream_of k b w)
              done;
              acc + !per_block)
            0
            !(queues.(k)))
  in

  (match profile with
   | Some ch ->
     Array.iteri
       (fun k t ->
         Gpr_obs.Chrome.name_process ch ~pid:k
           (Printf.sprintf "kernel %s" t.t_label))
       tn;
     Gpr_obs.Chrome.name_process ch ~pid:nt "register-file banks";
     for b = 0 to cfg.register_banks - 1 do
       Gpr_obs.Chrome.name_thread ch ~pid:nt ~tid:b
         (Printf.sprintf "bank %d" b)
     done
   | None -> ());

  (* --- Dispatcher. --- *)
  let last_admit = ref (-1) in
  let launch_block k block_id =
    let wpb = tn_wpb.(k) in
    let ids = Array.of_list (take_ids wpb) in
    let rb =
      { rb_tenant = k; rb_ids = Array.to_list ids; rb_warps = []; rb_live = true }
    in
    let warps =
      List.init wpb (fun w ->
          incr age_counter;
          let items = stream_of k block_id w in
          let bars =
            Array.fold_left
              (fun acc (it : Trace.item) ->
                 if it.Trace.t_unit = Sync then acc + 1 else acc)
              0 items
          in
          {
            w_items = items;
            w_ptr = 0;
            w_tenant = k;
            w_rb = rb;
            w_id = ids.(w);
            w_age = !age_counter;
            w_barrier = false;
            w_bars_left = bars;
            w_outstanding = 0;
            w_scoreboard = Hashtbl.create 16;
          })
    in
    rb.rb_warps <- warps;
    resident := !resident @ [ rb ];
    active_warps := !active_warps @ warps;
    (match profile with
     | Some ch ->
       List.iter
         (fun w ->
           Gpr_obs.Chrome.name_thread ch ~pid:k ~tid:w.w_id
             (Printf.sprintf "warp %d" w.w_id))
         warps
     | None -> ());
    rb
  in
  let rec retire_block rb =
    rb.rb_live <- false;
    active_warps :=
      List.filter (fun w -> not (List.memq w rb.rb_warps)) !active_warps;
    resident := List.filter (fun r -> r != rb) !resident;
    release_ids rb.rb_ids;
    used := sub_usage !used tn_usage.(rb.rb_tenant);
    t_cur.(rb.rb_tenant) <- t_cur.(rb.rb_tenant) - 1;
    residency_changed ();
    dispatch ()

  and dispatch () =
    let cands =
      let acc = ref [] in
      for k = nt - 1 downto 0 do
        match !(queues.(k)) with
        | [] -> ()
        | _ :: _ when Occ.fits cfg !used tn_usage.(k) ->
          acc :=
            {
              p_tenant = k;
              p_arrival = arrival_base.(k) + consumed.(k);
              p_regs = tn_usage.(k).Occ.u_registers;
              p_warps = tn_wpb.(k);
            }
            :: !acc
        | _ :: _ -> ()
      done;
      !acc
    in
    match P.pick ~free_regs:(cfg.registers_per_sm - (!used).Occ.u_registers)
            ~last:!last_admit cands
    with
    | None ->
      if
        !resident = []
        && cands = []
        && Array.exists (fun q -> !q <> []) queues
      then
        invalid_arg
          "Sim_multi: a pending block exceeds SM resources even on an empty SM"
    | Some c ->
      let k = c.p_tenant in
      let block_id, rest =
        match !(queues.(k)) with
        | b :: rest -> (b, rest)
        | [] -> violated "dispatcher picked an empty queue"
      in
      queues.(k) := rest;
      consumed.(k) <- consumed.(k) + 1;
      last_admit := k;
      used := Occ.add_usage !used tn_usage.(k);
      let rb = launch_block k block_id in
      incr admissions;
      Gpr_obs.Metrics.incr m_admissions;
      Gpr_obs.Metrics.incr (m_policy policy);
      t_blocks_launched.(k) <- t_blocks_launched.(k) + 1;
      t_cur.(k) <- t_cur.(k) + 1;
      if t_cur.(k) > t_peak.(k) then t_peak.(k) <- t_cur.(k);
      if (!used).Occ.u_blocks > !peak_blocks then
        peak_blocks := (!used).Occ.u_blocks;
      if (!used).Occ.u_warps > !peak_warps then
        peak_warps := (!used).Occ.u_warps;
      residency_changed ();
      (* A block whose warps have empty streams retires immediately. *)
      if List.for_all warp_done rb.rb_warps then retire_block rb;
      dispatch ()
  in
  dispatch ();

  (* --- Pipeline state. --- *)
  let cus : cu option array = Array.make cfg.operand_collectors None in
  let events : event list Imap.t ref = ref Imap.empty in
  let schedule cycle ev =
    events :=
      Imap.update cycle
        (function None -> Some [ ev ] | Some l -> Some (ev :: l))
        !events
  in
  let wb_used : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let alloc_wb_slot earliest =
    let c = ref earliest in
    let rec go () =
      let used = try Hashtbl.find wb_used !c with Not_found -> 0 in
      if used < cfg.writeback_width then begin
        Hashtbl.replace wb_used !c (used + 1)
      end
      else begin
        incr c;
        go ()
      end
    in
    go ();
    !c
  in

  let placement_of k arch = Alloc.lookup tn.(k).t_alloc arch in
  (* Dead register banks are spare-column remapped: their fetch traffic
     is served by the nearest healthy bank (identity map when no fault
     names a bank). *)
  let bank_redirect =
    Gpr_regfile.Fault.bank_redirect
      (Gpr_regfile.Fault.compile ~banks:cfg.register_banks ~regs:64 faults)
  in
  let rbank x = bank_redirect.(x mod cfg.register_banks) in
  let fetch_banks warp arch =
    match placement_of warp.w_tenant arch with
    | None -> [ rbank (arch + warp.w_id) ]
    | Some p ->
      if tn_proposed.(warp.w_tenant) && Alloc.is_split p then
        [ rbank (p.Alloc.reg0 + warp.w_id); rbank (p.Alloc.reg1 + warp.w_id) ]
      else [ rbank (p.Alloc.reg0 + warp.w_id) ]
  in
  let needs_convert k arch =
    tn_proposed.(k)
    &&
    match placement_of k arch with
    | Some p -> p.Alloc.is_float && p.Alloc.slices < 8
    | None -> false
  in

  (* Exec units. *)
  let spu_free = [| 0; 0 |] in
  let sfu_free = ref 0 in
  let ldst_free = ref 0 in

  let finished () =
    Array.for_all (fun q -> !q = []) queues && !resident = []
  in

  let retire_block_if_done rb =
    if rb.rb_live && List.for_all warp_done rb.rb_warps then retire_block rb
  in

  (* GTO state per scheduler. *)
  let last_issued = Array.make cfg.warp_schedulers None in
  let rr_ptr = Array.make cfg.warp_schedulers 0 in
  (* [None] = issued; [Some (cause, tenant)] = stalled, with the blamed
     kernel (if any) kept for the fast-forward replay's attribution. *)
  let slot_cause : (Gpr_obs.Stall.cause * int option) option array =
    Array.make cfg.warp_schedulers None
  in

  let scoreboard_ready w (it : Trace.item) =
    let pending r = Hashtbl.mem w.w_scoreboard r in
    (not (List.exists pending it.Trace.t_srcs))
    && (match it.Trace.t_dst with Some d -> not (pending d) | None -> true)
  in

  let free_cu () =
    let rec go i =
      if i >= Array.length cus then None
      else match cus.(i) with None -> Some i | Some _ -> go (i + 1)
    in
    go 0
  in

  let can_issue w =
    (not w.w_barrier)
    && w.w_ptr < Array.length w.w_items
    &&
    let it = w.w_items.(w.w_ptr) in
    scoreboard_ready w it
    &&
    if it.Trace.t_unit = Sync then w.w_outstanding = 0
    else free_cu () <> None
  in
  let bank_conflict_cycle = ref false in

  (* Stall classification: identical to the single-kernel engines, but
     the blamed warp also names the kernel charged for the slot.
     [Empty] slots have no owner. *)
  let classify_stall mine : Gpr_obs.Stall.cause * int option =
    let candidates =
      List.filter
        (fun w -> w.w_barrier || w.w_ptr < Array.length w.w_items)
        mine
    in
    match candidates with
    | [] -> (Empty, None)
    | w0 :: rest ->
      let w =
        List.fold_left (fun a b -> if b.w_age < a.w_age then b else a) w0 rest
      in
      let owner = Some w.w_tenant in
      if w.w_barrier then (Barrier, owner)
      else begin
        let it = w.w_items.(w.w_ptr) in
        if not (scoreboard_ready w it) then begin
          let pending r = Hashtbl.mem w.w_scoreboard r in
          let is_spilled = tn_spilled.(w.w_tenant) in
          let blocked_on_spill =
            List.exists (fun r -> pending r && is_spilled r) it.Trace.t_srcs
            || (match it.Trace.t_dst with
               | Some d -> pending d && is_spilled d
               | None -> false)
          in
          if blocked_on_spill then (Spill_port, owner)
          else (Scoreboard, owner)
        end
        else if it.Trace.t_unit = Sync then (Barrier, owner)
        else if !bank_conflict_cycle then (Bank_conflict, owner)
        else (No_free_cu, owner)
      end
  in

  let do_issue w =
    let it = w.w_items.(w.w_ptr) in
    if check && not (scoreboard_ready w it) then
      violated "scoreboard: warp %d issued pc %d with a pending hazard"
        w.w_id it.Trace.t_pc;
    w.w_ptr <- w.w_ptr + 1;
    issued_warp_instrs := !issued_warp_instrs + 1;
    executed_threads := !executed_threads + it.Trace.t_active;
    t_issued.(w.w_tenant) <- t_issued.(w.w_tenant) + 1;
    t_threads.(w.w_tenant) <- t_threads.(w.w_tenant) + it.Trace.t_active;
    if it.Trace.t_unit = Sync then begin
      (match profile with
       | Some ch ->
         Gpr_obs.Chrome.instant ch ~name:"barrier" ~cat:"sync"
           ~pid:w.w_tenant ~tid:w.w_id ~ts_us:(float_of_int !cycle)
           ~args:[ ("pc", Gpr_obs.Json.Int it.Trace.t_pc) ] ()
       | None -> ());
      w.w_bars_left <- w.w_bars_left - 1;
      w.w_barrier <- true;
      let rb = w.w_rb in
      if not rb.rb_live then w.w_barrier <- false
      else begin
        let all_arrived =
          List.for_all
            (fun x -> x.w_barrier || x.w_bars_left = 0)
            rb.rb_warps
        in
        if all_arrived then
          List.iter (fun x -> x.w_barrier <- false) rb.rb_warps
      end
    end
    else begin
      incr issued_nonsync;
      let slot = Option.get (free_cu ()) in
      let srcs = List.sort_uniq compare it.Trace.t_srcs in
      let is_proposed = tn_proposed.(w.w_tenant) in
      let is_spilled = tn_spilled.(w.w_tenant) in
      let spill_latency = tn_spill_lat.(w.w_tenant) in
      let ops =
        List.map
          (fun arch ->
             let banks = fetch_banks w arch in
             if List.length banks > 1 then incr double_fetches;
             {
               o_arch = arch;
               o_stage = (if is_proposed then S_loc else S_fetch);
               o_banks = banks;
               o_convert = needs_convert w.w_tenant arch;
             })
          srcs
      in
      (match it.Trace.t_dst with
       | Some d ->
         Hashtbl.replace w.w_scoreboard d
           (1 + Option.value ~default:0 (Hashtbl.find_opt w.w_scoreboard d))
       | None -> ());
      w.w_outstanding <- w.w_outstanding + 1;
      let lat, busy =
        match it.Trace.t_unit with
        | Spu -> (cfg.spu_latency, 1)
        | Sfu -> (cfg.sfu_latency, 1)
        | Ldst -> mem_latency !cycle it
        | Sync -> (0, 1)
      in
      let lat =
        match List.length (List.filter is_spilled srcs) with
        | 0 -> lat
        | n ->
          spill_loads := !spill_loads + n;
          spill_free := max !spill_free !cycle + n;
          lat + spill_latency + (!spill_free - !cycle - 1)
      in
      cus.(slot) <-
        Some { c_warp = w; c_item = it; c_ops = ops; c_mem_latency = lat;
               c_unit_busy = busy; c_issue = !cycle }
    end
  in

  (* ---------------- main loop ---------------- *)
  let max_cycles = 200_000_000 in
  while (not (finished ())) && !cycle < max_cycles do
    let now = !cycle in
    let progress = ref false in

    (* 1. Retire events. *)
    (match Imap.find_opt now !events with
     | Some evs ->
       progress := true;
       List.iter
         (fun (Retire (w, dst)) ->
            (match dst with
             | Some d ->
               (match Hashtbl.find_opt w.w_scoreboard d with
                | Some 1 -> Hashtbl.remove w.w_scoreboard d
                | Some n -> Hashtbl.replace w.w_scoreboard d (n - 1)
                | None -> ())
             | None -> ());
            w.w_outstanding <- w.w_outstanding - 1;
            incr retired;
            if check && w.w_outstanding < 0 then
              violated "warp %d retired more instructions than it issued" w.w_id;
            if warp_done w then retire_block_if_done w.w_rb)
         evs;
       events := Imap.remove now !events
     | None -> ());
    Hashtbl.remove wb_used now;

    (* 2. Dispatch ready collector units to execution units. *)
    Array.iteri
      (fun i cu_opt ->
         match cu_opt with
         | Some cu when List.for_all (fun o -> o.o_stage = S_done) cu.c_ops ->
           let unit_ok =
             match cu.c_item.Trace.t_unit with
             | Spu ->
               if spu_free.(0) <= now then (spu_free.(0) <- now + 2; true)
               else if spu_free.(1) <= now then (spu_free.(1) <- now + 2; true)
               else false
             | Sfu ->
               if !sfu_free <= now then (sfu_free := now + 8; true) else false
             | Ldst ->
               if !ldst_free <= now then begin
                 ldst_free := now + max 2 cu.c_unit_busy;
                 true
               end
               else false
             | Sync -> true
           in
           if unit_ok then begin
             progress := true;
             let complete = now + cu.c_mem_latency in
             let k = cu.c_warp.w_tenant in
             let retire_cycle =
               match cu.c_item.Trace.t_dst with
               | Some d ->
                 let wb = alloc_wb_slot complete in
                 let spill_extra =
                   if tn_spilled.(k) d then begin
                     incr spill_stores;
                     spill_free := max !spill_free wb + 1;
                     tn_spill_lat.(k) + (!spill_free - wb - 1)
                   end
                   else 0
                 in
                 wb + tn_delay.(k) + spill_extra
               | None -> complete
             in
             let retire_cycle = max (now + 1) retire_cycle in
             schedule retire_cycle (Retire (cu.c_warp, cu.c_item.Trace.t_dst));
             (match profile with
              | Some ch ->
                Gpr_obs.Chrome.complete ch
                  ~name:(unit_label cu.c_item.Trace.t_unit)
                  ~cat:"issue" ~pid:k ~tid:cu.c_warp.w_id
                  ~ts_us:(float_of_int cu.c_issue)
                  ~dur_us:(float_of_int (max 1 (retire_cycle - cu.c_issue)))
                  ~args:
                    [
                      ("pc", Gpr_obs.Json.Int cu.c_item.Trace.t_pc);
                      ("active", Gpr_obs.Json.Int cu.c_item.Trace.t_active);
                    ]
                  ()
              | None -> ());
             cus.(i) <- None
           end
         | _ -> ())
      cus;

    (* 3. Value converter: up to 6 narrow-float operands per cycle. *)
    let vc_slots = ref 6 in
    Array.iter
      (fun cu_opt ->
         match cu_opt with
         | Some cu ->
           List.iter
             (fun o ->
                if o.o_stage = S_convert && !vc_slots > 0 then begin
                  decr vc_slots;
                  incr conversions;
                  o.o_stage <- S_done;
                  progress := true
                end)
             cu.c_ops
         | None -> ())
      cus;

    (* 4. Register-fetch arbitration. *)
    bank_conflict_cycle := false;
    let bank_used = Array.make cfg.register_banks false in
    Array.iter
      (fun cu_opt ->
         match cu_opt with
         | Some cu ->
           let granted = ref false in
           List.iter
             (fun o ->
                if (not !granted) && o.o_stage = S_fetch then
                  match o.o_banks with
                  | b :: rest when not bank_used.(b) ->
                    bank_used.(b) <- true;
                    granted := true;
                    progress := true;
                    o.o_banks <- rest;
                    if rest = [] then
                      o.o_stage <- (if o.o_convert then S_convert else S_done)
                  | b :: _ ->
                    bank_conflict_cycle := true;
                    incr bank_conflicts;
                    (match profile with
                     | Some ch ->
                       Gpr_obs.Chrome.instant ch ~name:"bank-conflict"
                         ~cat:"regfile" ~pid:nt ~tid:b
                         ~ts_us:(float_of_int now)
                         ~args:
                           [
                             ("warp", Gpr_obs.Json.Int cu.c_warp.w_id);
                             ("reg", Gpr_obs.Json.Int o.o_arch);
                           ]
                         ()
                     | None -> ())
                  | [] -> ())
             cu.c_ops
         | None -> ())
      cus;

    (* 5. Source indirection-table arbitration (proposed tenants only:
       only their operands ever sit in [S_loc]). *)
    if any_proposed then begin
      let tbl_used = Array.make cfg.register_banks false in
      Array.iter
        (fun cu_opt ->
           match cu_opt with
           | Some cu ->
             List.iter
               (fun o ->
                  if o.o_stage = S_loc then begin
                    let b = o.o_arch mod cfg.register_banks in
                    if not tbl_used.(b) then begin
                      tbl_used.(b) <- true;
                      o.o_stage <- S_fetch;
                      progress := true
                    end
                  end)
               cu.c_ops
           | None -> ())
        cus
    end;

    (* 6. Issue. *)
    for sched = 0 to cfg.warp_schedulers - 1 do
      let mine =
        List.filter (fun w -> w.w_id mod cfg.warp_schedulers = sched)
          !active_warps
      in
      let pick =
        match cfg.scheduler with
        | Gpr_arch.Config.Gto ->
          let greedy =
            match last_issued.(sched) with
            | Some w when List.memq w mine && can_issue w -> Some w
            | _ -> None
          in
          (match greedy with
           | Some w -> Some w
           | None ->
             List.filter can_issue mine
             |> List.sort (fun a b -> compare a.w_age b.w_age)
             |> function [] -> None | w :: _ -> Some w)
        | Gpr_arch.Config.Lrr ->
          let n = List.length mine in
          if n = 0 then None
          else begin
            let arr = Array.of_list mine in
            let start = rr_ptr.(sched) mod n in
            let rec go k =
              if k >= n then None
              else
                let w = arr.((start + k) mod n) in
                if can_issue w then begin
                  rr_ptr.(sched) <- start + k + 1;
                  Some w
                end
                else go (k + 1)
            in
            go 0
          end
      in
      match pick with
      | Some w ->
        progress := true;
        last_issued.(sched) <- Some w;
        slot_cause.(sched) <- None;
        incr issued_slots;
        do_issue w
      | None ->
        last_issued.(sched) <- None;
        let cause, owner = classify_stall mine in
        slot_cause.(sched) <- Some (cause, owner);
        bump cause 1;
        (match owner with Some k -> tbump k cause 1 | None -> ())
    done;

    if not !progress then begin
      incr idle_cycles;
      match Imap.min_binding_opt !events with
      | Some (c, _) when c > now + 1 ->
        idle_cycles := !idle_cycles + (c - now - 1);
        Array.iter
          (function
            | Some (cause, owner) ->
              bump cause (c - now - 1);
              (match owner with
               | Some k -> tbump k cause (c - now - 1)
               | None -> ())
            | None -> ())
          slot_cause;
        cycle := c
      | _ -> incr cycle
    end
    else incr cycle;

    if !cycle land 0xfff = 0 then
      List.iter retire_block_if_done !resident
  done;

  List.iter retire_block_if_done !resident;

  (* Close the co-residency span and pad the degenerate all-empty run,
     mirroring the single-kernel engines' one-cycle clamp. *)
  if !was_co then co_cycles := !co_cycles + (!cycle - !co_since);
  if !cycle = 0 then stall_empty := !stall_empty + cfg.warp_schedulers;

  if check then begin
    if not (finished ()) then
      violated "simulation hit the %d-cycle bailout without draining"
        max_cycles;
    let attributed =
      !issued_slots + !stall_scoreboard + !stall_no_cu
      + !stall_bank_conflict + !stall_spill_port + !stall_barrier
      + !stall_empty
    in
    let slots = max 1 !cycle * cfg.warp_schedulers in
    if attributed <> slots then
      violated
        "stall attribution: %d slots classified over %d cycles x %d \
         schedulers (= %d slots)"
        attributed (max 1 !cycle) cfg.warp_schedulers slots;
    if !issued_slots <> !issued_warp_instrs then
      violated "stall attribution: %d issued slots but %d warp instructions"
        !issued_slots !issued_warp_instrs;
    if !retired <> !issued_nonsync then
      violated "conservation: issued %d non-sync instructions but retired %d"
        !issued_nonsync !retired;
    if !executed_threads > 32 * !issued_warp_instrs then
      violated "executed %d thread instructions from %d warp issues"
        !executed_threads !issued_warp_instrs;
    (* Per-kernel identities: each tenant replays exactly the warp
       instructions of the blocks it was fed, and the per-kernel slot
       attribution tiles the aggregate (Empty slots are unowned). *)
    for k = 0 to nt - 1 do
      if t_issued.(k) <> expected_per_tenant.(k) then
        violated
          "conservation (%s): issued %d warp instructions, its blocks hold %d"
          tn.(k).t_label t_issued.(k) expected_per_tenant.(k)
    done;
    if Array.fold_left ( + ) 0 t_issued <> !issued_slots then
      violated "per-kernel issued slots do not sum to the aggregate";
    let owned = ref 0 in
    Array.iter (fun row -> Array.iter (fun n -> owned := !owned + n) row)
      t_stalls;
    let stalls_total =
      !stall_scoreboard + !stall_no_cu + !stall_bank_conflict
      + !stall_spill_port + !stall_barrier
    in
    if !owned <> stalls_total then
      violated
        "per-kernel stall attribution: %d owned slots but %d non-empty stalls"
        !owned stalls_total
  end;

  let cycles = max 1 !cycle in
  let sm_ipc = float_of_int !executed_threads /. float_of_int cycles in
  let stats : Sim.stats =
    {
      cycles;
      thread_instructions = !executed_threads;
      warp_instructions = !issued_warp_instrs;
      sm_ipc;
      gpu_ipc = sm_ipc *. float_of_int cfg.num_sms;
      issued_per_cycle =
        float_of_int !issued_warp_instrs /. float_of_int cycles;
      l1_hit_rate = Cache.hit_rate l1;
      tex_hit_rate = Cache.hit_rate tex;
      l2_hit_rate = Cache.hit_rate l2;
      tex_accesses = !tex_accesses;
      double_fetches = !double_fetches;
      conversions = !conversions;
      issued_slots = !issued_slots;
      stall_scoreboard = !stall_scoreboard;
      stall_no_cu = !stall_no_cu;
      stall_bank_conflict = !stall_bank_conflict;
      stall_spill_port = !stall_spill_port;
      stall_barrier = !stall_barrier;
      stall_empty = !stall_empty;
      bank_conflicts = !bank_conflicts;
      idle_cycles = !idle_cycles;
      spill_loads = !spill_loads;
      spill_stores = !spill_stores;
    }
  in
  let total_issued = !issued_slots in
  let tenants_stats =
    Array.init nt (fun k ->
        {
          ts_label = tn.(k).t_label;
          ts_blocks_launched = t_blocks_launched.(k);
          ts_peak_resident = t_peak.(k);
          ts_issued_slots = t_issued.(k);
          ts_warp_instructions = t_issued.(k);
          ts_thread_instructions = t_threads.(k);
          ts_breakdown =
            {
              Gpr_obs.Stall.bd_issued = t_issued.(k);
              bd_stalls =
                List.map
                  (fun c -> (c, t_stalls.(k).(cause_index c)))
                  Gpr_obs.Stall.all;
            };
          ts_ipc = float_of_int t_threads.(k) /. float_of_int cycles;
          ts_issue_share =
            (if total_issued = 0 then 0.0
             else float_of_int t_issued.(k) /. float_of_int total_issued);
        })
  in
  {
    r_stats = stats;
    r_tenants = tenants_stats;
    r_policy = P.id;
    r_peak_resident_blocks = !peak_blocks;
    r_peak_resident_warps = !peak_warps;
    r_co_resident_cycles = !co_cycles;
    r_admissions = !admissions;
    r_fairness =
      Gpr_obs.Fair.jain
        (Array.to_list (Array.map float_of_int t_issued));
  }

let make_tenant ?(waves = 6) cfg ~label ~trace ~alloc ~demand ~mode =
  let occ =
    Occ.of_demand cfg demand ~warps_per_block:trace.Trace.warps_per_block
  in
  {
    t_label = label;
    t_trace = trace;
    t_alloc = alloc;
    t_mode = mode;
    t_demand = demand;
    t_blocks = waves * occ.Occ.blocks_per_sm;
  }

let single ?check ?waves ?faults cfg ~trace ~alloc ~demand ~mode =
  let t = make_tenant ?waves cfg ~label:"kernel" ~trace ~alloc ~demand ~mode in
  (run ?check ?faults cfg [ t ]).r_stats
