(** Concurrent-kernel SM timing model.

    One SM hosts resident thread blocks from {e multiple kernels}
    simultaneously: each tenant carries its own trace, allocation and
    register-file mode, the block dispatcher refills freed capacity
    from the cross-kernel pending queues under the combined
    register + shared-memory (including spill-slot) limits of
    {!Gpr_arch.Occupancy.fits}, and every per-warp structure
    (scoreboard, collector operands, bank swizzles) is keyed by the
    warp's resident slot, so kernels never alias registers.

    The cycle model is {!Sim.run}'s — same memory hierarchy,
    collector/bank/writeback structure, GTO/LRR issue, stall taxonomy,
    idle fast-forward and dead-bank remapping — written as a plain
    list/Hashtbl machine and generalised over tenants.  This engine is
    the reference the flat engine is pinned to: on a lone tenant
    ({!single}) it is byte-identical to {!Sim.run} (pinned by the
    differential suites in test/test_sim.ml, test/test_multi.ml and
    test/test_faults.ml, and by the fuzzer's obs and coloc stages).

    The shared structures are genuinely shared between tenants: L1/tex/
    L2 caches, DRAM/L2 bandwidth, collector units, execution units, the
    writeback bus and the single spill port, so co-resident kernels
    interfere exactly where the hardware would make them. *)

type tenant = {
  t_label : string;  (** kernel name, for stats and Chrome lanes *)
  t_trace : Gpr_exec.Trace.t;
  t_alloc : Gpr_alloc.Alloc.t;
  t_mode : Sim.regfile_mode;
  t_demand : Gpr_arch.Occupancy.demand;
      (** per-block admission footprint as the scheme reports it
          (registers at {!Gpr_arch.Config.registers_per_block}
          granularity; shared bytes including scheme spill slots) *)
  t_blocks : int;
      (** blocks fed to this SM (the workload), drawn round-robin from
          the tenant's grid as in {!Sim.run} *)
}

(** Per-kernel share of the co-scheduled run. *)
type tenant_stats = {
  ts_label : string;
  ts_blocks_launched : int;
  ts_peak_resident : int;   (** most blocks of this kernel co-resident *)
  ts_issued_slots : int;
  ts_warp_instructions : int;
  ts_thread_instructions : int;
  ts_breakdown : Gpr_obs.Stall.breakdown;
      (** issue/stall slots attributed to this kernel's warps ([Empty]
          slots have no owner and stay aggregate-only) *)
  ts_ipc : float;           (** thread instructions / total cycles *)
  ts_issue_share : float;   (** fraction of all issued slots *)
}

type result = {
  r_stats : Sim.stats;  (** aggregate, same shape as a single-kernel run *)
  r_tenants : tenant_stats array;
  r_policy : string;
  r_peak_resident_blocks : int;  (** most blocks co-resident, any kernel *)
  r_peak_resident_warps : int;
  r_co_resident_cycles : int;
      (** cycles with blocks of >= 2 distinct kernels resident *)
  r_admissions : int;  (** blocks launched across all tenants *)
  r_fairness : float;
      (** Jain index over per-kernel issued-slot counts: 1 = perfectly
          even, 1/n = one kernel monopolised the SM *)
}

(** A pending head block the dispatcher could admit right now.
    Candidates handed to a policy all {e fit} the free resources and
    arrive in global submission order. *)
type pending = {
  p_tenant : int;
  p_arrival : int;  (** global submission stamp (tenant-major) *)
  p_regs : int;     (** register footprint of the block *)
  p_warps : int;
}

(** Block-dispatch policy: pick which fitting pending block fills the
    freed capacity.  [free_regs] is the SM's current register headroom;
    [last] is the tenant admitted most recently (-1 initially).
    Policies are stateless; returning [None] on a non-empty candidate
    list stalls dispatch until the next free-up. *)
module type POLICY = sig
  val id : string
  val describe : string
  val pick : free_regs:int -> last:int -> pending list -> pending option
end

val fifo : (module POLICY)
(** Global submission order (backfilling past heads that do not fit). *)

val rr : (module POLICY)
(** Round-robin over kernels with a fitting head. *)

val binpack : (module POLICY)
(** Pressure-aware: the fitting head whose register demand best fills
    the free register headroom; ties in submission order. *)

val policies : (module POLICY) list
val policy_names : string list
val find_policy : string -> (module POLICY) option

val run :
  ?check:bool ->
  ?faults:Gpr_regfile.Fault.t list ->
  ?profile:Gpr_obs.Chrome.t ->
  ?policy:(module POLICY) ->
  Gpr_arch.Config.t ->
  tenant list ->
  result
(** Co-schedule the tenant set on one SM until every fed block of every
    kernel has drained.  [check] additionally enforces the per-kernel
    and aggregate slot-attribution and conservation identities
    (raising {!Sim.Invariant_violation}).  [faults] has {!Sim.run}'s
    meaning: a {!Gpr_regfile.Fault.Dead_bank}'s fetch traffic is
    spare-column remapped onto the nearest healthy bank, for every
    tenant (no faults is the identity).  [profile] records one Chrome
    lane (pid) per kernel plus a bank lane.  Default policy: {!fifo}.

    @raise Invalid_argument if the tenant list is empty or a single
    block of some kernel exceeds the SM resources outright. *)

val make_tenant :
  ?waves:int ->
  Gpr_arch.Config.t ->
  label:string ->
  trace:Gpr_exec.Trace.t ->
  alloc:Gpr_alloc.Alloc.t ->
  demand:Gpr_arch.Occupancy.demand ->
  mode:Sim.regfile_mode ->
  tenant
(** The tenant that replays {!Sim.run}'s workload: [waves] (default 6)
    waves of the demand's isolated occupancy, i.e.
    [t_blocks = waves * blocks_per_sm] with [blocks_per_sm] from
    {!Gpr_arch.Occupancy.of_demand} ({!run}, like {!Sim.run}, feeds at
    least one block).
    @raise Invalid_argument if one block exceeds the SM resources. *)

val single :
  ?check:bool ->
  ?waves:int ->
  ?faults:Gpr_regfile.Fault.t list ->
  Gpr_arch.Config.t ->
  trace:Gpr_exec.Trace.t ->
  alloc:Gpr_alloc.Alloc.t ->
  demand:Gpr_arch.Occupancy.demand ->
  mode:Sim.regfile_mode ->
  Sim.stats
(** The reference single-kernel run: {!run} on the lone {!make_tenant}
    under the default policy.  Byte-identical to {!Sim.run} with the
    same [check], [waves] and [faults] at [blocks_per_sm] from
    {!Gpr_arch.Occupancy.of_demand} [demand].  Like {!run} it counts
    its block admissions in the [sim.coloc.*] metrics, never in
    {!Sim.run}'s [sim.*] ones. *)
