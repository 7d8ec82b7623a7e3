(** Cycle-level model of one streaming multiprocessor (Sec. 3.1/3.2).

    Trace-driven: the functional executor's warp streams are replayed
    through a Fermi-style SM — dual GTO warp schedulers, a scoreboard
    (no forwarding, Sec. 6.3), a 16-bank register file behind an
    operand collector with 16 collector units and a throughput-
    oriented arbitrator, two SPUs, one SFU, one LD/ST unit with
    L1/texture/L2/DRAM hierarchy and shared-memory bank conflicts, and
    a 3-operand-wide writeback bus.

    The proposed register file adds: source/destination indirection-
    table lookups (banked, arbitrated), double fetches for operands
    split across two physical registers, value-converter slots
    (6/cycle) for narrow-float sources, and a configurable extra
    writeback delay (default 3 cycles, Sec. 3.2.8 — swept in Fig. 12).

    The SM simulates its round-robin share of the grid's blocks at the
    given occupancy; [gpu_ipc] scales to the full chip under the
    homogeneous-blocks assumption (all our workloads satisfy it). *)

type regfile_mode =
  | Baseline
  | Proposed of { writeback_delay : int }
  | Spill of { latency : int; spilled : (int, unit) Hashtbl.t }
      (** a conventional 32-bit file for the registers that stay, plus
          shared-memory spill slots for the keys of [spilled]: spilled
          sources refill before execution and spilled destinations
          write through after writeback, each paying [latency] cycles;
          spill accesses serialise at one per cycle *)

type stats = {
  cycles : int;
  thread_instructions : int;   (** executed on this SM *)
  warp_instructions : int;
  sm_ipc : float;              (** thread instructions / cycle, this SM *)
  gpu_ipc : float;             (** [sm_ipc * num_sms] — the whole-chip IPC
                                   under the homogeneous-blocks assumption *)
  issued_per_cycle : float;
  l1_hit_rate : float;
  tex_hit_rate : float;
  l2_hit_rate : float;
  tex_accesses : int;
  double_fetches : int;        (** operand fetches split over two registers *)
  conversions : int;           (** value-converter uses *)
  issued_slots : int;          (** scheduler slots that issued an instruction
                                   (equals [warp_instructions]) *)
  stall_scoreboard : int;      (** slots lost to pending operands *)
  stall_no_cu : int;           (** slots lost with no free collector unit *)
  stall_bank_conflict : int;   (** slots lost with CUs stuck behind a
                                   register-bank conflict this cycle *)
  stall_spill_port : int;      (** slots lost waiting on an in-flight spilled
                                   register access ([Spill] mode) *)
  stall_barrier : int;         (** slots lost to barrier waits / draining *)
  stall_empty : int;           (** slots with no work left to issue *)
  bank_conflicts : int;        (** operand-fetch cycles serialised behind a
                                   busy register bank *)
  idle_cycles : int;
  spill_loads : int;           (** spilled source refills ([Spill] mode) *)
  spill_stores : int;          (** spilled destination write-throughs *)
}

(** The six [stall_*] counters plus [issued_slots] as a
    {!Gpr_obs.Stall.breakdown}.  Every scheduler slot of every cycle is
    attributed exactly once, so
    [Gpr_obs.Stall.total_slots (breakdown s) = s.cycles * warp_schedulers]. *)
val breakdown : stats -> Gpr_obs.Stall.breakdown

exception Invariant_violation of string
(** Raised by {!run} when [~check:true] and a structural invariant of
    the pipeline model is broken (see below). *)

val run :
  ?check:bool ->
  ?waves:int ->
  ?faults:Gpr_regfile.Fault.t list ->
  ?profile:Gpr_obs.Chrome.t ->
  Gpr_arch.Config.t ->
  trace:Gpr_exec.Trace.t ->
  alloc:Gpr_alloc.Alloc.t ->
  blocks_per_sm:int ->
  mode:regfile_mode ->
  stats
(** [alloc] supplies placements: pass {!Gpr_alloc.Alloc.baseline}'s
    result for [Baseline] mode and the packed allocation for
    [Proposed]. [blocks_per_sm] comes from {!Gpr_arch.Occupancy}.
    [faults] (default none) injects permanent register-file defects
    into the timing model: any {!Gpr_regfile.Fault.Dead_bank} has its
    fetch traffic spare-column remapped onto the nearest healthy bank,
    concentrating conflicts there.  An empty fault list is
    bit-identical to a run without the parameter.
    [waves] (default 6) is the number of block waves fed through each
    resident slot; block traces are drawn round-robin from the grid.

    A run works in two steps.  It first derives everything the cycle
    loop reads: [cfg], [waves], [blocks_per_sm], the mode as scalars
    (proposed or not, writeback delay, spill latency), each register's
    bank base, second bank (split placements), converter need and
    spill residence, and the dead-bank remap of [faults].  The loop
    then reads only those inputs and the trace's packing.

    The trace is packed for replay once, and the packing is reused by
    the next run on the same trace in the same domain (keyed by the
    trace's physical identity and [cfg.l1_line_bytes]).  Beside the
    packing the domain keeps the derived inputs and stats of the last
    run on that trace.  A run whose inputs equal that run's
    (structural equality) returns its stats record (physically the
    same) without running the loop, and still adds the [sim.*] counter
    amounts the loop would have added.  So rrcd without faults right
    after slice, whose allocation equals slice's, costs one loop
    between them.  [~check:true] and [~profile] always run the loop
    (and become the last run).  Nothing here keeps a trace alive.  A trace must not be changed after its
    first run: build a new one instead.

    With [~check:true] (default false) the model audits itself and
    raises {!Invariant_violation} if any of these break:
    - the scoreboard never lets an instruction issue with a pending
      RAW/WAW hazard on its registers;
    - every issued non-sync instruction retires exactly once, and no
      warp retires more than it issued;
    - the issued warp-instruction count equals the total stream length
      of the blocks this SM was given;
    - executed thread instructions never exceed 32x warp issues;
    - every scheduler slot of every cycle is attributed exactly once:
      [issued_slots + sum of stall_* = cycles x warp_schedulers], and
      [issued_slots = warp_instructions];
    - the simulation drains rather than hitting the cycle bailout.

    With [~profile:(collector)] the run additionally emits Chrome
    trace events into the collector: one complete span per warp
    instruction (pid 0, tid = resident warp id, ts/dur in cycles as
    µs), instant marks for barriers and for register-bank conflicts
    (pid 1, tid = bank).  Profiling does not perturb the timing
    model. *)

val run_loop :
  ?check:bool ->
  ?waves:int ->
  ?faults:Gpr_regfile.Fault.t list ->
  ?profile:Gpr_obs.Chrome.t ->
  Gpr_arch.Config.t ->
  trace:Gpr_exec.Trace.t ->
  alloc:Gpr_alloc.Alloc.t ->
  blocks_per_sm:int ->
  mode:regfile_mode ->
  stats
(** {!run} that always runs the cycle loop: it neither reads nor
    keeps stats of earlier runs (the packing is still shared).  Equal
    to {!run} on every input.  For harnesses that time the engine
    itself. *)
