(** Timing simulation of a workload under any registered register-file
    scheme ({!Gpr_backend.Registry}) on the Fermi configuration.

    Every run is built from one private {e seat} per (kernel, scheme,
    threshold): the scheme's resources, the plain or quantised trace
    (quantised when the scheme consumes a precision assignment), the
    occupancy, the admission demand and the sim mode.  A seat is built
    at most once per process per triple, and only on a memo or store
    miss.  The baseline and slice seats reuse the allocations
    {!Compress.analyze} already holds; other schemes run their
    [analyze].

    The paper's three configurations are seats too: {e baseline} is the
    [baseline] scheme, {e proposed} the [slice] scheme, and
    {e artificial} (the Table 1 control) the baseline seat run at the
    slice seat's occupancy.

    Traces and seats are memoised in memory, in domain-safe tables.
    Stats, energy and co-scheduling results are memoised by (kernel
    fingerprint, architecture fingerprint, scheme id+version, variant)
    and persisted to the optional on-disk store, so a warm run
    re-executes neither the kernel nor the timing model. *)

val backend :
  ?writeback_delay:int ->
  Gpr_backend.Backend.t ->
  Compress.t ->
  Gpr_quality.Quality.threshold ->
  Gpr_sim.Sim.stats
(** Simulate the workload under a scheme.  [writeback_delay] overrides
    an indirection-table scheme's own delay (Fig. 12).  Store key
    ["<kernel>/<arch>/backend/<scheme>/<threshold>/wb<delay or ->"]
    under kind ["stats"]. *)

val baseline : Compress.t -> Gpr_sim.Sim.stats
(** [backend] on the [baseline] scheme at the high threshold (the
    conventional file ignores the threshold). *)

val proposed :
  ?writeback_delay:int ->
  Compress.t ->
  Gpr_quality.Quality.threshold ->
  Gpr_sim.Sim.stats
(** [backend ?writeback_delay] on the [slice] scheme. *)

val artificial : Compress.t -> Gpr_quality.Quality.threshold -> Gpr_sim.Sim.stats
(** The Table 1 control: the baseline register file with occupancy
    raised to the slice scheme's level, i.e. the upper bound an ideally
    free compression scheme could reach. *)

val footprint :
  Gpr_backend.Backend.t ->
  Compress.t ->
  Gpr_quality.Quality.threshold ->
  Gpr_backend.Backend.resources * Gpr_arch.Occupancy.result
(** The seat's resources and Fermi occupancy (both limits: registers,
    and shared memory including spill slots).  Never executes the
    kernel. *)

val warm : Gpr_backend.Backend.t -> Compress.t -> Gpr_quality.Quality.threshold -> unit
(** Build the seat and its trace, so later runs of it re-simulate
    without re-executing the kernel. *)

val on_machine :
  Gpr_arch.Config.t ->
  Gpr_backend.Backend.t ->
  Compress.t ->
  Gpr_quality.Quality.threshold ->
  Gpr_arch.Occupancy.result * Gpr_sim.Sim.stats
(** An unmemoised run of the seat on another machine configuration
    (the scheduler, bank and Volta ablations), with the occupancy
    re-derived there from the seat's admission demand. *)

val backend_energy :
  Gpr_backend.Backend.t ->
  Compress.t ->
  Gpr_quality.Quality.threshold ->
  Gpr_area.Energy.report
(** Register-file energy and energy-delay product of the workload under
    a scheme ({!Gpr_area.Energy}): warp-level access counts from the
    seat's trace, cycles/double-fetches/conversions/spill traffic from
    the memoised timing stats ({!backend}), mean occupied slices from
    the seat's allocation, and the GREENER gating input (mean live
    share of an allocated register's program span) from
    {!Gpr_analysis.Liveness} — the conventional file gets no gating.
    Memoised like the stats ("energy" payloads; engine fingerprint
    /6). *)

val colocate :
  ?waves:int ->
  ?policy:(module Gpr_sim.Sim_multi.POLICY) ->
  ?check:bool ->
  Gpr_backend.Backend.t ->
  Compress.t list ->
  Gpr_quality.Quality.threshold ->
  Gpr_sim.Sim_multi.result
(** Co-schedule a kernel set on one SM under the given scheme and
    dispatch policy ({!Gpr_sim.Sim_multi}).  Each kernel is seated with
    [waves] waves of blocks at its {e isolated} occupancy and the
    admission demand from {!Gpr_backend.Backend.demand}, so the
    co-scheduled run replays exactly the workload of the kernels'
    isolated runs, and co-residency gains come only from packing.
    Memoised like the stats entries, keyed by the ordered kernel-set
    fingerprints + scheme + policy + waves; [?check:true] runs the
    self-checking oracle and is never served from (or written to) the
    memo. *)

val profile_backend :
  profile:Gpr_obs.Chrome.t ->
  Gpr_backend.Backend.t ->
  Compress.t ->
  Gpr_quality.Quality.threshold ->
  Gpr_sim.Sim.stats
(** Like {!backend}, but always runs the timing model (never served
    from the stats memo — a Chrome trace can only come from a real
    run), with [~check:true] and the profile collector threaded into
    {!Gpr_sim.Sim.run}. *)

val clear_cache : unit -> unit
(** Clears the in-memory memo tables only, never the on-disk store. *)

val set_store : Gpr_engine.Store.t option -> unit
(** Attach (or detach) an on-disk store for simulation results. *)
