(** One entry point per table and figure of the paper's evaluation.

    Each [*_data] function returns structured rows (used by the tests),
    and each [print_*] renders them in the paper's layout.  Everything
    is memoised through {!Compress} and {!Simulate}, so printing the
    full suite runs the static framework once per kernel.

    With {!use_pool}, every data function fans its independent
    per-(kernel, configuration) jobs out over the given
    {!Gpr_engine.Pool}.  Fan-out preserves row order and all printing
    stays in the calling domain, so serial and parallel runs produce
    bit-identical output. *)

val use_pool : Gpr_engine.Pool.t option -> unit
(** Set (or clear) the execution pool used by the data functions.
    [None], or a pool with [jobs = 1], means serial evaluation. *)

type table1 = {
  t1_pressure_orig : int;
  t1_pressure_int : int;
  t1_pressure_float : int;
  t1_pressure_both : int;
  t1_occupancy_orig : float;
  t1_occupancy_both : float;
  t1_ipc_orig : float;
  t1_ipc_proposed : float;
  t1_ipc_artificial : float;
}

val table1_data : unit -> table1
val print_table1 : unit -> unit

val print_table2 : unit -> unit
val print_table3 : unit -> unit

type table4_row = {
  t4_name : string;
  t4_metric : string;
  t4_paper_regs : int;
  t4_measured_regs : int;
  t4_warps_per_block : int;
  t4_group : int;
}

val table4_data : unit -> table4_row list
val print_table4 : unit -> unit

val print_fig8 : unit -> unit

type width_row = {
  wr_name : string;
  wr_int_vars : int;
  wr_interval_narrow : int;
  wr_product_narrow : int;
  wr_bits_saved : int;
}

val width_report_data : unit -> width_row list
(** Per registry kernel: integer-variable count, how many are narrow
    (< 32 bits) under intervals alone vs under the
    {!Gpr_analysis.Width} reduced product, and the total bits saved. *)

val print_width_report : unit -> unit
(** The range-analysis worked example. *)

type fig9_row = {
  f9_name : string;
  f9_original : int;
  f9_int_only : int;
  f9_float_perfect : int;
  f9_float_high : int;
  f9_both_perfect : int;
  f9_both_high : int;
}

val fig9_data : unit -> fig9_row list
val print_fig9 : unit -> unit

type fig10_row = {
  f10_name : string;
  f10_blocks_orig : int;
  f10_blocks_perfect : int;
  f10_blocks_high : int;
  f10_limiter_high : string;
}

val fig10_data : unit -> fig10_row list
val print_fig10 : unit -> unit

type fig11_row = {
  f11_name : string;
  f11_ipc_base : float;
  f11_ipc_perfect : float;
  f11_ipc_high : float;
  f11_incr_perfect_pct : float;
  f11_incr_high_pct : float;
}

val fig11_data : unit -> fig11_row list
val fig11_geomeans : fig11_row list -> float * float
val print_fig11 : unit -> unit

type fig12_row = { f12_name : string; f12_ipc_by_delay : (int * float) list }

val fig12_delays : int list
val fig12_data : unit -> fig12_row list
val print_fig12 : unit -> unit

type backend_row = {
  b_kernel : string;
  b_backend : string;
  b_regs : int;               (** register pressure under the scheme *)
  b_spill_bytes : int;        (** shared spill bytes per thread *)
  b_blocks : int;
  b_occupancy : float;
  b_ipc : float;
  b_ipc_vs_baseline_pct : float;
  b_stalls : Gpr_obs.Stall.breakdown;
      (** per-slot issue/stall attribution of the scheme's simulation *)
}

val backend_comparison :
  ?names:string list -> Gpr_backend.Backend.t list -> backend_row list
(** One row per (kernel, scheme), kernels outermost.  [names] restricts
    the kernel set (default: the whole registry); unknown names fail.
    Schemes that consume a precision assignment use the high
    threshold. *)

val print_backend_comparison :
  ?names:string list -> Gpr_backend.Backend.t list -> unit

type pareto_row = {
  p_scheme : string;
  p_ipc_geomean_pct : float;
      (** geomean IPC change vs the conventional file, over the registry *)
  p_area_fraction : float;  (** scheme hardware overhead, chip fraction *)
  p_energy_nj : float;      (** mean register-file energy per kernel run *)
  p_edp : float;            (** mean energy-delay product *)
  p_gated_pct : float;      (** mean GREENER-gated capacity share *)
  p_fault_absorbed : float option;
      (** mean faults absorbed before first corruption, when a
          fault-injection campaign ran *)
}

val pareto_data :
  ?fault_coverage:(string * float) list ->
  Gpr_backend.Backend.t list ->
  pareto_row list
(** One row per scheme: IPC aggregated with {!Gpr_util.Stats.geomean_ratio}
    over the whole kernel registry, energy figures averaged from
    {!Simulate.backend_energy} at the high threshold, area from the
    scheme's own estimate.  [fault_coverage] maps scheme ids to the
    mean absorbed-fault counts of a fault-injection campaign (typically
    from [gpr check --faults]); schemes without an entry render "-". *)

val print_pareto :
  ?fault_coverage:(string * float) list -> Gpr_backend.Backend.t list -> unit

val print_area : unit -> unit
(** Sec. 6.4 area overhead. *)

val print_power : unit -> unit
(** Sec. 6.5 power overhead. *)

val print_volta : unit -> unit
(** Sec. 7 Volta scaling. *)

val print_ablation_scheduler : unit -> unit
(** GTO vs LRR warp scheduling. *)

val print_ablation_banks : unit -> unit
(** Register/indirection bank-count sweep. *)

val print_ablation_split : unit -> unit
(** Split placements vs fragmentation. *)

val print_volta_sim : unit -> unit
(** The proposed register file simulated on the Volta configuration. *)

val print_ablations : unit -> unit

val sections : (string * (unit -> unit)) list
(** The full reproduction, in paper order, plus the ablations: one
    printer per report, under its [gpr report] name. *)

val print_all : unit -> unit
(** Prints every entry of {!sections}, in order. *)
