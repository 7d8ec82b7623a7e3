(** Floating-point precision tuning (Sec. 4.1).

    Implements the hierarchical-bisection heuristic of Angerd et al.
    (TACO'17), which the paper adopts: every static F32 definition site
    starts at full precision; the tuner repeatedly tries to move whole
    groups of sites one Table 3 format step down, re-running the kernel
    on sample inputs and checking the output-quality threshold, and
    recursively bisects groups that refuse to move together.

    The search is data-driven: quality is only guaranteed for the
    sample inputs provided (the paper makes the same caveat). *)

open Gpr_isa.Types

type assignment = {
  formats : (int, Gpr_fp.Format_.t) Hashtbl.t;  (** static pc -> format *)
  sites : (int * vreg) list;                     (** tuned sites *)
  evaluations : int;                             (** kernel runs spent *)
}

val no_reduction : sites:(int * vreg) list -> assignment
(** Everything at 32 bits (the float-compression-off configurations of
    Fig. 9). *)

val quantizer : assignment -> Gpr_fp.Format_.t array
(** The {!Gpr_exec.Exec.config} [quantize] table of an assignment:
    entry [pc] is the format of site [pc] (32 bits for every other pc);
    the table ends after the last site. *)

val tune :
  ?min_group:int ->
  ?budget:int ->
  sites:(int * vreg) list ->
  evaluate:(quantize:Gpr_fp.Format_.t array -> Gpr_quality.Quality.score) ->
  threshold:Gpr_quality.Quality.threshold ->
  unit ->
  assignment
(** [evaluate] must run the kernel with the given {!quantizer}-shaped
    format table and score the output against the full-precision
    reference; it must not keep the table, which the search goes on
    mutating.

    [evaluate] must be a pure function of the table: each distinct
    assignment is scored once per [evaluate] callback (the last one
    this domain used, by physical identity), so two searches of one
    kernel that share a callback — both thresholds — share their
    scores.  [evaluations] still counts every step the search takes,
    scored or remembered.

    [min_group] (default 1) stops bisection below that group size —
    coarser tuning with far fewer kernel runs, the knob the original
    framework also exposes for large kernels.  [budget] (default
    unlimited) caps the number of evaluations; the search stops early
    but every committed state is quality-validated, so the result is
    always safe, merely less compressed. *)

val var_bits : assignment -> (int, int) Hashtbl.t
(** Required storage bits per virtual register: the widest format over
    the register's definition sites.  Registers absent from the table
    need the full 32 bits. *)

val mean_bits : assignment -> float
(** Average assigned width over sites — a compression summary. *)
