(* The paper's scheme: statically proven narrow widths (range analysis
   for integers, the precision tuner for floats) packed at 4-bit slice
   granularity behind an indirection table (Secs. 3–4). *)

open Gpr_isa.Types
module P = Gpr_precision.Precision
module Width = Gpr_analysis.Width

let id = "slice"

(* v2: integer widths come from the reduced product of intervals,
   known bits, congruences and demanded bits ([Gpr_analysis.Width])
   instead of intervals alone — strictly narrower, never wider. *)
let version = 2

let describe = "slice-compressed register file (the paper's scheme)"
let needs_precision = true

(* The per-variable width policy, shared with the ablation sweeps (and
   re-exported by [Compress.width_fn] for compatibility).  Apply it
   partially once per allocation: the float widths per variable are
   tabulated once per partial application. *)
let width_fn ~narrow_ints ~narrow_floats ~width =
  let float_bits = Option.map P.var_bits narrow_floats in
  fun (r : vreg) ->
    match r.ty with
    | Pred -> 32  (* excluded from allocation by liveness anyway *)
    | F32 ->
      (match float_bits with
       | None -> 32
       | Some bits ->
         (match Hashtbl.find_opt bits r.id with Some b -> b | None -> 32))
    | S32 | U32 ->
      if narrow_ints && r.id < Array.length width.Width.var_bits
      then Width.var_bitwidth width r.id
      else 32

let analyze ~kernel ~width ~precision =
  Backend.plain_resources
    (Gpr_alloc.Alloc.run kernel
       ~width_of:(width_fn ~narrow_ints:true ~narrow_floats:precision ~width))

let cost =
  {
    Backend.read_extra_latency = 1;  (* source indirection lookup *)
    writeback_delay = 3;             (* Sec. 3.2.8 default, swept in Fig. 12 *)
    spill_latency = 0;
    uses_indirection = true;
  }

let area (cfg : Gpr_arch.Config.t) =
  (* Sec. 6.4 counting rules: one extractor per bank on Fermi, half the
     Fermi extractor count per register file on Volta (one scheduler per
     processing block vs two per Fermi SM). *)
  let extractors_per_rf =
    if cfg.register_files_per_sm > 1 then
      Gpr_arch.Config.fermi_gtx480.register_banks / 2
    else cfg.register_banks
  in
  let b = Gpr_area.Area.for_config cfg ~extractors_per_rf in
  {
    Backend.ar_scheme = id;
    ar_transistors_per_sm = b.Gpr_area.Area.total_per_sm;
    ar_fraction_of_chip = b.Gpr_area.Area.fraction_of_chip;
    ar_notes =
      "value extractors/converters/truncators, indirection tables, CU \
       extensions (Sec. 6.4)";
  }
