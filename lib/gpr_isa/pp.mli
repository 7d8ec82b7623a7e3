(** PTX-flavoured pretty-printing of kernels, used in error messages,
    example output and the documentation. *)

open Types

val ibinop_name : ibinop -> string
(** The PTX mnemonic of an integer binary operator, e.g. ["shr"]. *)

val pp_vreg : Format.formatter -> vreg -> unit
val pp_operand : Format.formatter -> operand -> unit
val pp_instr : Format.formatter -> instr -> unit
val pp_terminator : Format.formatter -> terminator -> unit
val pp_kernel : Format.formatter -> kernel -> unit
val kernel_to_string : kernel -> string

val instr_count : kernel -> int
(** Static instruction count (excluding terminators). *)
