(** PTX-flavoured printing of kernels, used in error messages, example
    output and the documentation.  The kernel text is also the content
    key of the result store ({!Gpr_engine.Fingerprint}), so its bytes
    are part of the on-disk format. *)

open Types

val ibinop_name : ibinop -> string
(** The PTX mnemonic of an integer binary operator, e.g. ["shr"]. *)

val instr_to_string : instr -> string
val terminator_to_string : terminator -> string
val kernel_to_string : kernel -> string

val instr_count : kernel -> int
(** Static instruction count (excluding terminators). *)
