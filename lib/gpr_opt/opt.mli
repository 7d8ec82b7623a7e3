(** Classic scalar optimisations over mini-PTX kernels.

    Real PTX arrives at the paper's framework after the front-end has
    cleaned it up; these passes provide the same service for kernels
    built with the DSL or loaded from text: fewer dead temporaries means
    tighter live ranges and a smaller architectural-register footprint
    before packing even starts.

    All passes preserve executable semantics exactly (they never touch
    memory operations, barriers or control flow, and fold floats only
    when the result is bit-identical under f32 rounding). *)

open Gpr_isa.Types

val constant_fold : kernel -> kernel
(** Fold instructions whose operands are immediates, and propagate the
    constants and copies of single-definition registers into their
    uses.  Runs to a fixpoint. *)

val dead_code_elim : kernel -> kernel
(** Remove instructions defining registers that are never used
    (transitively).  Stores, barriers and terminators are roots. *)

val simplify : kernel -> kernel
(** Strength-reduce algebraic identities: [x+0], [x*1], [x*0],
    [x land 0], [x lor 0], [selp a a p], float [x*1.0] and [x+0.0]
    (the latter only in value-preserving direction). *)

val run : kernel -> kernel
(** [constant_fold] → [simplify] → [constant_fold] → [dead_code_elim],
    iterated until the code stops changing (at most 9 rounds). *)

val instruction_count : kernel -> int
