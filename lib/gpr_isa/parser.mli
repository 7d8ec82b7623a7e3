(** Parser for the textual kernel form emitted by {!Pp.kernel_to_string}.

    The printed form is self-contained (parameter/buffer/special-
    register declarations followed by labelled basic blocks), so
    kernels can be stored in and loaded from `.mptx` files:

    {[
      .entry saxpy (.param .s32 n /* [0,4096] */, .param .f32 a)
      .global .f32 x
      .global .f32 y
      .sreg 2 tid.x
      bb0:
        ld.param.s32 %n_0, [param0]
        ...
        ret
    ]}

    [parse] returns a validated kernel; round-tripping any executable
    kernel through {!Pp.kernel_to_string} and back is the identity up to
    register display names. *)

val parse : string -> (Types.kernel, string) result

val parse_exn : string -> Types.kernel
(** @raise Invalid_argument with a line-numbered message. *)
