(** Reduced-precision floating-point formats (Table 3).

    Each format mimics IEEE 754: one sign bit, [exp_bits] biased exponent
    bits (all-ones reserved for ±inf / NaN) and [man_bits] mantissa bits
    with an implicit leading one.  Denormals are flushed to zero during
    conversion, which Sec. 3.2.5 notes is safe because the precision
    selection step makes the same simplification.

    The module is named [Format_] to avoid clashing with [Stdlib.Format]. *)

type t = private {
  total_bits : int;   (** 1 + exp_bits + man_bits *)
  exp_bits : int;
  man_bits : int;
}

val f32 : t
val all : t list
(** The seven formats of Table 3, widest first:
    32/28/24/20/16/12/8 bits. *)

val of_total_bits : int -> t option
val level : t -> int
(** Index into {!all}: 0 = 32-bit, 6 = 8-bit. *)

val of_level : int -> t
(** @raise Invalid_argument outside [0, 6]. *)

val next_narrower : t -> t option
val next_wider : t -> t option
val bias : t -> int

val encode : t -> float -> int
(** Bit pattern of the nearest representable value (round-to-nearest,
    ties-to-even; overflow saturates to ±inf; underflow flushes to ±0;
    NaN maps to a canonical quiet NaN). The argument is first rounded to
    IEEE single precision. *)

val decode : t -> int -> float
(** Exact value of a bit pattern, as a single-precision float. *)

val quantize : t -> float -> float
(** [decode t (encode t x)] — the value the register file would return
    after a store/load round trip in this format.  ±0 comes back as
    itself; for 2^-126 <= |x| < 2^127 it rounds with double arithmetic
    (a Veltkamp split), elsewhere with {!quantize_bits}; the two agree
    bit for bit. *)

val quantize_bits : t -> float -> float
(** [quantize] computed on the IEEE single-precision bit pattern: the
    path [quantize] takes for f32 denormals, inf, NaN and
    |x| >= 2^127, and the reference its fast path is tested against. *)

val quantize_lanes : t -> float array -> int -> int -> unit
(** [quantize_lanes t a base mask] replaces [a.(base + lane)] by its
    [quantize t] for every lane (0..31) set in [mask], without boxing a
    float — the executor's entry point, once per warp instruction. *)

val is_nan_pattern : t -> int -> bool
val is_inf_pattern : t -> int -> bool

val max_finite : t -> float
val min_positive_normal : t -> float

val relative_error_bound : t -> float
(** Half-ULP relative error bound for normal values: [2^-(man_bits+1)]. *)

val to_string : t -> string
