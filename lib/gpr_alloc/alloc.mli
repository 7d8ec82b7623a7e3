(** Slice-granular register allocation (Sec. 4.3).

    Every (non-predicate) virtual register is an architectural register
    with a *static* placement: up to two physical registers and an
    8-bit slice mask in each (Fig. 2) — an operand may be split across
    two physical registers to limit fragmentation, exactly the r0/m0,
    r1/m1 layout of the paper's indirection table.

    Allocation is a linear scan over live-interval hulls: at each
    interval start the allocator first tries any physical register with
    enough free 4-bit slices, then a split across two partially-free
    registers, and only then opens a fresh physical register.  Slices
    return to the pool when the variable dies, so variables with
    disjoint lifetimes share slices while their table entries stay
    static.

    The reported {e register pressure} is the peak number of physical
    registers with at least one occupied slice — the quantity Fig. 9
    plots.  With every width forced to 32 bits this degenerates to the
    baseline one-register-per-value allocation. *)

type placement = {
  reg0 : int;
  mask0 : int;       (** 8-bit slice mask within [reg0] *)
  reg1 : int;        (** -1 when not split *)
  mask1 : int;
  slices : int;      (** total slices = popcount mask0 + popcount mask1 *)
  bits : int;        (** declared operand width, 1–32 *)
  signed : bool;     (** sign-extend on read (S32) *)
  is_float : bool;   (** needs the value converter when bits < 32 *)
}

val is_split : placement -> bool

type t = {
  pressure : int;             (** peak physical registers in use *)
  placements : (int, placement) Hashtbl.t;  (** virtual reg -> placement *)
  num_arch_regs : int;        (** architectural registers used (table entries) *)
  peak_slices : int;          (** peak occupied slices *)
  split_count : int;          (** placements split over two registers *)
}

val run :
  ?allow_split:bool ->
  ?exclude:(int -> bool) ->
  ?intervals:(int * int * int) list ->
  Gpr_isa.Types.kernel ->
  width_of:(Gpr_isa.Types.vreg -> int) ->
  t
(** [width_of] gives the static bitwidth of each variable (from the
    range analysis for integers and the precision tuner for floats);
    return 32 to keep a variable uncompressed.  [allow_split] (default
    true) enables the two-register placements of Sec. 4.3; disabling it
    quantifies the fragmentation those splits exist to avoid.
    [exclude] (default none) drops a virtual register from allocation
    entirely — it gets no architectural name, no placement and adds no
    pressure; spilling backends use this to keep cold live ranges out
    of the register file.  [intervals] supplies the kernel's
    {!Gpr_analysis.Liveness.intervals} when the caller already has
    them. *)

val baseline : ?intervals:(int * int * int) list -> Gpr_isa.Types.kernel -> t
(** All widths forced to 32 bits: the conventional register file.
    [intervals] as for {!run}. *)

val fits_arch_table : t -> bool
(** True when the kernel needs at most 256 architectural registers
    (the indirection-table capacity assumed in Sec. 3.2.2). *)

val lookup : t -> int -> placement option
