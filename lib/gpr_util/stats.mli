(** Small statistics helpers used when summarising benchmark results. *)

val mean : float list -> float
val geomean : float list -> float
(** Geometric mean; requires all elements > 0. *)

val geomean_ratio : float list -> float
(** Geometric mean of [1 + x/100] ratios, returned back as a percentage
    increase — the aggregation the paper uses for Figure 11. *)

val stddev : float list -> float
val min_max : float list -> float * float
val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [0, 100]; linear interpolation.
    Out-of-range [p] clamps to the nearest extreme (p < 0 behaves as 0,
    p > 100 as 100); [nan] for an empty list or a [nan] percentile. *)

val best_cpu_times : rounds:int -> (unit -> unit) array -> float array
(** [best_cpu_times ~rounds fs] calls every [fs.(i)] once per round, in
    order, and returns each one's fastest call in process CPU seconds
    (user + system, [Sys.time]).  The rounds interleave the calls, so a
    drift in the host's speed reaches every function alike. *)

val reference_slice : unit -> unit
(** A fixed CPU workload of several milliseconds that serves as a unit
    of host speed: a few list sorts with hashing, then mostly
    throughput-bound integer work on cache-resident data (independent
    chains of loads and ALU operations, the kind of work the cycle
    engines do).  Timed with {!best_cpu_times} next to a measurement,
    [seconds / reference seconds] cancels most of what host load does
    to both: on a shared VM a busy sibling hardware thread stretches
    such code's CPU time by ~1.6x, which CPU time alone does not hide.
    Never change it: recorded ratios are relative to it. *)
