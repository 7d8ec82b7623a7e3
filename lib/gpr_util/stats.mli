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
